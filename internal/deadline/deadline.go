// Package deadline owns the timer goroutine behind every "do this when the
// TTL runs out" in the system: an Instance's ephemeral-probe reverts
// (ttl.go) and the fleet registry's heartbeat evictions. The owner keeps
// its own deadlines under its own lock and hands the Loop two functions:
// next reports the earliest one, fire delivers whatever is due. The Loop
// keeps the rest: one goroutine, started by the first Kick that finds none
// running, that sleeps until next's deadline (deadlines are monotonic:
// time.Time retains the monotonic reading), re-reads it whenever a Kick
// says the schedule changed, and exits as soon as nothing is pending — an
// owner that never schedules anything never runs a goroutine.
package deadline

import (
	"sync"
	"time"
)

// Loop is one lazily-started deadline timer. Create it with New.
type Loop struct {
	next func() (time.Time, bool)
	fire func(now time.Time)
	// wake tells a sleeping goroutine the schedule changed. Capacity one:
	// any number of Kicks between two reads of next coalesce.
	wake chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	live   bool //capi:guardedby mu
	closed bool //capi:guardedby mu
}

// New builds an idle Loop. next returns the earliest pending deadline, or
// false when none is pending; fire delivers everything due at now and
// must leave next past it. Both run on the Loop's goroutine, outside its
// lock, and take whatever locks the owner needs.
func New(next func() (time.Time, bool), fire func(now time.Time)) *Loop {
	return &Loop{next: next, fire: fire, wake: make(chan struct{}, 1)}
}

// Kick tells the Loop that a deadline was added, moved or removed: it
// starts the goroutine if none is running and otherwise wakes it to read
// next again. It never blocks, so the owner may call it with its own lock
// held. After Close it does nothing.
func (l *Loop) Kick() {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
	case !l.live:
		l.live = true
		l.wg.Add(1)
		go l.run()
	default:
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
}

// Close stops the Loop for good and returns once its goroutine, if any,
// has exited; nothing fires afterwards. It must not be called from fire.
func (l *Loop) Close() {
	l.mu.Lock()
	l.closed = true
	select {
	case l.wake <- struct{}{}:
	default:
	}
	l.mu.Unlock()
	l.wg.Wait()
}

func (l *Loop) run() {
	defer l.wg.Done()
	for {
		at, pending := l.next()
		if l.exit(!pending) {
			return
		}
		if !pending {
			continue
		}
		if d := time.Until(at); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-l.wake:
				t.Stop()
				continue
			}
		}
		l.fire(time.Now())
	}
}

// exit reports whether the goroutine returns now: always once closed, and
// when idle — unless a wake is waiting. That wake is a Kick that saw the
// goroutine live while next was being read, so its deadline may have been
// missed; giving up live under the same lock Kick sends under means such a
// Kick either leaves its wake here or starts the next goroutine.
func (l *Loop) exit(idle bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if idle && !l.closed {
		select {
		case <-l.wake:
			return false
		default:
		}
	}
	if idle || l.closed {
		l.live = false
		return true
	}
	return false
}
