package deadline

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// owner is a one-slot deadline table instrumented for the tests: it counts
// reads of next and records every fire on a channel.
type owner struct {
	mu    sync.Mutex
	at    time.Time // zero = nothing pending
	reads atomic.Int64
	fired chan time.Time
	loop  *Loop
}

func newOwner() *owner {
	o := &owner{fired: make(chan time.Time, 16)}
	o.loop = New(o.next, o.fire)
	return o
}

func (o *owner) next() (time.Time, bool) {
	o.reads.Add(1)
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.at, !o.at.IsZero()
}

func (o *owner) fire(now time.Time) {
	o.mu.Lock()
	due := !o.at.IsZero() && !o.at.After(now)
	if due {
		o.at = time.Time{}
	}
	o.mu.Unlock()
	if due {
		o.fired <- now
	}
}

func (o *owner) schedule(d time.Duration) {
	o.mu.Lock()
	o.at = time.Now().Add(d)
	o.mu.Unlock()
	o.loop.Kick()
}

func (o *owner) live() bool {
	o.loop.mu.Lock()
	defer o.loop.mu.Unlock()
	return o.loop.live
}

// waitIdle waits for the goroutine to give up live. It exits on its own as
// soon as next reports nothing pending, so this terminates without any
// further Kick.
func (o *owner) waitIdle(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); o.live(); {
		if time.Now().After(deadline) {
			t.Fatal("goroutine still live with nothing pending")
		}
		time.Sleep(time.Millisecond)
	}
}

func (o *owner) waitFire(t *testing.T) {
	t.Helper()
	select {
	case <-o.fired:
	case <-time.After(5 * time.Second):
		t.Fatal("deadline never fired")
	}
}

func TestLazyStartExitWhenIdleAndRestart(t *testing.T) {
	o := newOwner()
	defer o.loop.Close()
	if o.live() || o.reads.Load() != 0 {
		t.Fatalf("fresh loop: live=%v reads=%d, want an untouched idle loop", o.live(), o.reads.Load())
	}

	// The first Kick with a pending deadline starts the goroutine; the
	// deadline fires; with nothing left the goroutine exits.
	o.schedule(time.Millisecond)
	o.waitFire(t)
	o.waitIdle(t)

	// A later Kick restarts it, and it fires again.
	o.schedule(time.Millisecond)
	o.waitFire(t)
	o.waitIdle(t)

	// A Kick with nothing pending starts a goroutine that leaves at once.
	o.loop.Kick()
	o.waitIdle(t)
	select {
	case <-o.fired:
		t.Fatal("fired with nothing pending")
	default:
	}
}

func TestMovedDeadlineIsReRead(t *testing.T) {
	o := newOwner()
	defer o.loop.Close()
	o.schedule(time.Hour)
	// Moving the deadline in wakes the sleeper, which must not wait out
	// the hour it armed for.
	o.schedule(time.Millisecond)
	o.waitFire(t)
}

func TestConcurrentKicksCoalesce(t *testing.T) {
	o := newOwner()
	defer o.loop.Close()
	o.schedule(time.Hour)
	// Once the goroutine has read the schedule it does not read it again
	// until it is kicked.
	for o.reads.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	before := o.reads.Load()

	// Hold the owner's lock so the goroutine, once woken, parks inside
	// next: every Kick below lands between two reads of the schedule.
	const kicks = 64
	o.mu.Lock()
	var wg sync.WaitGroup
	for range kicks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.loop.Kick()
		}()
	}
	wg.Wait() // Kick never blocks, even with the goroutine stuck in next
	o.mu.Unlock()

	// The burst is worth at most two re-reads: the one the first wake
	// caused, and one more for a wake that landed after that read began.
	for deadline := time.Now().Add(5 * time.Second); o.reads.Load() == before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let a second re-read, if any, happen
	if got := o.reads.Load() - before; got < 1 || got > 2 {
		t.Fatalf("%d concurrent kicks caused %d re-reads of next, want 1 or 2", kicks, got)
	}
	if !o.live() {
		t.Fatal("goroutine exited with a deadline pending")
	}
}

func TestCloseWhileArmed(t *testing.T) {
	o := newOwner()
	o.schedule(time.Hour)
	o.loop.Close() // returns only once the goroutine has exited
	if o.live() {
		t.Fatal("goroutine live after Close")
	}
	// Closed for good: a Kick neither restarts it nor fires anything,
	// even with the deadline now due.
	o.schedule(-time.Second)
	if o.live() {
		t.Fatal("Kick after Close started a goroutine")
	}
	select {
	case <-o.fired:
		t.Fatal("fired after Close")
	case <-time.After(20 * time.Millisecond):
	}
	o.loop.Close() // idempotent
}

// TestScheduleRacesIdleExit hammers the window exit guards: a deadline
// scheduled just as the goroutine finds nothing pending must still fire,
// through either the waiting wake or a fresh goroutine.
func TestScheduleRacesIdleExit(t *testing.T) {
	o := newOwner()
	defer o.loop.Close()
	for i := range 2000 {
		o.schedule(0)
		select {
		case <-o.fired:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: deadline lost between idle exit and Kick", i)
		}
	}
}
