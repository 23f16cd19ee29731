package fleet

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"capi/internal/deadline"
)

// member is one capi serve endpoint the coordinator knows about. Mutable
// fields are guarded by the owning registry's mutex; events is written by
// the member's tailer goroutine, so it stays atomic.
type member struct {
	name   string
	url    string
	static bool

	events atomic.Int64 // SSE events relayed from this member

	app      string             //capi:guardedby mu
	lastSeen time.Time          //capi:guardedby mu
	deadline time.Time          //capi:guardedby mu — heartbeat TTL expiry; zero for static members
	healthy  bool               //capi:guardedby mu
	lastErr  string             //capi:guardedby mu
	cancel   context.CancelFunc //capi:guardedby mu — stops the member's tailer
}

// registry is the member table plus the heartbeat-TTL eviction loop: a
// deadline.Loop (the one ttl.go runs on) that sleeps until the earliest
// dynamic deadline, evicts everything overdue, and exits when no dynamic
// member remains. Heartbeats only move deadlines and kick the loop.
type registry struct {
	ttl     time.Duration
	onJoin  func(*member) context.CancelFunc // start tailer; called under mu
	onLeave func(name, reason string)        // called after removal, outside mu

	evict *deadline.Loop

	mu      sync.Mutex
	members map[string]*member //capi:guardedby mu
	closed  bool               //capi:guardedby mu

	registrations atomic.Int64 // joins + heartbeats accepted
	evictions     atomic.Int64 // members evicted by TTL
}

func newRegistry(ttl time.Duration, onJoin func(*member) context.CancelFunc, onLeave func(name, reason string)) *registry {
	r := &registry{
		ttl:     ttl,
		onJoin:  onJoin,
		onLeave: onLeave,
		members: make(map[string]*member),
	}
	r.evict = deadline.New(r.nextDeadline, r.expireOverdue)
	return r
}

// upsert joins a new member or refreshes an existing one (the heartbeat).
// A name re-registered with a different URL replaces the old member: its
// tailer is stopped and a "replaced" lifecycle event is published. The
// eviction loop is started lazily on the first dynamic member. Returns
// false when the registry is closed.
func (r *registry) upsert(name, url, app string, static bool) bool {
	var stopOld context.CancelFunc
	replaced := false

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	m := r.members[name]
	if m != nil && m.url != url {
		stopOld, replaced = m.cancel, true
		delete(r.members, name)
		m = nil
	}
	if m == nil {
		m = &member{name: name, url: url, static: static, healthy: true}
		r.members[name] = m
		m.cancel = r.onJoin(m)
	}
	m.app = app
	m.lastSeen = time.Now()
	if !static {
		m.deadline = m.lastSeen.Add(r.ttl)
	}
	r.registrations.Add(1)
	r.mu.Unlock()

	if replaced {
		if stopOld != nil {
			stopOld()
		}
		r.onLeave(name, "replaced")
	}
	if !static {
		r.evict.Kick()
	}
	return true
}

// nextDeadline is the eviction loop's next: the earliest heartbeat
// deadline, or false once no dynamic member remains (a later registration
// restarts the loop).
func (r *registry) nextDeadline() (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var next time.Time
	for _, m := range r.members {
		if m.static || m.deadline.IsZero() {
			continue
		}
		if next.IsZero() || m.deadline.Before(next) {
			next = m.deadline
		}
	}
	return next, !next.IsZero()
}

// expireOverdue is the eviction loop's fire: it removes every dynamic
// member whose deadline has passed and reports the evictions outside the
// lock.
func (r *registry) expireOverdue(now time.Time) {
	type gone struct {
		name   string
		cancel context.CancelFunc
	}
	var expired []gone

	r.mu.Lock()
	for name, m := range r.members {
		if m.static || m.deadline.IsZero() || m.deadline.After(now) {
			continue
		}
		expired = append(expired, gone{name, m.cancel})
		delete(r.members, name)
	}
	r.mu.Unlock()

	for _, g := range expired {
		r.evictions.Add(1)
		if g.cancel != nil {
			g.cancel()
		}
		r.onLeave(g.name, "evicted")
	}
}

// setHealth records a probe or fan-out outcome. seen additionally
// refreshes lastSeen (probe success) without touching the heartbeat
// deadline — liveness coloring is softer than eviction.
func (r *registry) setHealth(name string, healthy bool, errStr string, seen bool) {
	r.mu.Lock()
	if m := r.members[name]; m != nil {
		m.healthy = healthy
		m.lastErr = errStr
		if seen {
			m.lastSeen = time.Now()
		}
	}
	r.mu.Unlock()
}

// memberSnap is an immutable view of one member row.
type memberSnap struct {
	Name     string
	URL      string
	App      string
	Static   bool
	Healthy  bool
	LastErr  string
	LastSeen time.Time
	Deadline time.Time
	Events   int64
}

// snapshot copies the member table, sorted by name.
func (r *registry) snapshot() []memberSnap {
	r.mu.Lock()
	out := make([]memberSnap, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, memberSnap{
			Name: m.name, URL: m.url, App: m.app, Static: m.static,
			Healthy: m.healthy, LastErr: m.lastErr,
			LastSeen: m.lastSeen, Deadline: m.deadline,
			Events: m.events.Load(),
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (r *registry) count() int {
	r.mu.Lock()
	n := len(r.members)
	r.mu.Unlock()
	return n
}

// close empties the table, stops the eviction loop and every tailer.
func (r *registry) close() {
	r.mu.Lock()
	r.closed = true
	cancels := make([]context.CancelFunc, 0, len(r.members))
	for _, m := range r.members {
		if m.cancel != nil {
			cancels = append(cancels, m.cancel)
		}
	}
	r.members = make(map[string]*member)
	r.mu.Unlock()

	r.evict.Close()
	for _, c := range cancels {
		c()
	}
}
