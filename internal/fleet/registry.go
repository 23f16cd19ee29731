package fleet

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
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
	evict    *time.Timer        //capi:guardedby mu — fires at deadline; nil for static members
	healthy  bool               //capi:guardedby mu
	lastErr  string             //capi:guardedby mu
	cancel   context.CancelFunc //capi:guardedby mu — stops the member's tailer
}

// registry is the member table plus the heartbeat-TTL evictions: each
// dynamic member owns a timer, armed when it first registers and reset by
// every heartbeat, that evicts it once its deadline has passed.
type registry struct {
	ttl     time.Duration
	onJoin  func(*member) context.CancelFunc // start tailer; called under mu
	onLeave func(name, reason string)        // called after removal, outside mu

	evicting sync.WaitGroup // evictions under way; close waits for them

	mu      sync.Mutex
	members map[string]*member //capi:guardedby mu
	closed  bool               //capi:guardedby mu

	registrations atomic.Int64 // joins + heartbeats accepted
	evictions     atomic.Int64 // members evicted by TTL
}

func newRegistry(ttl time.Duration, onJoin func(*member) context.CancelFunc, onLeave func(name, reason string)) *registry {
	return &registry{
		ttl:     ttl,
		onJoin:  onJoin,
		onLeave: onLeave,
		members: make(map[string]*member),
	}
}

// upsert joins a new member or refreshes an existing one (the heartbeat).
// A name re-registered with a different URL replaces the old member: its
// tailer and eviction timer are stopped and a "replaced" lifecycle event
// is published. A member first registered from the static -members list
// stays static, and so never evicted, even if it heartbeats. Returns false
// when the registry is closed.
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
		if m.evict != nil {
			m.evict.Stop()
		}
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
	if !m.static {
		m.deadline = m.lastSeen.Add(r.ttl)
		if m.evict == nil {
			m.evict = time.AfterFunc(r.ttl, func() { r.expire(m) })
		} else {
			m.evict.Reset(r.ttl)
		}
	}
	r.registrations.Add(1)
	r.mu.Unlock()

	if replaced {
		if stopOld != nil {
			stopOld()
		}
		r.onLeave(name, "replaced")
	}
	return true
}

// expire is m's eviction timer: it removes m if m is still the registered
// member under its name and its deadline has passed (a heartbeat may have
// moved it while the timer fired), and reports the eviction outside the
// lock.
func (r *registry) expire(m *member) {
	r.mu.Lock()
	if r.members[m.name] != m || time.Now().Before(m.deadline) {
		r.mu.Unlock()
		return
	}
	delete(r.members, m.name)
	cancel := m.cancel
	r.evicting.Add(1)
	r.mu.Unlock()
	defer r.evicting.Done()

	r.evictions.Add(1)
	if cancel != nil {
		cancel()
	}
	r.onLeave(m.name, "evicted")
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

// close empties the table, stops every eviction timer and tailer, and
// waits for any eviction already under way.
func (r *registry) close() {
	r.mu.Lock()
	r.closed = true
	cancels := make([]context.CancelFunc, 0, len(r.members))
	for _, m := range r.members {
		if m.evict != nil {
			m.evict.Stop()
		}
		if m.cancel != nil {
			cancels = append(cancels, m.cancel)
		}
	}
	r.members = make(map[string]*member)
	r.mu.Unlock()

	r.evicting.Wait()
	for _, c := range cancels {
		c()
	}
}
