package fleet_test

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"capi/internal/ctl"
	"capi/internal/fleet"
)

// sseTail consumes a /v1/fleet/events stream in the background and hands
// decoded MemberEvents (and "fleet" lifecycle events) to the test.
type sseTail struct {
	events <-chan taggedEvent
	cancel func()
}

type taggedEvent struct {
	name string
	data string
}

func openFleetStream(t *testing.T, coordURL string) *sseTail {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, coordURL+"/v1/fleet/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("fleet events: status %d", resp.StatusCode)
	}
	ch := make(chan taggedEvent, 64)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		var name, data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if name != "" {
					ch <- taggedEvent{name, data}
				}
				name, data = "", ""
			case strings.HasPrefix(line, "event:"):
				name = strings.TrimSpace(line[len("event:"):])
			case strings.HasPrefix(line, "data:"):
				data = strings.TrimSpace(line[len("data:"):])
			}
		}
	}()
	tail := &sseTail{events: ch, cancel: func() { resp.Body.Close() }}
	t.Cleanup(tail.cancel)
	return tail
}

// waitFor drains the stream until an event satisfies pred or the deadline
// passes.
func (s *sseTail) waitFor(t *testing.T, what string, timeout time.Duration, pred func(taggedEvent) bool) taggedEvent {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-s.events:
			if !ok {
				t.Fatalf("stream closed waiting for %s", what)
			}
			if pred(ev) {
				return ev
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// restartableMember is a member whose HTTP server can die and come back
// on the same address — a capi serve process restart as the coordinator's
// tailer sees it.
type restartableMember struct {
	t    *testing.T
	addr string
	srv  *http.Server
	cp   *ctl.Server
	done chan struct{}
}

func (m *restartableMember) url() string { return "http://" + m.addr }

// start (re)binds the member's address and mounts a fresh control plane
// over the same live instance.
func (m *restartableMember) start(cp *ctl.Server) {
	m.t.Helper()
	ln, err := net.Listen("tcp", m.addr)
	if err != nil {
		m.t.Fatalf("rebinding %s: %v", m.addr, err)
	}
	m.addr = ln.Addr().String()
	m.cp = cp
	m.srv = &http.Server{Handler: cp}
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		m.srv.Serve(ln) //nolint:errcheck // closed on stop
	}()
}

// stop kills the member abruptly: open streams (the tailer's) drop.
func (m *restartableMember) stop() {
	m.cp.Shutdown() // ends streaming handlers so Close does not wait on them
	m.srv.Close()
	<-m.done
}

// TestSSEReconnect restarts a member mid-stream and pins the mux
// semantics: events before and after the restart arrive on one fleet
// subscription, every event carries the member tag, and closing the
// coordinator leaks no tailer goroutine. Run under -race this also
// exercises the hub/tailer/registry interleavings.
func TestSSEReconnect(t *testing.T) {
	session, inst := newQuickstart(t, 1)
	goroutinesBefore := runtime.NumGoroutine()

	rm := &restartableMember{t: t, addr: "127.0.0.1:0"}
	rm.start(ctl.New(session, inst, "quickstart"))

	opts := fastOpts()
	coord, err := fleet.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord)
	t.Cleanup(coordTS.Close)

	tail := openFleetStream(t, coordTS.URL)
	register(t, coordTS.URL, rm.url(), "phoenix")
	tail.waitFor(t, "registration lifecycle event", 5*time.Second, func(ev taggedEvent) bool {
		return ev.name == "fleet" && strings.Contains(ev.data, `"registered"`)
	})

	// A reconfigure on the member must surface on the fleet stream with
	// the member tag. The tailer connects asynchronously after the join,
	// so keep nudging until the relay is live. Nudges ride the member's
	// restart window, so a transiently failed POST (stale pooled
	// connection, listener not accepting yet) is retried, not fatal.
	nudge := func(body string) {
		resp, err := http.Post(rm.url()+"/v1/select", "application/json", strings.NewReader(body))
		if err != nil {
			http.DefaultClient.CloseIdleConnections()
			return
		}
		resp.Body.Close()
	}
	waitRelayed := func(what string) fleet.MemberEvent {
		t.Helper()
		var got fleet.MemberEvent
		deadline := time.Now().Add(10 * time.Second)
		for {
			nudge(`{"builtin":"mpi coarse"}`)
			nudge(`{"builtin":"mpi"}`)
			found := false
			timeout := time.After(200 * time.Millisecond)
		drain:
			for {
				select {
				case ev, ok := <-tail.events:
					if !ok {
						t.Fatalf("stream closed waiting for %s", what)
					}
					if ev.name != "reconfigure" {
						continue
					}
					if err := json.Unmarshal([]byte(ev.data), &got); err != nil {
						t.Fatalf("decoding relayed event %q: %v", ev.data, err)
					}
					found = true
					break drain
				case <-timeout:
					break drain
				}
			}
			if found {
				return got
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	ev := waitRelayed("relayed reconfigure before restart")
	if ev.Member != "phoenix" {
		t.Fatalf("relayed event member = %q, want phoenix", ev.Member)
	}
	if len(ev.Data) == 0 {
		t.Fatal("relayed event carries no member document")
	}

	// Restart: same address, fresh HTTP server and control plane over the
	// same live instance. The tailer's stream drops, it backs off and
	// reconnects; events resume on the same fleet subscription, tagged.
	rm.stop()
	// The test client pooled connections to the dead server; drop them so
	// the nudge POSTs below dial the restarted one.
	http.DefaultClient.CloseIdleConnections()
	rm.start(ctl.New(session, inst, "quickstart"))

	ev = waitRelayed("relayed reconfigure after restart")
	if ev.Member != "phoenix" {
		t.Fatalf("post-restart event member = %q, want phoenix", ev.Member)
	}

	// Teardown must reap the tailer: Close blocks on the tailer WaitGroup,
	// and the goroutine count settles back to the baseline.
	tail.cancel()
	coordTS.Close()
	coord.Close()
	rm.stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		// Idle keep-alive connections hold read/write goroutines; drop
		// them so only a real tailer/hub leak can keep the count up.
		http.DefaultClient.CloseIdleConnections()
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after coordinator close",
				goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
