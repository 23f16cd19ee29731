package ctl

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// event is one server-sent event: a named JSON payload with a monotonic id.
type event struct {
	id   int64
	name string
	data []byte
}

// Hub fans named JSON events out to the connected SSE clients: this
// server's reconfigure/run notifications, and the fleet coordinator's
// multiplexed member feed. Publishing never blocks: a subscriber that
// cannot keep up loses events (its channel is bounded), which is the right
// trade for a control plane — the authoritative state is always one
// GET /v1/status away.
type Hub struct {
	mu     sync.Mutex
	next   int64                   //capi:guardedby mu
	closed bool                    //capi:guardedby mu
	subs   map[chan event]struct{} //capi:guardedby mu
}

// NewHub returns a hub with no subscribers.
func NewHub() *Hub {
	return &Hub{subs: map[chan event]struct{}{}}
}

func (h *Hub) subscribe() chan event {
	ch := make(chan event, 32)
	h.mu.Lock()
	if h.closed {
		close(ch) // the subscriber's receive fails immediately
	} else {
		h.subs[ch] = struct{}{}
	}
	h.mu.Unlock()
	return ch
}

// Shutdown disconnects every subscriber and refuses new ones, so SSE
// handlers return and http.Server.Shutdown can drain. Wire it up with
// srv.RegisterOnShutdown(ctlServer.Shutdown): Shutdown does not cancel
// in-flight request contexts, so without this an open `curl -N /v1/events`
// would block graceful shutdown until its timeout.
func (h *Hub) Shutdown() {
	h.mu.Lock()
	h.closed = true
	for ch := range h.subs {
		close(ch)
		delete(h.subs, ch)
	}
	h.mu.Unlock()
}

func (h *Hub) unsubscribe(ch chan event) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

// Clients is the number of connected subscribers.
func (h *Hub) Clients() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Publish delivers v, marshalled, to every subscriber without blocking. An
// event nobody is subscribed to takes its id and is not marshalled.
func (h *Hub) Publish(name string, v any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.next++
	if len(h.subs) == 0 {
		return
	}
	// Marshalled under the lock: ids reach every subscriber in order.
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	ev := event{id: h.next, name: name, data: data}
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // slow client: drop rather than stall the control plane
		}
	}
}

// handleEvents streams hub events as text/event-stream. Every live
// re-selection applied through POST /v1/select arrives as one "reconfigure"
// event carrying the ReconfigReport; completed phases arrive as "run"
// events carrying the RunSummary.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.hub.Stream(w, r, fmt.Sprintf("capi control plane, app %q", s.app))
}

// Stream serves one text/event-stream client until it disconnects or the
// hub shuts down: the preamble as an opening comment line, then every
// published event as an id:/event:/data: block.
func (h *Hub) Stream(w http.ResponseWriter, r *http.Request, preamble string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch := h.subscribe()
	defer h.unsubscribe(ch)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": %s\n\n", preamble)
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return // hub shut down
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.id, ev.name, ev.data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
