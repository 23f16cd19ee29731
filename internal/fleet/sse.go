package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Tailer reconnect backoff bounds: first retry after tailBackoffMin,
// doubling to tailBackoffMax while the member stays unreachable, reset on
// the next successful connection.
const (
	tailBackoffMin = 100 * time.Millisecond
	tailBackoffMax = 5 * time.Second
)

// MemberEvent is the payload of every relayed fleet SSE event: the origin
// member plus the member's own event document, verbatim. The event name
// ("reconfigure", "run", ...) is the member's own; coordinator lifecycle
// events use the name "fleet" with a lifecycleEvent payload instead.
type MemberEvent struct {
	Member string          `json:"member"`
	Data   json.RawMessage `json:"data"`
}

// tailMember follows one member's GET /v1/events stream for the member's
// whole registration, republishing each event on the fleet hub tagged
// with the member name. A dropped stream (member restart, network blip)
// is retried with doubling backoff; a successful reconnect resets the
// backoff, so a member that comes back after a restart resumes streaming
// within tailBackoffMax. ctx is canceled on eviction or Close — the
// goroutine never outlives either.
func (s *Server) tailMember(ctx context.Context, m *member) {
	defer s.wg.Done()
	backoff := tailBackoffMin
	for {
		if ctx.Err() != nil {
			return
		}
		connected := s.tailOnce(ctx, m)
		if ctx.Err() != nil {
			return
		}
		if connected {
			backoff = tailBackoffMin
		} else if backoff < tailBackoffMax {
			backoff *= 2
			if backoff > tailBackoffMax {
				backoff = tailBackoffMax
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
	}
}

// tailOnce opens one streaming connection and relays events until the
// stream ends. Returns whether the member accepted the stream (used for
// backoff reset); relaying zero events over a healthy stream still counts.
func (s *Server) tailOnce(ctx context.Context, m *member) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/v1/events", nil)
	if err != nil {
		return false
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}

	// Minimal text/event-stream parse: accumulate "event:"/"data:" fields,
	// dispatch on the blank separator line, ignore comments and ids (the
	// fleet assigns its own ids — member id sequences restart on member
	// restart and would collide across members).
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), maxBodyBytes)
	var name, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if name != "" && data != "" {
				m.events.Add(1)
				s.hub.Publish(name, MemberEvent{Member: m.name, Data: jsonOrNil([]byte(data))})
			}
			name, data = "", ""
		case strings.HasPrefix(line, "event:"):
			name = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(line[len("data:"):])
		}
	}
	return true
}

// handleEvents streams the multiplexed feed as text/event-stream: every
// member's "reconfigure"/"run"/... events wrapped in MemberEvent, plus
// the coordinator's own "fleet" lifecycle events (registered, evicted,
// replaced).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.hub.Stream(w, r, fmt.Sprintf("capi fleet mux, %d members", s.reg.count()))
}

// jsonOrNil relays b only when it is valid JSON — an event relayed on the
// fleet stream is itself JSON, and a member sending a non-JSON payload
// must not be able to corrupt it.
func jsonOrNil(b []byte) json.RawMessage {
	if json.Valid(b) {
		return json.RawMessage(b)
	}
	return nil
}
