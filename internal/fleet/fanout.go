package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"capi/internal/ctl"
)

// MemberResult is one member's outcome of a fan-out mutation.
type MemberResult struct {
	Member   string `json:"member"`
	URL      string `json:"url"`
	Status   int    `json:"status,omitempty"` // last HTTP status seen, 0 on transport failure
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
	// Response relays the member's own JSON response verbatim, so the
	// caller can see exactly what each member applied (or rejected).
	Response json.RawMessage `json:"response,omitempty"`
}

// FanoutResponse reports a cluster-wide mutation: which members applied it
// and which did not. The HTTP status encodes the split — 200 all applied,
// 207 partial (Divergent true), 502 none, 503 empty fleet. The fleet is
// divergent whenever some but not all members applied: callers that need
// convergence must retry or evict the failed members themselves.
type FanoutResponse struct {
	Path      string         `json:"path"`
	Members   int            `json:"members"`
	Divergent bool           `json:"divergent"`
	Applied   []MemberResult `json:"applied"`
	Failed    []MemberResult `json:"failed,omitempty"`
}

// fanoutHandler returns the handler that replays the request body to the
// named control path on every live member.
func (s *Server) fanoutHandler(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			ctl.WriteFieldErr(w, ctl.BodyErrStatus(err), "body", "reading request: %v", err)
			return
		}
		members := s.reg.snapshot()
		if len(members) == 0 {
			ctl.WriteErr(w, http.StatusServiceUnavailable, "fleet has no members")
			return
		}
		s.fanouts.Add(1)

		// Relay the caller's Content-Type: /v1/select distinguishes raw
		// spec source (text/plain) from JSON documents by it.
		ctype := r.Header.Get("Content-Type")
		if ctype == "" {
			ctype = "application/json"
		}
		results := eachMember(members, func(m memberSnap) MemberResult {
			return s.postMember(m, path, ctype, body)
		})

		resp := FanoutResponse{Path: path, Members: len(members)}
		for _, res := range results {
			if res.Error == "" {
				resp.Applied = append(resp.Applied, res)
			} else {
				resp.Failed = append(resp.Failed, res)
				s.fanoutFailures.Add(1)
			}
		}

		code := http.StatusOK
		switch {
		case len(resp.Applied) == 0:
			code = http.StatusBadGateway
		case len(resp.Failed) > 0:
			code = http.StatusMultiStatus
			resp.Divergent = true
		}
		ctl.WriteJSON(w, code, resp)
	}
}

// postMember POSTs one mutation to one member with per-attempt timeout and
// doubling backoff. Transport errors and 5xx responses are retried; a 4xx
// is the member deterministically rejecting the document, so it is
// reported immediately — retrying a rejection cannot converge the fleet.
//
// Health classification separates "reachable" from "applied": any response
// carrying an HTTP status proves the member is alive, so only a transport
// failure (no status received) marks it unhealthy. A member that answers
// but rejects or fails the mutation stays healthy with the fan-out error
// recorded as its lastErr — it is scrapeable even though divergent.
// Classification itself is by status code whenever one was received: a
// body-read failure after the status line is response truncation, not
// unreachability, so a truncated 4xx is still a deterministic rejection
// and must not be retried.
func (s *Server) postMember(m memberSnap, path, ctype string, body []byte) MemberResult {
	res := MemberResult{Member: m.Name, URL: m.URL}
	attempts := 1 + s.opts.Retries
	backoff := s.opts.Backoff
	for attempt := 1; attempt <= attempts; attempt++ {
		res.Attempts = attempt
		if attempt > 1 {
			select {
			case <-s.baseCtx.Done():
				res.Error = "coordinator is shutting down"
				return res
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		status, respBody, err := s.doMember(http.MethodPost, m.URL+path, ctype, body)
		if status == 0 {
			// No status line came back: the member is unreachable.
			res.Status, res.Error = 0, err.Error()
			s.reg.setHealth(m.Name, false, err.Error(), false)
			continue
		}
		res.Status = status
		res.Response = jsonOrNil(respBody)
		if status >= 200 && status < 300 {
			// The member applied the mutation; a truncated success body
			// only loses the relayed response, not the outcome.
			res.Error = ""
			s.reg.setHealth(m.Name, true, "", true)
			return res
		}
		if err != nil {
			res.Error = fmt.Sprintf("member returned status %d (body read failed: %v)", status, err)
		} else {
			res.Error = fmt.Sprintf("member returned status %d", status)
		}
		s.reg.setHealth(m.Name, true, res.Error, true)
		if status >= 400 && status < 500 {
			return res
		}
	}
	return res
}

// jsonOrNil relays b only when it is valid JSON — the fan-out response is
// itself JSON, and a member replying with a non-JSON body must not be able
// to corrupt it.
func jsonOrNil(b []byte) json.RawMessage {
	if json.Valid(b) {
		return json.RawMessage(b)
	}
	return nil
}
