package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
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
	// Response relays the member's own JSON reply to the attempt this
	// result describes, so the caller can see exactly what each member
	// applied (or rejected). It is re-indented into the fan-out document
	// (same values, the document's layout); a reply that is not JSON is
	// dropped.
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
		results := eachMember(members, func(m memberSnap) relayed {
			return s.postMember(m, path, ctype, body)
		})
		s.fanoutFailures.Add(int64(writeFanout(w, path, results)))
	}
}

// postMember POSTs one mutation to one member with per-attempt timeout and
// doubling backoff. Transport errors and 5xx responses are retried; a 4xx
// is the member deterministically rejecting the document, so it is
// reported immediately — retrying a rejection cannot converge the fleet.
// The result describes the last attempt made, and only that attempt's
// reply is rendered: a retry that got no status line relays no response.
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
func (s *Server) postMember(m memberSnap, path, ctype string, body []byte) relayed {
	r := relayed{MemberResult: MemberResult{Member: m.Name, URL: m.URL}}
	res := &r.MemberResult
	reply := getBuffer() // the reply to the attempt res describes
	defer putBuffer(reply)
	attempts := 1 + s.opts.Retries
	backoff := s.opts.Backoff
retry:
	for attempt := 1; attempt <= attempts; attempt++ {
		res.Attempts = attempt
		if attempt > 1 {
			select {
			case <-s.baseCtx.Done():
				res.Error = "coordinator is shutting down"
				break retry
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		reply.Reset()
		status, err := s.doMember(http.MethodPost, m.URL+path, ctype, body, reply)
		if status == 0 {
			// No status line came back: the member is unreachable.
			res.Status, res.Error = 0, err.Error()
			s.reg.setHealth(m.Name, false, err.Error(), false)
			continue
		}
		res.Status = status
		if status >= 200 && status < 300 {
			// The member applied the mutation; a truncated success body
			// only loses the relayed response, not the outcome.
			res.Error = ""
			s.reg.setHealth(m.Name, true, "", true)
			break
		}
		if err != nil {
			res.Error = fmt.Sprintf("member returned status %d (body read failed: %v)", status, err)
		} else {
			res.Error = fmt.Sprintf("member returned status %d", status)
		}
		s.reg.setHealth(m.Name, true, res.Error, true)
		if status >= 400 && status < 500 {
			break
		}
	}
	r.render(reply.Bytes())
	return r
}

// relayed is one member's result with its reply rendered for the fan-out
// document, which postMember does in the member's own goroutine.
type relayed struct {
	MemberResult
	reply *bytes.Buffer // nil when the reply is not relayed
	deep  bool          // the reply nests too deep for any fan-out document
}

// writeFanout answers the fan-out document of results and returns how many
// members failed. The bytes are what ctl.WriteJSON writes for that
// FanoutResponse with each reply in its Response field, but no reply is
// encoded again: the envelope is encoded with the marker 0 in place of
// each reply, and the rendered replies are spliced in at the markers.
// Inside an encoded string every quote is escaped, so `"response": 0` can
// only be such a field.
func writeFanout(w http.ResponseWriter, path string, results []relayed) int {
	resp := FanoutResponse{Path: path, Members: len(results)}
	var replies []*bytes.Buffer // in document order: applied, then failed
	deep := false
	for _, applied := range []bool{true, false} {
		for _, r := range results {
			if (r.Error == "") != applied {
				continue
			}
			if r.reply != nil {
				r.Response = replyMarker
				replies = append(replies, r.reply)
			}
			deep = deep || r.deep
			if applied {
				resp.Applied = append(resp.Applied, r.MemberResult)
			} else {
				resp.Failed = append(resp.Failed, r.MemberResult)
			}
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

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	env, out := getBuffer(), getBuffer()
	defer func() {
		for _, b := range append(replies, env, out) {
			putBuffer(b)
		}
	}()
	enc := json.NewEncoder(env)
	enc.SetIndent("", "  ")
	if deep || enc.Encode(resp) != nil {
		return len(resp.Failed) // the encoder refuses a document that deep: no body
	}
	doc := env.Bytes()
	for _, b := range replies {
		at := bytes.Index(doc, markerField) + len(markerField) - len(replyMarker)
		out.Write(doc[:at])
		out.Write(b.Bytes())
		doc = doc[at+len(replyMarker):]
	}
	out.Write(doc)
	w.Write(out.Bytes()) //nolint:errcheck // client gone
	return len(resp.Failed)
}

// replyMarker stands in for a rendered reply in the encoded envelope.
var (
	replyMarker = json.RawMessage("0")
	markerField = []byte(`"response": 0`)
)

// maxPooledBuffer keeps one outsized reply from pinning its storage.
const maxPooledBuffer = 4 << 20

var bufferPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuffer() *bytes.Buffer {
	b := bufferPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		bufferPool.Put(b)
	}
}

// render sets r's reply to body as the fan-out document holds it: what
// the indenting encoder makes of json.RawMessage(body) in a member object,
// the body indented three levels down and HTML-escaped as the encoder
// escapes it. json.Indent validates as it indents, so a reply that is not
// JSON is dropped; it drops the whitespace before the value but keeps what
// follows it, so that is trimmed first. Escaping comes after validation,
// since escaping `"\<"` would make it valid, and only when there is
// something to escape.
func (r *relayed) render(body []byte) {
	body = bytes.TrimRight(body, " \t\r\n")
	// encoding/json refuses a document nested over 10000 levels, which a
	// valid reply nested over 9997 makes. Only a reply with that many
	// brackets is validated where the document puts it.
	if bytes.Count(body, []byte("["))+bytes.Count(body, []byte("{")) > 10000-3 && json.Valid(body) &&
		!json.Valid(slices.Concat([]byte("[[["), body, []byte("]]]"))) {
		r.deep = true
		return
	}
	b := getBuffer()
	if json.Indent(b, body, "      ", "  ") != nil {
		putBuffer(b)
		return
	}
	if s := b.Bytes(); bytes.IndexByte(s, '<') >= 0 || bytes.IndexByte(s, '>') >= 0 || bytes.IndexByte(s, '&') >= 0 ||
		bytes.Contains(s, []byte("\u2028")) || bytes.Contains(s, []byte("\u2029")) {
		e := getBuffer()
		json.HTMLEscape(e, s)
		putBuffer(b)
		b = e
	}
	r.reply = b
}
