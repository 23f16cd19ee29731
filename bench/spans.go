package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// Spans are recorded by the benchmark around its own calls into a layer;
// nothing inside the program is traced. A nil *tracer records nothing, which
// is how every end-to-end number is measured.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// The client side of a traced request names its span in these headers; the
// handler wrapper on the server side parents its own span under it.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

func (t *tracer) tag(r *http.Request, spanID int, req int64) {
	if t == nil {
		return
	}
	r.Header.Set(hdrSpan, strconv.Itoa(spanID))
	r.Header.Set(hdrReq, strconv.FormatInt(req, 10))
}

// wrap records a span around every request h serves, called name, or name
// followed by the request path when byPath is set. With a nil tracer it
// returns h itself, so the untraced run has no wrapper in its path.
func (t *tracer) wrap(name string, byPath bool, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		n := name
		if byPath {
			n += r.URL.Path
		}
		id := t.begin(n, parent, req)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// durations returns the length of every finished span called name, in ns.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per finished span called name, its duration minus the
// part covered by its direct children called child — the slowest child when
// slowest is set (children that ran in parallel), their sum otherwise.
func (t *tracer) selfTimes(name, child string, slowest bool) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := map[int]int64{}
	for _, s := range t.spans {
		if s.Name != child || s.End == 0 {
			continue
		}
		d := s.End - s.Start
		if slowest {
			covered[s.Parent] = max(covered[s.Parent], d)
		} else {
			covered[s.Parent] += d
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start-covered[s.ID]))
		}
	}
	return out
}

// adopt parents every root span called child under the span called parent
// whose interval contains it. It links the two sides of a hop that the
// benchmark cannot tag: the coordinator's own requests to its members.
func (t *tracer) adopt(parent, child string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var parents []span
	for _, s := range t.spans {
		if s.Name == parent && s.End > 0 {
			parents = append(parents, s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != child || s.Parent != 0 || s.End == 0 {
			continue
		}
		for _, p := range parents {
			if p.Start <= s.Start && s.End <= p.End {
				s.Parent, s.Req = p.ID, p.Req
				break
			}
		}
	}
}

// slowestChild returns, per finished span called name, the duration of its
// longest direct child called child.
func (t *tracer) slowestChild(name, child string) []float64 {
	total := t.durations(name)
	self := t.selfTimes(name, child, true)
	out := make([]float64, len(total))
	for i := range total {
		out[i] = total[i] - self[i]
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
