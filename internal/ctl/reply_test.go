package ctl

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	capi "capi"
)

// TestWriteJSONMatchesEncoder: the pooled encoder answers byte for byte what
// a fresh indenting json.Encoder on the ResponseWriter answered, whatever
// the previous reply left in its storage, from several handlers at once.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	names := make([]string, 3000)
	for i := range names {
		names[i] = "Foam::fvMatrix<Type>::solve(" + strings.Repeat("&", i%7) + ")"
	}
	st := goldenStatus()
	values := []any{
		SelectResponse{Report: capi.ReconfigReport{Seq: 1, AddedNames: names, RemovedNames: names[:5]}, Active: 3000, Backends: []string{"talp"}},
		map[string]string{"error": "compiling spec: spec:1:1: unexpected <EOF> & more", "field": "spec"},
		&st,
		SelectionResponse{Count: 2, Functions: []string{"a", "b"}},
		map[string]any{"started": true},
		[]int{},
		nil,
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i := range values {
					v := values[(i+g)%len(values)]
					var want bytes.Buffer
					enc := json.NewEncoder(&want)
					enc.SetIndent("", "  ")
					if err := enc.Encode(v); err != nil {
						t.Error(err)
						return
					}
					w := httptest.NewRecorder()
					WriteJSON(w, http.StatusAccepted, v)
					if w.Code != http.StatusAccepted || w.Header().Get("Content-Type") != "application/json" {
						t.Errorf("status %d, content type %q", w.Code, w.Header().Get("Content-Type"))
					}
					if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
						t.Errorf("value %d: reply differs from the encoder's:\n got %.200q\nwant %.200q", i, w.Body.Bytes(), want.Bytes())
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// A value that does not encode: the status line stands, the body is empty.
	w := httptest.NewRecorder()
	WriteJSON(w, http.StatusOK, map[string]any{"f": func() {}})
	if w.Body.Len() != 0 {
		t.Errorf("unencodable value wrote %q", w.Body.Bytes())
	}
}

// counted counts how often it is marshalled.
type counted struct{ n *atomic.Int64 }

func (c counted) MarshalJSON() ([]byte, error) {
	c.n.Add(1)
	return []byte(`"x"`), nil
}

// TestPublishWithoutSubscribers: an event nobody listens to is not marshalled
// but takes its id, so a subscriber that arrives later sees ids without a gap
// of its own making.
func TestPublishWithoutSubscribers(t *testing.T) {
	h := NewHub()
	var n atomic.Int64
	for i := 0; i < 3; i++ {
		h.Publish("reconfigure", counted{&n})
	}
	if n.Load() != 0 {
		t.Fatalf("marshalled %d events for no subscriber", n.Load())
	}
	ch := h.subscribe()
	for i := 0; i < 3; i++ {
		h.Publish("reconfigure", counted{&n})
	}
	if n.Load() != 3 {
		t.Fatalf("marshalled %d times for 3 events and one subscriber", n.Load())
	}
	for want := int64(4); want <= 6; want++ {
		if ev := <-ch; ev.id != want || string(ev.data) != `"x"` {
			t.Fatalf("event id %d data %s, want id %d", ev.id, ev.data, want)
		}
	}
	h.unsubscribe(ch)
	h.Publish("reconfigure", counted{&n})
	if n.Load() != 3 {
		t.Fatal("marshalled for a subscriber that left")
	}
}

// TestSubscriberAttachedMidRun drives POST /v1/select with a subscriber that
// attaches after two re-selections went unheard: every one after that arrives
// as one event, ids and sequence numbers consecutive from where they stand.
func TestSubscriberAttachedMidRun(t *testing.T) {
	sess, err := capi.NewAppSession("lulesh", 0)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Start(nil, capi.RunOptions{PatchAll: true, Backends: []string{"talp"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	srv := New(sess, inst, "lulesh")
	post := func(builtin string) SelectResponse {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/select", strings.NewReader(`{"builtin":"`+builtin+`"}`))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		var resp SelectResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil {
			t.Fatalf("select %s: %d %v %s", builtin, w.Code, err, w.Body.Bytes())
		}
		return resp
	}
	post("mpi")
	post("kernels")
	ch := srv.hub.subscribe()
	defer srv.hub.unsubscribe(ch)
	for i := 0; i < 6; i++ {
		resp := post([]string{"mpi", "kernels"}[i%2])
		ev := <-ch
		var rep capi.ReconfigReport
		if err := json.Unmarshal(ev.data, &rep); err != nil {
			t.Fatal(err)
		}
		if ev.name != "reconfigure" || ev.id != int64(3+i) || rep.Seq != 3+i || rep.Active != resp.Active {
			t.Fatalf("event %d: %s id %d seq %d active %d, reply says %d active", i, ev.name, ev.id, rep.Seq, rep.Active, resp.Active)
		}
	}
	if st := srv.status(); st.HTTPSelects != 8 || st.Reconfigs != 8 {
		t.Fatalf("status: %d selects, %d reconfigs", st.HTTPSelects, st.Reconfigs)
	}
}
