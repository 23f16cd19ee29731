package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	capi "capi"
	"capi/internal/ctl"
)

// templateNames are n function names heavy in the bytes encoding/json
// escapes, as TestWriteJSONMatchesEncoder builds them in internal/ctl.
func templateNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "Foam::fvMatrix<Type>::solve(" + strings.Repeat("&", i%7) + ")"
	}
	return names
}

// selectReply is a member's POST /v1/select reply naming n functions, as
// the member's indenting encoder writes it; with escapeHTML false the
// names keep their raw <, > and &.
func selectReply(tb testing.TB, n int, escapeHTML bool) []byte {
	tb.Helper()
	names := templateNames(n)
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(escapeHTML)
	err := enc.Encode(ctl.SelectResponse{
		Report:   capi.ReconfigReport{Seq: 1, Patched: n, Active: n, AddedNames: names, RemovedNames: names[:5]},
		Active:   n,
		Backends: []string{"talp"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// relayMember is one member of a relay case: its result and its reply.
type relayMember struct {
	res  MemberResult
	body []byte
}

// oracle is the fan-out document as ctl.WriteJSON writes it: an indenting
// encoder over the FanoutResponse with each member's body relayed as a
// json.RawMessage when it is valid JSON. A document the encoder refuses
// has no body.
func oracle(path string, members []relayMember) (int, []byte) {
	resp := FanoutResponse{Path: path, Members: len(members)}
	for _, m := range members {
		res := m.res
		if json.Valid(m.body) {
			res.Response = json.RawMessage(m.body)
		}
		if res.Error == "" {
			resp.Applied = append(resp.Applied, res)
		} else {
			resp.Failed = append(resp.Failed, res)
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
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if enc.Encode(resp) != nil {
		return code, nil
	}
	return code, b.Bytes()
}

// checkRelay renders every member's body as its fan-out goroutine does,
// writes the document, and compares it with the oracle's.
func checkRelay(t *testing.T, path string, members []relayMember) {
	t.Helper()
	results := make([]relayed, len(members))
	wantFailed := 0
	for i, m := range members {
		results[i].MemberResult = m.res
		results[i].render(m.body)
		if m.res.Error != "" {
			wantFailed++
		}
	}
	rec := httptest.NewRecorder()
	failed := writeFanout(rec, path, results)
	code, want := oracle(path, members)
	if rec.Code != code || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("status %d, content type %q; want %d, application/json", rec.Code, rec.Header().Get("Content-Type"), code)
	}
	if failed != wantFailed {
		t.Errorf("counted %d failed members, want %d", failed, wantFailed)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		at := 0
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		t.Fatalf("document differs from the encoder's at byte %d of %d:\n got %.120q\nwant %.120q",
			at, len(want), got[at:], want[at:])
	}
}

// relayBody is a member reply the equivalence test and the fuzz corpus
// start from.
type relayBody struct {
	name string
	body []byte
}

func relayBodies(tb testing.TB) []relayBody {
	return []relayBody{
		{"object", []byte(`{"report":{"Seq":3},"active":12}`)},
		{"html", []byte(`{"error":"spec:1:4: want <name> & got >"}`)},
		{"line separators", []byte("{\"a\":\"x\u2028y\u2029z\",\"b\":[\"\u2028\"]}")},
		{"invalid", []byte(`{"report":`)},
		{"text", []byte("service unavailable\n")},
		{"bad escape", []byte(`"\<"`)},
		{"bad escape 2028", []byte("[\"\\\u2028\"]")},
		{"empty", []byte{}},
		{"whitespace only", []byte(" \r\n\t ")},
		{"padded", []byte(" \n\t{ \"a\" : [ 1 , 2 , { } , [ ] ] ,\n\"b\":\"  \" }\r\n \t")},
		{"number", []byte("-12.5e3")},
		{"padded number", []byte(" 7 \n")},
		{"string", []byte(`"busy"`)},
		{"true", []byte("true")},
		{"null", []byte("null")},
		{"empty containers", []byte(`[{},[],{"a":{}},[[]]]`)},
		{"deep", []byte(strings.Repeat(`{"a":[`, 150) + "0" + strings.Repeat("]}", 150))},
		{"select escaped", selectReply(tb, 3000, true)},
		{"select raw", selectReply(tb, 3000, false)},
	}
}

// TestFanoutRelayMatchesEncoder: the spliced fan-out document is byte for
// byte what the indenting encoder writes for the same FanoutResponse, for
// every reply shape and every applied/failed split, and a reply that is
// not JSON is still omitted.
func TestFanoutRelayMatchesEncoder(t *testing.T) {
	applied := MemberResult{Member: "alpha", URL: "http://127.0.0.1:7071", Status: 200, Attempts: 1}
	failed := MemberResult{Member: "beta", URL: "http://127.0.0.1:7072", Status: 503, Attempts: 3,
		Error: `member returned status 503 ("response": 0 <&>)`}
	for _, c := range relayBodies(t) {
		t.Run(c.name, func(t *testing.T) {
			checkRelay(t, "/v1/select", []relayMember{{applied, c.body}})
			checkRelay(t, "/v1/select", []relayMember{{failed, c.body}})
			checkRelay(t, "/v1/sampling", []relayMember{{applied, c.body}, {failed, c.body}, {applied, nil}, {failed, []byte(`{"ok":1}`)}})
		})
	}
	t.Run("no members", func(t *testing.T) { checkRelay(t, "/v1/adapt", nil) })
	t.Run("nothing relayed", func(t *testing.T) {
		checkRelay(t, "/v1/adapt", []relayMember{{failed, nil}, {MemberResult{Member: "gamma", Error: "EOF"}, nil}})
	})
}

// TestFanoutRelayTooDeep: encoding/json gives up on a document nested
// more than 10000 levels, and ctl.WriteJSON then writes the status line
// with no body. A reply three levels down that nests 9998 deep is valid on
// its own but makes such a document, so the fan-out writes no body either.
// (The encoder is not run here: it indents to the failing level first,
// which for this reply is about 100 MB.)
func TestFanoutRelayTooDeep(t *testing.T) {
	res := MemberResult{Member: "alpha", URL: "http://a", Status: 200, Attempts: 1}
	for _, depth := range []int{9998, 10000} {
		body := []byte(strings.Repeat("[", depth) + strings.Repeat("]", depth))
		doc, err := json.Marshal(FanoutResponse{Applied: []MemberResult{{Response: body}}})
		if !json.Valid(body) || err != nil || json.Valid(doc) {
			t.Fatalf("depth %d: body valid %v, document %v valid %v; want a valid body in an invalid document",
				depth, json.Valid(body), err, json.Valid(doc))
		}
		r := relayed{MemberResult: res}
		r.render(body)
		rec := httptest.NewRecorder()
		writeFanout(rec, "/v1/select", []relayed{r})
		if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
			t.Errorf("depth %d: status %d with a %d-byte body, want 200 and none", depth, rec.Code, rec.Body.Len())
		}
	}
	// A shallow reply fits, and one nested past 10000 is not JSON: neither
	// empties the document.
	shallow := strings.Repeat("[", 50) + strings.Repeat("]", 50)
	for _, body := range []string{shallow, strings.Repeat("[", 10001) + strings.Repeat("]", 10001)} {
		checkRelay(t, "/v1/select", []relayMember{{res, []byte(body)}})
	}
}

// FuzzFanoutRelay: for any member reply and any shape of fan-out (which
// members applied, their statuses, attempts, names, URLs and errors), the
// spliced document equals the indenting encoder's bytes.
func FuzzFanoutRelay(f *testing.F) {
	for _, c := range relayBodies(f) {
		f.Add(c.body, []byte{0, 3, 9, 42}, "alpha", "http://127.0.0.1:7071", "EOF")
	}
	f.Add([]byte(`{"a":1}`), []byte{}, "m", "http://m", "")     // no members
	f.Add([]byte(`{"a":1}`), []byte{1, 1}, "m", "http://m", "") // nothing applied
	f.Add([]byte(`{"a":1}`), []byte{0, 8}, "m", "http://m", "") // nothing failed
	f.Add([]byte(`{"a":1}`), []byte{5, 6, 7}, `"response": 0`, `"response": 0 </script>`, "a\"b\u2028")
	f.Fuzz(func(t *testing.T, body, shape []byte, member, url, errText string) {
		if len(shape) > 6 {
			shape = shape[:6]
		}
		members := make([]relayMember, len(shape))
		for i, b := range shape {
			m := relayMember{res: MemberResult{
				Member:   fmt.Sprintf("%s%d", member, i),
				URL:      url,
				Status:   []int{0, 200, 207, 400, 503}[int(b>>3)%5],
				Attempts: 1 + int(b>>6),
			}}
			if b&1 != 0 {
				m.res.Error = fmt.Sprintf("member returned status %d: %s", m.res.Status, errText)
			}
			switch b & 6 {
			case 0:
				m.body = body
			case 2:
				m.body = nil
			case 4:
				m.body = append(append([]byte(" \n"), body...), "\t "...)
			case 6:
				m.body = []byte(`{"error":` + fmt.Sprintf("%q", errText) + `}`)
			}
			members[i] = m
		}
		checkRelay(t, "/v1/select", members)
	})
}

// BenchmarkFanoutRelay times one POST /v1/select fan-out through a
// coordinator over three members that each answer with a select reply of
// about 75 KB: what the coordinator spends relaying the replies, with the
// members' own work reduced to writing a prepared body.
func BenchmarkFanoutRelay(b *testing.B) {
	reply := selectReply(b, 1100, true)
	var urls []string
	for range 3 {
		m := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/select" {
				http.NotFound(w, r) // the coordinator's event tailer
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(reply) //nolint:errcheck
		}))
		b.Cleanup(m.Close)
		urls = append(urls, m.URL)
	}
	coord, err := New(Options{Members: urls, ProbeInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(coord.Close)
	ts := httptest.NewServer(coord)
	b.Cleanup(ts.Close)
	b.SetBytes(int64(3 * len(reply)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		resp, err := http.Post(ts.URL+"/v1/select", "application/json", strings.NewReader(`{"builtin":"mpi"}`))
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n < int64(3*len(reply)) {
			b.Fatalf("fan-out: status %d, %d bytes", resp.StatusCode, n)
		}
	}
}
