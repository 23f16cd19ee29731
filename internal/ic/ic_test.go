package ic

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewDedupSort(t *testing.T) {
	c := New("app", "spec", []string{"b", "a", "b", "", "c"})
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if c.Include[0] != "a" || c.Include[1] != "b" || c.Include[2] != "c" {
		t.Fatalf("Include = %v", c.Include)
	}
	if !c.Contains("a") || c.Contains("z") || c.Contains("") {
		t.Fatal("Contains wrong")
	}
}

// TestConfigSharedReadOnly: every constructor returns a Config whose lookups
// only read, so goroutines may share it (run under -race).
func TestConfigSharedReadOnly(t *testing.T) {
	base := New("app", "s", []string{"x", "y"})
	var buf bytes.Buffer
	if err := base.WithIncludeIDs([]int32{9, 7, 9}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Config{base.WithIncludeIDs([]int32{7, 9}), base.WithIDs(map[string]int32{"x": 7, "y": 9}), read} {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !c.Contains("x") || c.Contains("q") || c.ContainsID(8) {
					t.Error("Contains wrong")
				}
				if !c.ContainsID(7) || !c.ContainsID(9) || len(c.IncludeIDs) != 2 {
					t.Errorf("IDs wrong: %v", c.IncludeIDs)
				}
			}()
		}
		wg.Wait()
	}
	// An append by one holder must not reach storage another holder shares.
	if n := New("app", "s", []string{"a", "b", "c"}); cap(n.Include) != len(n.Include) {
		t.Fatalf("Include has spare capacity %d", cap(n.Include)-len(n.Include))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := New("lulesh", "mpi", []string{"main", "CommSend"})
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.App != "lulesh" || c2.Spec != "mpi" || c2.Len() != 2 || !c2.Contains("CommSend") {
		t.Fatalf("round trip = %+v", c2)
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("nope")); err == nil {
		t.Fatal("expected error")
	}
}

func TestScorePFilterRoundTrip(t *testing.T) {
	c := New("of", "kernels", []string{"Amul", "solve", "sumProd"})
	var buf bytes.Buffer
	if err := c.WriteScorePFilter(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "SCOREP_REGION_NAMES_BEGIN") || !strings.Contains(text, "EXCLUDE *") {
		t.Fatalf("filter file malformed:\n%s", text)
	}
	c2, err := ReadScorePFilter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 3 || !c2.Contains("Amul") || !c2.Contains("solve") || !c2.Contains("sumProd") {
		t.Fatalf("parsed = %v", c2.Include)
	}
}

func TestScorePFilterErrors(t *testing.T) {
	cases := []string{
		"INCLUDE foo\n",                                          // outside block
		"EXCLUDE *\n",                                            // outside block
		"SCOREP_REGION_NAMES_END\n",                              // end without begin
		"SCOREP_REGION_NAMES_BEGIN\n",                            // missing end
		"SCOREP_REGION_NAMES_BEGIN\nGARBAGE x\n",                 // unknown directive
		"SCOREP_REGION_NAMES_BEGIN\nSCOREP_REGION_NAMES_BEGIN\n", // nested
	}
	for _, src := range cases {
		if _, err := ReadScorePFilter(strings.NewReader(src)); err == nil {
			t.Errorf("ReadScorePFilter(%q) should fail", src)
		}
	}
}

func TestScorePFilterIgnoresComments(t *testing.T) {
	src := "# header\nSCOREP_REGION_NAMES_BEGIN\n  EXCLUDE *\n# c\n  INCLUDE MANGLED f\nSCOREP_REGION_NAMES_END\n"
	c, err := ReadScorePFilter(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 || !c.Contains("f") {
		t.Fatalf("parsed = %v", c.Include)
	}
}

// Property: round-tripping any set of C-identifier-ish names through the
// Score-P filter format preserves membership.
func TestScorePFilterRoundTripProperty(t *testing.T) {
	sanitize := func(raw []string) []string {
		var out []string
		for _, s := range raw {
			var sb strings.Builder
			for _, r := range s {
				if r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
					sb.WriteRune(r)
				}
			}
			if sb.Len() > 0 {
				out = append(out, sb.String())
			}
		}
		return out
	}
	f := func(raw []string) bool {
		names := sanitize(raw)
		c := New("a", "s", names)
		var buf bytes.Buffer
		if err := c.WriteScorePFilter(&buf); err != nil {
			return false
		}
		c2, err := ReadScorePFilter(&buf)
		if err != nil {
			return false
		}
		if c2.Len() != c.Len() {
			return false
		}
		for _, n := range c.Include {
			if !c2.Contains(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiff(t *testing.T) {
	a := New("app", "s", []string{"a", "b", "c"})
	b := New("app", "s", []string{"b", "c", "d", "e"})
	added, removed := Diff(a, b)
	if len(added) != 2 || added[0] != "d" || added[1] != "e" {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != "a" {
		t.Fatalf("removed = %v", removed)
	}
	// nil configurations are empty sets.
	added, removed = Diff(nil, a)
	if len(added) != 3 || len(removed) != 0 {
		t.Fatalf("Diff(nil, a) = %v, %v", added, removed)
	}
	added, removed = Diff(a, nil)
	if len(added) != 0 || len(removed) != 3 {
		t.Fatalf("Diff(a, nil) = %v, %v", added, removed)
	}
	added, removed = Diff(a, a)
	if len(added) != 0 || len(removed) != 0 {
		t.Fatalf("Diff(a, a) = %v, %v", added, removed)
	}
}

func TestWithIncludeIDs(t *testing.T) {
	c := New("app", "s", []string{"f", "g"})
	out := c.WithIncludeIDs([]int32{9, 3, 9, 1})
	if len(out.IncludeIDs) != 3 || out.IncludeIDs[0] != 1 || out.IncludeIDs[1] != 3 || out.IncludeIDs[2] != 9 {
		t.Fatalf("IncludeIDs = %v", out.IncludeIDs)
	}
	if !out.ContainsID(3) || out.ContainsID(5) {
		t.Fatal("ContainsID wrong")
	}
	if out.Len() != 2 || !out.Contains("f") {
		t.Fatal("names not preserved")
	}
	if len(c.IncludeIDs) != 0 {
		t.Fatal("original mutated")
	}
}
