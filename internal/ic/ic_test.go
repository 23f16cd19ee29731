package ic

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
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
// only read, so goroutines may share it (run under -race), and whose
// Contains answers exactly what Include lists.
func TestConfigSharedReadOnly(t *testing.T) {
	names := []string{"y", "x", "", "y", "w", "x"}
	base := New("app", "s", names)
	var buf bytes.Buffer
	if err := base.WithIncludeIDs([]int32{9, 7, 9}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	probeNames := append([]string{"q", "a", "z"}, names...)
	for _, c := range []*Config{
		base,
		New("app", "s", []string{"", ""}),
		base.WithIncludeIDs([]int32{9, 3, 9, 7, 3}),
		New("app", "s", nil).WithIncludeIDs([]int32{1 << 30, -1}),
		read,
	} {
		if !slices.IsSorted(c.Include) || len(slices.Compact(slices.Clone(c.Include))) != len(c.Include) || slices.Contains(c.Include, "") {
			t.Fatalf("Include %q is not sorted, duplicate-free and without \"\"", c.Include)
		}
		if !slices.IsSorted(c.IncludeIDs) || len(slices.Compact(slices.Clone(c.IncludeIDs))) != len(c.IncludeIDs) {
			t.Fatalf("IncludeIDs %v are not sorted and duplicate-free", c.IncludeIDs)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, n := range probeNames {
					if c.Contains(n) != slices.Contains(c.Include, n) {
						t.Errorf("Contains(%q) = %v over Include %q", n, c.Contains(n), c.Include)
					}
				}
			}()
		}
		wg.Wait()
	}
	if !slices.Equal(base.Include, []string{"w", "x", "y"}) {
		t.Fatalf("New(%q).Include = %q", names, base.Include)
	}
	if !slices.Equal(read.Include, base.Include) || !slices.Equal(read.IncludeIDs, []int32{7, 9}) {
		t.Fatalf("ReadJSON = %q %v", read.Include, read.IncludeIDs)
	}
	// An append by one holder must not reach storage another holder shares.
	if n := New("app", "s", []string{"a", "b", "c"}); cap(n.Include) != len(n.Include) {
		t.Fatalf("Include has spare capacity %d", cap(n.Include)-len(n.Include))
	}
}

// TestWithIncludeIDsSharesInclude: attaching IDs copies the ID list, not
// the names, so its cost does not grow with the IC.
func TestWithIncludeIDsSharesInclude(t *testing.T) {
	names := make([]string, 4096)
	for i := range names {
		names[i] = fmt.Sprintf("fn%05d", i)
	}
	c := New("app", "s", names)
	ids := []int32{5, 3, 5, 1}
	// The Config and the ID list.
	const want = 2
	if allocs := testing.AllocsPerRun(20, func() { c.WithIncludeIDs(ids) }); allocs > want {
		t.Fatalf("WithIncludeIDs on a %d-name IC made %.0f allocations, want at most %d", c.Len(), allocs, want)
	}
	if out := c.WithIncludeIDs(ids); &out.Include[0] != &c.Include[0] || !slices.Equal(ids, []int32{5, 3, 5, 1}) {
		t.Fatal("WithIncludeIDs copied Include or sorted the caller's IDs")
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

// TestScorePFilterRoundTrip pins the Score-P filter the writer emits:
// everything excluded, then each included function, sorted.
func TestScorePFilterRoundTrip(t *testing.T) {
	c := New("of", "kernels", []string{"solve", "Amul", "sumProd", "Amul"})
	var buf bytes.Buffer
	if err := c.WriteScorePFilter(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# IC for app "of", spec "kernels" (generated by capi-go)
SCOREP_REGION_NAMES_BEGIN
  EXCLUDE *
  INCLUDE MANGLED Amul
  INCLUDE MANGLED solve
  INCLUDE MANGLED sumProd
SCOREP_REGION_NAMES_END
`
	if got := buf.String(); got != want {
		t.Fatalf("filter file:\n%s\nwant:\n%s", got, want)
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
	if out.Len() != 2 || !out.Contains("f") {
		t.Fatal("names not preserved")
	}
	if len(c.IncludeIDs) != 0 {
		t.Fatal("original mutated")
	}
}
