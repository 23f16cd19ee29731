package prog_test

import (
	"fmt"
	"testing"

	"capi/internal/prog"
	"capi/internal/workload"
)

// checkIndex holds p's name index to a map built from Funcs: every name is
// found at its position, Func returns that very function, and names the
// program does not define are not found.
func checkIndex(t *testing.T, p *prog.Program) {
	t.Helper()
	ref := make(map[string]int, p.NumFunctions())
	for i, f := range p.Funcs() {
		ref[f.Name] = i
	}
	for name, i := range ref {
		if got := p.Index(name); got != i || p.Func(name) != p.Funcs()[i] {
			t.Fatalf("%s: Index(%q) = %d, want %d", p.Name, name, got, i)
		}
	}
	for _, name := range []string{"", "no_such_function", p.Funcs()[0].Name + "x", " " + p.Funcs()[0].Name} {
		if _, defined := ref[name]; defined {
			continue
		}
		if got := p.Index(name); got != -1 || p.Func(name) != nil {
			t.Fatalf("%s: Index(%q) = %d for a name the program does not define", p.Name, name, got)
		}
	}
}

// TestProgramIndex: the open-addressed name index answers as a map would,
// for every name of the two generated applications and for names they do
// not define; AddFunc still refuses a duplicate; and the index holds at a
// load of one half, grows past it, and keeps two slots a function when the
// program is reserved to its size.
func TestProgramIndex(t *testing.T) {
	for _, p := range []*prog.Program{
		workload.OpenFOAM(workload.OpenFOAMOptions{Scale: 0.05}),
		workload.Lulesh(workload.LuleshOptions{}),
	} {
		checkIndex(t, p)
		first := p.Funcs()[0]
		n := p.NumFunctions()
		if err := p.AddFunc(&prog.Function{Name: first.Name, Unit: first.Unit}); err == nil || p.NumFunctions() != n || p.Index(first.Name) != 0 {
			t.Fatalf("%s: duplicate AddFunc(%q): %v, %d functions (was %d)", p.Name, first.Name, err, p.NumFunctions(), n)
		}
		if slots := prog.NameSlots(p); slots < 2*n {
			t.Errorf("%s: %d name slots for %d functions, load above one half", p.Name, slots, n)
		}
	}

	if got := prog.New("empty", "main").Index(""); got != -1 {
		t.Fatalf("an empty program finds \"\" at %d", got)
	}

	const n = 1000
	p := prog.New("full", "f0000")
	p.MustAddUnit("u", prog.Executable)
	p.Reserve(n)
	for i := range n {
		p.MustAddFunc(&prog.Function{Name: fmt.Sprintf("f%04d", i), Unit: "u"})
	}
	if slots := prog.NameSlots(p); slots != 2*n {
		t.Fatalf("%d functions reserved and added fill %d name slots, want %d", n, slots, 2*n)
	}
	checkIndex(t, p)
	p.MustAddFunc(&prog.Function{Name: "one_more", Unit: "u"})
	if slots := prog.NameSlots(p); 2*p.NumFunctions() > slots {
		t.Fatalf("%d functions in %d name slots after growing", p.NumFunctions(), slots)
	}
	checkIndex(t, p)

	grown := prog.New("grown", "f0000")
	grown.MustAddUnit("u", prog.Executable)
	for i := range n {
		grown.MustAddFunc(&prog.Function{Name: fmt.Sprintf("f%04d", i), Unit: "u"})
		if slots := prog.NameSlots(grown); 2*grown.NumFunctions() > slots {
			t.Fatalf("%d functions in %d name slots", grown.NumFunctions(), slots)
		}
	}
	checkIndex(t, grown)
}
