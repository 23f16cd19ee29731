package adapt

import (
	"testing"

	"capi/internal/dyncapi"
)

// hotSlow returns twoFuncSetup's runtime and controller, whose epoch
// boundary nothing reaches, and the resolved hot and slow: a test that calls
// the controller's methods directly sees exactly the events it hands it.
func hotSlow(t testing.TB) (*dyncapi.Runtime, *Controller, []*dyncapi.ResolvedFunc) {
	t.Helper()
	_, _, _, rt, c := twoFuncSetup(t, Options{Epoch: 1 << 62}, &dyncapi.CygBackend{})
	return rt, c, []*dyncapi.ResolvedFunc{rt.ByName("hot"), rt.ByName("slow")}
}

// TestControllerObserveAllocFree: once a function has fired, an enter/exit
// pair on a (rank, function) the controller has never seen allocates
// nothing — the open-call table is sized at Attach.
func TestControllerObserveAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	rt, c, fns := hotSlow(t)
	funcs, ranks := len(fns), rt.Ranks()
	tcs := make([]*fakeCtx, ranks)
	for r := range tcs {
		tcs[r] = &fakeCtx{rank: r}
	}
	for _, fn := range fns { // fire every function on rank 0
		c.OnEnter(tcs[0], fn)
		c.OnExit(tcs[0], fn)
	}
	next := 0 // walks the fresh pairs of ranks 1…ranks-1
	allocs := testing.AllocsPerRun((ranks-1)*funcs-1, func() {
		tc, fn := tcs[1+next/funcs], fns[next%funcs]
		next++
		c.OnEnter(tc, fn)
		tc.clk.Advance(100)
		c.OnExit(tc, fn)
	})
	if allocs != 0 {
		t.Fatalf("%.2f allocations per enter/exit pair on a fresh (rank, function), want 0", allocs)
	}
}

// pairingModel is the reference the controller's pairing is checked
// against: per-rank maps of open calls, created on a rank's first enter,
// exactly as the controller kept them before its table was dense.
type pairingModel struct {
	open                            []map[int]*openCall
	gen, completions, durNs, events []int64
}

func newPairingModel(funcs, ranks int) *pairingModel {
	return &pairingModel{
		open:        make([]map[int]*openCall, ranks),
		gen:         make([]int64, funcs),
		completions: make([]int64, funcs),
		durNs:       make([]int64, funcs),
		events:      make([]int64, funcs),
	}
}

func (m *pairingModel) enter(r, f int, now int64) {
	m.events[f]++
	if m.open[r] == nil {
		m.open[r] = map[int]*openCall{}
	}
	oc := m.open[r][f]
	if oc == nil {
		oc = &openCall{}
		m.open[r][f] = oc
	}
	if oc.depth == 0 || oc.gen != m.gen[f] {
		oc.depth, oc.startNs, oc.gen = 0, now, m.gen[f]
	}
	oc.depth++
}

func (m *pairingModel) exit(r, f int, now int64) {
	m.events[f]++
	if oc := m.open[r][f]; oc != nil && oc.depth > 0 {
		oc.depth--
		if oc.depth == 0 {
			m.durNs[f] += now - oc.startNs
			m.completions[f]++
		}
	}
}

func (m *pairingModel) newPhase(worldRanks int) {
	for r := range m.open[:worldRanks] {
		clear(m.open[r])
	}
}

// FuzzControllerPairing drives random per-rank programs — recursion,
// unmatched exits, deselection mid-call and phase boundaries — through the
// controller and compares every per-function accumulator with pairingModel
// after each step.
//
// The input is a list of (op, arg) byte pairs: arg picks the rank (arg %
// ranks) and the function (arg / ranks % funcs); op%8 is 0–2 enter, 3–5
// exit, 6 deselect and 7 a new phase of arg % (ranks+1) world ranks, whose
// clocks restart at zero; op/8 ns pass on the rank's clock first.
func FuzzControllerPairing(f *testing.F) {
	// hot and slow, on ranks 0–2
	const funcs, ranks = 2, 3

	f.Add([]byte{0, 0, 0, 0, 8, 0, 3, 0, 3, 0})                            // recursion on one rank
	f.Add([]byte{3, 1, 0, 1, 11, 1, 3, 1, 3, 1})                           // unmatched exits around a call
	f.Add([]byte{0, 2, 6, 2, 8, 2, 43, 2})                                 // deselected mid-call, re-entered, exited
	f.Add([]byte{0, 0, 1, 1, 7, 1, 3, 0, 20, 1, 7, 3, 3, 1})               // phase boundaries, world 1 then 3
	f.Add([]byte{0, 0, 0, 4, 0, 5, 16, 1, 11, 4, 19, 0, 3, 5, 3, 1, 3, 2}) // every rank and function, interleaved
	f.Add([]byte{6, 4, 0, 4, 0, 4, 6, 4, 3, 4, 3, 4, 255, 255})            // deselect between recursive frames
	rt, _, fns := hotSlow(f)
	f.Fuzz(func(t *testing.T, script []byte) {
		c := New(Options{Epoch: 1 << 62})
		c.Attach(rt)
		m := newPairingModel(funcs, ranks)
		tcs := make([]*fakeCtx, ranks)
		for r := range tcs {
			tcs[r] = &fakeCtx{rank: r}
		}
		for step := 0; step+1 < len(script); step += 2 {
			op, arg := script[step], int(script[step+1])
			r, fn := arg%ranks, arg/ranks%funcs
			tc := tcs[r]
			tc.clk.Advance(int64(op / 8))
			switch now := tc.clk.Now(); {
			case op%8 < 3:
				c.OnEnter(tc, fns[fn])
				m.enter(r, fn, now)
			case op%8 < 6:
				c.OnExit(tc, fns[fn])
				m.exit(r, fn, now)
			case op%8 == 6:
				c.OnDeselect(fns[fn])
				m.gen[fn]++
			default:
				world := arg % (ranks + 1)
				c.NewPhase(world)
				m.newPhase(world)
				for w := range tcs[:world] {
					tcs[w] = &fakeCtx{rank: w}
				}
			}
			for i, rf := range fns {
				st := c.stat(rf)
				got := [...]int64{st.completions.Load(), st.durNs.Load(), st.events.Load()}
				want := [...]int64{m.completions[i], m.durNs[i], m.events[i]}
				if got != want {
					t.Fatalf("step %d, f%d: [completions durNs events] = %v, model %v", step/2, i, got, want)
				}
			}
		}
	})
}
