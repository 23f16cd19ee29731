package dyncapi

import (
	"fmt"
	"testing"

	"capi/internal/ic"
	"capi/internal/xray"
)

// FuzzPairStack checks pairStack against a []bool model over random push
// and pop runs. Each input byte is one run of 1 to 64 operations, so a few
// bytes nest past several spill words; pops past the bottom must report
// "no recorded enter" and leave the stack empty.
func FuzzPairStack(f *testing.F) {
	f.Add([]byte{0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0x7e, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0xfe, 0xfd, 0x03, 0xfe, 0xf9, 0xfe, 0xfc, 0x1f, 0xfe, 0xfc, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x01, 0x00, 0x01, 0x01, 0xfe, 0x03})
	f.Fuzz(func(t *testing.T, runs []byte) {
		var s pairStack
		var spill []uint64
		var model []bool
		for i, b := range runs {
			n := int(b>>2) + 1
			for j := 0; j < n; j++ {
				if b&1 == 0 {
					pass := (int(b>>1)+j)%3 != 0
					s.push(pass, &spill)
					model = append(model, pass)
					continue
				}
				pass, ok := s.pop(&spill)
				if len(model) == 0 {
					if ok {
						t.Fatalf("run %d: pop of an empty stack reported a recorded enter", i)
					}
					continue
				}
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if !ok || pass != want {
					t.Fatalf("run %d, depth %d: pop = (%v, %v), want (%v, true)", i, len(model)+1, pass, ok, want)
				}
			}
			if s.depth != len(model) {
				t.Fatalf("run %d: depth %d, model holds %d frames", i, s.depth, len(model))
			}
			if want := max(0, (len(model)-1)/64); len(spill) != want {
				t.Fatalf("run %d: %d spilled words at depth %d, want %d", i, len(spill), len(model), want)
			}
		}
	})
}

// TestNestedPairsBalance nests one function d frames deep on one rank, twice,
// and checks that every enter the backend receives gets its exit at every
// depth — past the inline word's 64 frames too — inline and async, with no
// policy, strided policies and a stride plus min-duration policy, whose
// suppressed pairs must account their exact durations.
func TestNestedPairsBalance(t *testing.T) {
	policies := []struct {
		name string
		p    *SamplePolicy
	}{
		{"none", nil},
		{"stride2", &SamplePolicy{Stride: 2}},
		{"stride3", &SamplePolicy{Stride: 3}},
		{"stride2+minDuration", &SamplePolicy{Stride: 2, MinDurationNs: 1_000_000}},
	}
	for _, async := range []bool{false, true} {
		for _, pol := range policies {
			for _, d := range []int{63, 64, 65, 128, 129, 300} {
				t.Run(fmt.Sprintf("async=%v/%s/depth%d", async, pol.name, d), func(t *testing.T) {
					checkNestedPairs(t, async, pol.p, d)
				})
			}
		}
	}
}

func checkNestedPairs(t *testing.T, async bool, p *SamplePolicy, d int) {
	back := &asyncLogBackend{}
	var (
		rt     *Runtime
		xr     *xray.Runtime
		tc     *fakeCtx
		kernel int32
	)
	if async {
		rt, xr, tc, kernel, _ = asyncSetup(t, back, 0)
	} else {
		b := buildProg(t)
		proc, x := setup(t, b)
		r, err := New(proc, x, ic.New("app", "test", []string{"kernel", "dso_fn"}), back, Options{Ranks: 1})
		if err != nil {
			t.Fatal(err)
		}
		rt, xr, tc, kernel = r, x, &fakeCtx{}, packedOf(t, b, x, proc, "kernel")
	}
	if p != nil {
		if err := rt.SetSampling(SamplingConfig{Default: p}); err != nil {
			t.Fatal(err)
		}
	}
	// Frame k of a round enters at 10k and exits at 10d + 10(d-1-k), so it
	// lasts 10(2d-1-2k) ns.
	stride := 1
	if p != nil && p.Stride > 1 {
		stride = p.Stride
	}
	var wantDelivered, wantSuppressedNs int64
	for round := 0; round < 2; round++ {
		for k := 0; k < d; k++ {
			xr.Dispatch(tc, kernel, xray.Entry)
			tc.Clock().Advance(10)
			if (round*d+k)%stride != 0 {
				continue
			}
			// Round 0 has no duration history; in round 1 every frame is
			// predicted by round 0's outermost frame, 10(2d-1) ns < 1 ms.
			if round == 1 && p != nil && p.MinDurationNs > 0 {
				wantSuppressedNs += int64(10 * (2*d - 1 - 2*k))
			} else {
				wantDelivered++
			}
		}
		for k := 0; k < d; k++ {
			xr.Dispatch(tc, kernel, xray.Exit)
			tc.Clock().Advance(10)
		}
	}
	rt.DrainPipeline()
	if en, ex := back.enters.Load(), back.exits.Load(); en != wantDelivered || ex != wantDelivered {
		t.Fatalf("backend saw %d enters and %d exits, want %d of each", en, ex, wantDelivered)
	}
	if p == nil {
		return
	}
	c := conserve(t, rt)
	if c.Enters != int64(2*d) || c.Delivered != wantDelivered || c.SuppressedNs != wantSuppressedNs {
		t.Fatalf("counters = %+v, want %d enters, %d delivered, %d suppressed ns", c, 2*d, wantDelivered, wantSuppressedNs)
	}
}
