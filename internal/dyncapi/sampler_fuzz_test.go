package dyncapi

import (
	"testing"

	"capi/internal/ic"
	"capi/internal/vtime"
	"capi/internal/xray"
)

// rankCtx is a dispatch context on any rank ID, with its own clock.
type rankCtx struct {
	id  int
	clk vtime.Clock
}

func (c *rankCtx) RankID() int         { return c.id }
func (c *rankCtx) Clock() *vtime.Clock { return &c.clk }

// rankPairBackend counts delivered enters and exits and the open pairs of
// every (rank, function), indexed rank × functions + Index; split records an
// exit delivered without its enter.
type rankPairBackend struct {
	rt            *Runtime
	enters, exits int64
	open          []int
	split         int
}

func (b *rankPairBackend) at(tc xray.ThreadCtx, fn *ResolvedFunc) *int {
	return &b.open[tc.RankID()*b.rt.NumFuncs()+b.rt.Index(fn)]
}

func (b *rankPairBackend) Name() string { return "rank-pair" }
func (b *rankPairBackend) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	b.enters++
	*b.at(tc, fn)++
}
func (b *rankPairBackend) OnExit(tc xray.ThreadCtx, fn *ResolvedFunc) {
	b.exits++
	n := b.at(tc, fn)
	if *n--; *n < 0 {
		b.split++
	}
}
func (b *rankPairBackend) InitCost(int) int64 { return 0 }

// FuzzSamplerAccounting runs random per-rank enter/exit programs on 1, 2 or
// 4 ranks while whole tables (overrides only, a delivering default, a stride
// default, a min-duration default, a clear) and single-function overrides
// change between events. Each program byte is one step:
//
//	0x00-0x7f  enter function b&7 (mod 6) on rank b>>3&3 (mod ranks)
//	0x80-0xbf  exit the innermost open frame of that rank, if any
//	0xc0-0xdf  SetSampling: table b&7 (mod 5)
//	0xe0-0xff  SetFuncSampling on function b&7 (mod 6), policy b>>3&3
//
// and advances the rank's clock by 25 ns times its low nibble. Every rank
// then closes its open frames. After FlushSampling the books must balance:
// enters == delivered + sampled + suppressed + collapsed, the backend saw
// exactly the delivered enters and as many exits, and no pair was split.
func FuzzSamplerAccounting(f *testing.F) {
	b := buildSix(f)
	deep := make([]byte, 0, 160)
	for i := range 70 {
		deep = append(deep, byte(i%6))
	}
	deep = append(deep, 0xc2) // stride default at depth 70
	for range 70 {
		deep = append(deep, 0x80)
	}
	f.Add(uint8(0), deep)
	f.Add(uint8(1), []byte{0x00, 0x09, 0xc0, 0x01, 0x08, 0xc2, 0x81, 0x88, 0xc4, 0x80, 0x89, 0xc0, 0x00, 0x80})
	f.Add(uint8(2), []byte{0x00, 0x08, 0x10, 0x18, 0xc3, 0x01, 0x81, 0x01, 0x81, 0xe1, 0x02, 0x82, 0x02, 0x82, 0xe9, 0x1a, 0x9a, 0xf1, 0x1a, 0x9a, 0xc1, 0xc4})
	f.Add(uint8(1), []byte{0xc3, 0x02, 0x82, 0x02, 0x82, 0x02, 0x82, 0x0b, 0xf2, 0x0b, 0x8b, 0x8b, 0xe2, 0x8a})
	f.Fuzz(func(t *testing.T, rankSel uint8, prog []byte) {
		ranks := []int{1, 2, 4}[rankSel%3]
		proc, xr := setup(t, b)
		back := &rankPairBackend{}
		rt, err := New(proc, xr, ic.New("app", "s", sixFuncs), back, Options{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		back.rt, back.open = rt, make([]int, ranks*rt.NumFuncs())
		ids := make([]int32, len(sixFuncs))
		for i, name := range sixFuncs {
			ids[i] = packedOf(t, b, xr, proc, name)
		}
		tables := []SamplingConfig{
			{IDs: map[int32]SamplePolicy{ids[1]: {Stride: 2}}, Funcs: map[string]SamplePolicy{"dso_b": {MinDurationNs: 100}}},
			{Default: &SamplePolicy{Stride: 1}, IDs: map[int32]SamplePolicy{ids[4]: {Stride: 3}}},
			{Default: &SamplePolicy{Stride: 4}},
			{Default: &SamplePolicy{MinDurationNs: 150}},
			{},
		}
		policies := []*SamplePolicy{nil, {Stride: 3}, {MinDurationNs: 100}, {CollapseRedundant: true, RedundantGapNs: 300}}
		// A table from the start: enters before the first one are not
		// accounted, by design.
		if err := rt.SetSampling(tables[0]); err != nil {
			t.Fatal(err)
		}
		ctxs := make([]*rankCtx, ranks)
		stacks := make([][]int32, ranks)
		for r := range ctxs {
			ctxs[r] = &rankCtx{id: r}
		}
		for _, op := range prog {
			fn, r := int(op&7)%len(ids), int(op>>3&3)%ranks
			ctxs[r].clk.Advance(25 * int64(op&15))
			switch {
			case op < 0x80:
				stacks[r] = append(stacks[r], ids[fn])
				xr.Dispatch(ctxs[r], ids[fn], xray.Entry)
			case op < 0xc0:
				if n := len(stacks[r]); n > 0 {
					xr.Dispatch(ctxs[r], stacks[r][n-1], xray.Exit)
					stacks[r] = stacks[r][:n-1]
				}
			case op < 0xe0:
				if err := rt.SetSampling(tables[int(op&7)%len(tables)]); err != nil {
					t.Fatal(err)
				}
			default:
				if err := rt.SetFuncSampling(ids[fn], policies[op>>3&3]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for r, stack := range stacks {
			for i := len(stack) - 1; i >= 0; i-- {
				ctxs[r].clk.Advance(10)
				xr.Dispatch(ctxs[r], stack[i], xray.Exit)
			}
		}

		rt.FlushSampling(ranks)
		c := rt.SamplingSnapshot().Counters
		if got := c.Delivered + c.SampledEvents + c.SuppressedPairs + c.CollapsedCalls; got != c.Enters {
			t.Fatalf("delivered %d + sampled %d + suppressed %d + collapsed %d = %d != enters %d",
				c.Delivered, c.SampledEvents, c.SuppressedPairs, c.CollapsedCalls, got, c.Enters)
		}
		if back.enters != c.Delivered || back.exits != c.Delivered {
			t.Fatalf("backend saw %d enters and %d exits, sampler delivered %d", back.enters, back.exits, c.Delivered)
		}
		if back.split > 0 {
			t.Fatalf("%d exits delivered without their enter", back.split)
		}
		for i, n := range back.open {
			if n != 0 {
				t.Fatalf("rank %d: function %d left %d pairs open", i/rt.NumFuncs(), i%rt.NumFuncs(), n)
			}
		}
	})
}
