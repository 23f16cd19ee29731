// Package exec is the execution engine: it interprets a compiled program
// (internal/compiler) on a simulated MPI world, advancing per-rank virtual
// clocks by the modelled work and firing XRay sleds exactly where the
// machine code would — patched entry/exit sleds dispatch to the registered
// handler through the trampoline, unpatched sleds cost a near-zero NOP
// execution (the paper confirms XRay's inactive overhead is negligible,
// §VI-C), and fully inlined functions execute their bodies inside the
// caller without any instrumentation points (§V-E).
//
// The engine runs the program's own ops (prog.Function.Ops) in place. A phase
// resolves, per function, only what the ops do not say: its layout, its sled
// object and packed XRay ID, and the function each of its call ops reaches.
package exec

import (
	"fmt"
	"sync/atomic"

	"capi/internal/compiler"
	"capi/internal/mpi"
	"capi/internal/obj"
	"capi/internal/prog"
	"capi/internal/vtime"
	"capi/internal/xray"
)

// StaticHandler receives events from statically instrumented functions
// (compiled-in hooks, the original CaPI workflow).
type StaticHandler func(tc xray.ThreadCtx, fn string, kind xray.EntryType)

// Virtual-time costs the engine charges itself; a patched sled additionally
// pays xray.DispatchCostNs per event.
const (
	// sledNopCost is the virtual cost of executing an unpatched sled — the
	// near-zero inactive overhead.
	sledNopCost = 1 * vtime.Nanosecond
	// callCost is the intrinsic cost of any function call.
	callCost = 2 * vtime.Nanosecond
)

// maxDepth bounds the simulated call stack: a recursion deeper than this is
// a runaway program model, reported as an error.
const maxDepth = 512

// Config assembles an executable engine.
type Config struct {
	Build *compiler.Build
	Proc  *obj.Process
	XRay  *xray.Runtime // nil for vanilla builds
	World *mpi.World

	// StaticHook receives events from statically instrumented functions.
	StaticHook StaticHandler
	// RankWorkSkew scales every OpWork duration per rank (index = rank),
	// modelling load imbalance: missing entries default to 1.0. The POP
	// load-balance metrics TALP reports come from this skew turning into
	// waiting time at collectives.
	RankWorkSkew []float64
}

// Task is the per-rank execution context; it implements xray.ThreadCtx and
// exposes the underlying MPI rank for backends that need it (TALP).
type Task struct {
	rank   *mpi.Rank
	skew   float64
	depth  int
	calls  int64
	events int64
}

// RankID implements xray.ThreadCtx.
func (t *Task) RankID() int { return t.rank.ID() }

// Clock implements xray.ThreadCtx.
func (t *Task) Clock() *vtime.Clock { return t.rank.Clock() }

// MPIRank returns the simulated MPI rank executing this task.
func (t *Task) MPIRank() *mpi.Rank { return t.rank }

// cfunc is a resolved function: the program's function with its layout,
// sled object and packed ID, and the target of each of its call ops in op
// order. Indirect calls are resolved to their single runtime target here;
// the static over-approximation lives only in the call graph.
type cfunc struct {
	f       *prog.Function
	lay     *compiler.FuncLayout
	lo      *obj.LoadedObject // nil when no patchable sled of it is mapped
	packed  int32
	callees []*cfunc
}

// Engine interprets one compiled program.
type Engine struct {
	cfg    Config
	funcs  []cfunc // at the program positions of their functions
	main   *cfunc
	inits  []*cfunc
	calls  atomic.Int64
	events atomic.Int64
}

// New resolves the program against the loaded process and XRay runtime.
func New(cfg Config) (*Engine, error) {
	if cfg.Build == nil || cfg.Proc == nil || cfg.World == nil {
		return nil, fmt.Errorf("exec: Build, Proc and World are required")
	}
	p := cfg.Build.Prog
	fns := p.Funcs()
	e := &Engine{cfg: cfg, funcs: make([]cfunc, len(fns))}
	n := 0
	for i, f := range fns {
		cf := &e.funcs[i]
		cf.f, cf.lay = f, &cfg.Build.Layout[i]
		if packed, ok := cfg.Build.PackedIDAt(i); ok && cfg.XRay != nil {
			objID, _ := xray.UnpackID(packed)
			if lo, ok := cfg.XRay.Object(objID); ok {
				cf.lo, cf.packed = lo, packed
			}
		}
		for _, op := range f.Ops {
			if op.Kind == prog.OpCall {
				n++
			}
		}
	}
	// Resolve call targets after all functions exist, into one slab: each
	// function's callees follow the previous function's.
	slab := make([]*cfunc, 0, n)
	for i, f := range fns {
		start := len(slab)
		for _, op := range f.Ops {
			if op.Kind != prog.OpCall {
				continue
			}
			target := op.Callee
			switch {
			case op.Virtual:
				target = p.RuntimeTarget(op)
				if target == "" {
					target = p.VirtualImpls[op.Callee][0]
				}
			case op.ViaPointer:
				target = p.RuntimeTarget(op)
				if target == "" {
					target = p.PointerTargets[op.Callee][0]
				}
			}
			at := p.Index(target)
			if at < 0 {
				return nil, fmt.Errorf("exec: %s calls unresolved %q", f.Name, target)
			}
			slab = append(slab, &e.funcs[at])
		}
		e.funcs[i].callees = slab[start:len(slab):len(slab)]
	}
	at := p.Index(p.Main)
	if at < 0 {
		return nil, fmt.Errorf("exec: entry point %q not compiled", p.Main)
	}
	e.main = &e.funcs[at]
	for _, u := range p.Units() {
		for _, i := range u.Funcs {
			if e.funcs[i].f.StaticInit {
				e.inits = append(e.inits, &e.funcs[i])
			}
		}
	}
	return e, nil
}

// Run executes the program on every rank of the world: static initializers
// first (before any MPI), then main. It returns the first error.
func (e *Engine) Run() error {
	return e.cfg.World.Run(func(r *mpi.Rank) error {
		t := &Task{rank: r, skew: 1}
		if r.ID() < len(e.cfg.RankWorkSkew) && e.cfg.RankWorkSkew[r.ID()] > 0 {
			t.skew = e.cfg.RankWorkSkew[r.ID()]
		}
		for _, init := range e.inits {
			if err := e.call(t, init); err != nil {
				return err
			}
		}
		err := e.call(t, e.main)
		e.calls.Add(t.calls)
		e.events.Add(t.events)
		return err
	})
}

// TotalEvents returns the number of instrumentation events dispatched
// across all ranks of the last Run.
func (e *Engine) TotalEvents() int64 { return e.events.Load() }

// instrument fires fn's entry or exit sled (by kind) and its static hook.
func (e *Engine) instrument(t *Task, fn *cfunc, kind xray.EntryType) {
	clk := t.rank.Clock()
	if fn.lo != nil {
		idx := fn.lay.EntrySled
		if kind == xray.Exit {
			idx = fn.lay.ExitSled
		}
		if fn.lo.SledPatched(int(idx)) {
			clk.Advance(xray.DispatchCostNs)
			t.events++
			e.cfg.XRay.Dispatch(t, fn.packed, kind)
		} else {
			clk.Advance(sledNopCost)
		}
	}
	if fn.lay.StaticInstr && e.cfg.StaticHook != nil {
		clk.Advance(xray.DispatchCostNs)
		t.events++
		e.cfg.StaticHook(t, fn.f.Name, kind)
	}
}

// call executes one function invocation.
func (e *Engine) call(t *Task, fn *cfunc) error {
	if t.depth >= maxDepth {
		return fmt.Errorf("exec: call depth %d exceeded at %s", maxDepth, fn.f.Name)
	}
	t.depth++
	t.calls++
	clk := t.rank.Clock()
	clk.Advance(callCost)

	inlined := fn.lay.Inlined
	if !inlined {
		e.instrument(t, fn, xray.Entry)
	}
	next := 0 // fn.callees[next] is the next call op's target
	for i := range fn.f.Ops {
		op := &fn.f.Ops[i]
		switch op.Kind {
		case prog.OpWork:
			if t.skew != 1 {
				clk.Advance(int64(float64(op.Work()) * t.skew))
			} else {
				clk.Advance(op.Work())
			}
		case prog.OpCall:
			callee := fn.callees[next]
			next++
			for c := op.Count(); c > 0; c-- {
				if err := e.call(t, callee); err != nil {
					return err
				}
			}
		case prog.OpMPI:
			if err := e.mpiOp(t, mpi.Op(op.Callee), op.Bytes()); err != nil {
				return err
			}
		}
	}
	if !inlined {
		e.instrument(t, fn, xray.Exit)
	}
	t.depth--
	return nil
}

// mpiOp performs a simulated MPI operation. Point-to-point operations use a
// ring pattern: sends go to the right neighbour, receives come from the
// left, which is deadlock-free with buffered sends.
func (e *Engine) mpiOp(t *Task, op mpi.Op, bytes int) error {
	r := t.rank
	size := r.WorldSize()
	right := (r.ID() + 1) % size
	left := (r.ID() + size - 1) % size
	switch op {
	case mpi.OpInit:
		return r.Init()
	case mpi.OpFinalize:
		return r.Finalize()
	case mpi.OpBarrier:
		return r.Barrier()
	case mpi.OpAllreduce:
		return r.Allreduce(bytes)
	case mpi.OpReduce:
		return r.Reduce(bytes)
	case mpi.OpBcast:
		return r.Bcast(bytes)
	case mpi.OpAllgather:
		return r.Allgather(bytes)
	case mpi.OpSend:
		return r.Send(right, 0, bytes)
	case mpi.OpRecv:
		return r.Recv(left, 0, bytes)
	case mpi.OpIrecv:
		return r.Irecv(left, 0, bytes)
	case mpi.OpWaitall:
		return r.Waitall()
	case mpi.OpSendrecv:
		return r.Sendrecv(right, left, 0, bytes)
	default:
		return fmt.Errorf("exec: unsupported MPI operation %q", op)
	}
}
