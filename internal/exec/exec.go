// Package exec is the execution engine: it interprets a compiled program
// (internal/compiler) on a simulated MPI world, advancing per-rank virtual
// clocks by the modelled work and firing XRay sleds exactly where the
// machine code would — patched entry/exit sleds dispatch to the registered
// handler through the trampoline, unpatched sleds cost a near-zero NOP
// execution (the paper confirms XRay's inactive overhead is negligible,
// §VI-C), and fully inlined functions execute their bodies inside the
// caller without any instrumentation points (§V-E).
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

// Config assembles an executable engine.
type Config struct {
	Build *compiler.Build
	Proc  *obj.Process
	XRay  *xray.Runtime // nil for vanilla builds
	World *mpi.World

	// MaxDepth bounds the simulated call stack (default 512).
	MaxDepth int
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

// cop is a resolved body operation. Indirect calls are resolved to their
// single runtime target here; the static over-approximation lives only in
// the call graph.
type cop struct {
	kind   prog.OpKind
	work   int64
	callee *cfunc
	count  int
	mpiOp  mpi.Op
	bytes  int
}

// cfunc is a resolved function.
type cfunc struct {
	name      string
	lay       *compiler.FuncLayout
	lo        *obj.LoadedObject
	packed    int32
	hasPacked bool
	ops       []cop
}

// Engine interprets one compiled program.
type Engine struct {
	cfg    Config
	funcs  map[string]*cfunc
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
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 512
	}
	p := cfg.Build.Prog
	e := &Engine{cfg: cfg, funcs: make(map[string]*cfunc, p.NumFunctions())}

	for _, name := range p.Functions() {
		lay := cfg.Build.Layout[name]
		cf := &cfunc{name: name, lay: lay}
		if lay != nil && lay.HasSleds {
			lo := cfg.Proc.Object(lay.Unit)
			if lo != nil && cfg.XRay != nil {
				if objID, ok := cfg.XRay.ObjectID(lo); ok {
					packed, err := xray.PackID(objID, lay.FuncID)
					if err != nil {
						return nil, fmt.Errorf("exec: %s: %w", name, err)
					}
					cf.lo = lo
					cf.packed = packed
					cf.hasPacked = true
				}
			}
		}
		e.funcs[name] = cf
	}
	// Resolve bodies after all functions exist.
	for _, name := range p.Functions() {
		f := p.Func(name)
		cf := e.funcs[name]
		for _, op := range f.Ops {
			switch op.Kind {
			case prog.OpWork:
				cf.ops = append(cf.ops, cop{kind: prog.OpWork, work: op.Work})
			case prog.OpMPI:
				cf.ops = append(cf.ops, cop{kind: prog.OpMPI, mpiOp: mpi.Op(op.MPI), bytes: op.Bytes})
			case prog.OpCall:
				target := op.Callee
				switch {
				case op.Virtual:
					target = op.RuntimeTarget
					if target == "" {
						target = p.VirtualImpls[op.Callee][0]
					}
				case op.ViaPointer:
					target = op.RuntimeTarget
					if target == "" {
						target = p.PointerTargets[op.Callee][0]
					}
				}
				tc, ok := e.funcs[target]
				if !ok {
					return nil, fmt.Errorf("exec: %s calls unresolved %q", name, target)
				}
				cf.ops = append(cf.ops, cop{kind: prog.OpCall, callee: tc, count: op.Count})
			}
		}
	}
	e.main = e.funcs[p.Main]
	if e.main == nil {
		return nil, fmt.Errorf("exec: entry point %q not compiled", p.Main)
	}
	for _, u := range p.Units() {
		for _, name := range p.StaticInits(u.Name) {
			e.inits = append(e.inits, e.funcs[name])
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

// TotalCalls returns the number of simulated function calls executed across
// all ranks of the last Run.
func (e *Engine) TotalCalls() int64 { return e.calls.Load() }

// TotalEvents returns the number of instrumentation events dispatched
// across all ranks of the last Run.
func (e *Engine) TotalEvents() int64 { return e.events.Load() }

// enter fires the entry-side instrumentation of fn, returning a function
// firing the exit side (mirroring the sled pair).
func (e *Engine) instrument(t *Task, fn *cfunc, kind xray.EntryType) {
	clk := t.rank.Clock()
	if fn.hasPacked {
		idx := fn.lay.EntrySled
		if kind == xray.Exit {
			idx = fn.lay.ExitSled
		}
		if fn.lo.SledPatched(idx) {
			clk.Advance(xray.DispatchCostNs)
			t.events++
			e.cfg.XRay.Dispatch(t, fn.packed, kind)
		} else {
			clk.Advance(sledNopCost)
		}
	}
	if fn.lay != nil && fn.lay.StaticInstr && e.cfg.StaticHook != nil {
		clk.Advance(xray.DispatchCostNs)
		t.events++
		e.cfg.StaticHook(t, fn.name, kind)
	}
}

// call executes one function invocation.
func (e *Engine) call(t *Task, fn *cfunc) error {
	if t.depth >= e.cfg.MaxDepth {
		return fmt.Errorf("exec: call depth %d exceeded at %s", e.cfg.MaxDepth, fn.name)
	}
	t.depth++
	t.calls++
	clk := t.rank.Clock()
	clk.Advance(callCost)

	inlined := fn.lay != nil && fn.lay.Inlined
	if !inlined {
		e.instrument(t, fn, xray.Entry)
	}
	for i := range fn.ops {
		op := &fn.ops[i]
		switch op.kind {
		case prog.OpWork:
			if t.skew != 1 {
				clk.Advance(int64(float64(op.work) * t.skew))
			} else {
				clk.Advance(op.work)
			}
		case prog.OpCall:
			for c := 0; c < op.count; c++ {
				if err := e.call(t, op.callee); err != nil {
					return err
				}
			}
		case prog.OpMPI:
			if err := e.mpiOp(t, op); err != nil {
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
func (e *Engine) mpiOp(t *Task, op *cop) error {
	r := t.rank
	size := r.WorldSize()
	right := (r.ID() + 1) % size
	left := (r.ID() + size - 1) % size
	switch op.mpiOp {
	case mpi.OpInit:
		return r.Init()
	case mpi.OpFinalize:
		return r.Finalize()
	case mpi.OpBarrier:
		return r.Barrier()
	case mpi.OpAllreduce:
		return r.Allreduce(op.bytes)
	case mpi.OpReduce:
		return r.Reduce(op.bytes)
	case mpi.OpBcast:
		return r.Bcast(op.bytes)
	case mpi.OpAllgather:
		return r.Allgather(op.bytes)
	case mpi.OpSend:
		return r.Send(right, 0, op.bytes)
	case mpi.OpRecv:
		return r.Recv(left, 0, op.bytes)
	case mpi.OpIrecv:
		return r.Irecv(left, 0, op.bytes)
	case mpi.OpWaitall:
		return r.Waitall()
	case mpi.OpSendrecv:
		return r.Sendrecv(right, left, 0, op.bytes)
	default:
		return fmt.Errorf("exec: unsupported MPI operation %q", op.mpiOp)
	}
}
