// Package workload generates the synthetic applications standing in for the
// paper's two evaluation cases (§VI): the LULESH proxy app (small, no DSOs,
// 3,360 call-graph nodes) and an OpenFOAM-style icoFoam solver (modular,
// six patchable DSOs, 410,666 call-graph nodes at scale 1.0, deep
// single-caller solve chains, virtual factories and hidden static
// initializers). Generators are deterministic: the same options always
// produce the identical program.
package workload

import (
	"fmt"
	"math/rand"

	"capi/internal/prog"
)

// mpiFunctions are the MPI API entry points declared in the (non-patchable)
// MPI system library.
var mpiFunctions = []string{
	"MPI_Init", "MPI_Finalize", "MPI_Barrier", "MPI_Allreduce", "MPI_Reduce",
	"MPI_Bcast", "MPI_Allgather", "MPI_Send", "MPI_Recv", "MPI_Irecv",
	"MPI_Sendrecv", "MPI_Waitall", "MPI_Comm_size", "MPI_Comm_rank",
}

// libcFunctions are representative libc entry points (targets of cold and
// setup code paths).
var libcFunctions = []string{
	"malloc", "free", "calloc", "realloc", "memcpy", "memset", "memmove",
	"printf", "fprintf", "snprintf", "puts", "fopen", "fclose", "fread",
	"fwrite", "strcmp", "strncmp", "strlen", "strcpy", "qsort", "exit",
	"abort", "getenv", "gettimeofday", "sqrt", "cbrt", "fabs", "pow",
	"exp", "log",
}

// builder wraps a program under construction with deterministic randomness.
type builder struct {
	p   *prog.Program
	rng *rand.Rand
	ops []prog.Op // the program's op arena, grown 4,096 ops at a time
}

// body returns an empty function body with room for n ops, cut from the op
// arena, so that a body allocates nothing of its own. An append past n
// moves that body out of the arena.
func (b *builder) body(n int) []prog.Op {
	if cap(b.ops)-len(b.ops) < n {
		b.ops = make([]prog.Op, 0, max(n, 1<<12))
	}
	at := len(b.ops)
	b.ops = b.ops[:at+n]
	return b.ops[at : at : at+n]
}

func newBuilder(name, main string, seed int64) *builder {
	return &builder{p: prog.New(name, main), rng: rand.New(rand.NewSource(seed))}
}

// fn adds a function, panicking on generator bugs (duplicate names etc.).
func (b *builder) fn(f *prog.Function) *prog.Function { return b.p.MustAddFunc(f) }

// addSystemLibs declares libmpi and libc (and optionally libstdc++).
func (b *builder) addSystemLibs(cpp bool) {
	b.p.MustAddUnit("libmpi.so.40", prog.SystemLibrary)
	for _, name := range mpiFunctions {
		b.fn(&prog.Function{
			Name: name, Unit: "libmpi.so.40", TU: "mpi.h",
			Statements: 6, SystemHeader: true,
		})
	}
	b.p.MustAddUnit("libc.so.6", prog.SystemLibrary)
	for _, name := range libcFunctions {
		b.fn(&prog.Function{
			Name: name, Unit: "libc.so.6", TU: "libc",
			Statements: 8, SystemHeader: true,
		})
	}
	if cpp {
		b.p.MustAddUnit("libstdc++.so.6", prog.SystemLibrary)
		for i := 0; i < 12; i++ {
			b.fn(&prog.Function{
				Name: fmt.Sprintf("std::__cxx_rt_%02d", i), Unit: "libstdc++.so.6",
				TU: "libstdc++", Statements: 10, SystemHeader: true,
			})
		}
	}
}

// between returns a deterministic value in [lo, hi], typed for the
// function metadata it mostly fills.
func (b *builder) between(lo, hi int32) int32 {
	if hi <= lo {
		return lo
	}
	return lo + int32(b.rng.Intn(int(hi-lo+1)))
}

// scaleWork multiplies every OpWork duration in the program by factor. The
// generators express relative work in compact units and scale the totals to
// the paper's wall-clock ballpark at the end; one simulated call stands in
// for many real invocations, so per-call work (and the measurement
// backends' per-event costs) are inflated by the same compression factor,
// preserving the overhead ratios Table II reports.
func scaleWork(p *prog.Program, factor float64) {
	if factor <= 0 || factor == 1 {
		return
	}
	for _, f := range p.Funcs() {
		for i := range f.Ops {
			if f.Ops[i].Kind == prog.OpWork {
				f.Ops[i] = prog.Work(int64(float64(f.Ops[i].Work()) * factor))
			}
		}
	}
}

// Quickstart returns a ~35-function miniature MPI application used by the
// quickstart example and smoke tests: main → init phase → timestep loop
// with two kernels, a halo exchange and a residual allreduce.
func Quickstart() *prog.Program {
	b := newBuilder("quickstart", "main", 11)
	b.p.MustAddUnit("quickstart.exe", prog.Executable)
	b.addSystemLibs(false)
	exe := "quickstart.exe"

	b.fn(&prog.Function{Name: "parse_args", Unit: exe, TU: "setup.c", Statements: 18,
		Ops: []prog.Op{prog.Work(20000), prog.Call("getenv", 2)}})
	b.fn(&prog.Function{Name: "allocate_grid", Unit: exe, TU: "setup.c", Statements: 22,
		Ops: []prog.Op{prog.Work(50000), prog.Call("malloc", 4)}})
	b.fn(&prog.Function{Name: "init_grid", Unit: exe, TU: "setup.c", Statements: 30, LoopDepth: 2, Flops: 8,
		Ops: []prog.Op{prog.Work(200000)}})

	// Small inline helpers (auto-inlined; invisible at run time).
	for i := 0; i < 8; i++ {
		b.fn(&prog.Function{
			Name: fmt.Sprintf("idx_%d", i), Unit: exe, TU: "grid.h",
			Statements: 2, Inline: true, VagueLinkage: true,
			Ops: []prog.Op{prog.Work(5)},
		})
	}
	b.fn(&prog.Function{Name: "stencil_kernel", Unit: exe, TU: "kernels.c",
		Statements: 45, Flops: 60, LoopDepth: 3, Cyclomatic: 6,
		Ops: []prog.Op{prog.Work(400000), prog.Call("idx_0", 4), prog.Call("idx_1", 4)}})
	b.fn(&prog.Function{Name: "flux_kernel", Unit: exe, TU: "kernels.c",
		Statements: 38, Flops: 40, LoopDepth: 2, Cyclomatic: 4,
		Ops: []prog.Op{prog.Work(300000), prog.Call("idx_2", 4)}})
	b.fn(&prog.Function{Name: "pack_halo", Unit: exe, TU: "comm.c", Statements: 8,
		Ops: []prog.Op{prog.Work(15000)}})
	b.fn(&prog.Function{Name: "unpack_halo", Unit: exe, TU: "comm.c", Statements: 8,
		Ops: []prog.Op{prog.Work(15000)}})
	b.fn(&prog.Function{Name: "exchange_halo", Unit: exe, TU: "comm.c", Statements: 26,
		Ops: []prog.Op{
			prog.Call("pack_halo", 1),
			prog.MPICall("MPI_Sendrecv", 4096),
			prog.Call("unpack_halo", 1),
		}})
	b.fn(&prog.Function{Name: "compute_residual", Unit: exe, TU: "solver.c",
		Statements: 20, Flops: 12, LoopDepth: 1,
		Ops: []prog.Op{prog.Work(80000), prog.MPICall("MPI_Allreduce", 8)}})
	b.fn(&prog.Function{Name: "write_output", Unit: exe, TU: "io.c", Statements: 25,
		Ops: []prog.Op{prog.Work(100000), prog.Call("fwrite", 8), prog.Call("fprintf", 2)}})

	mainOps := []prog.Op{
		prog.Call("parse_args", 1),
		prog.MPICall("MPI_Init", 0),
		prog.Call("allocate_grid", 1),
		prog.Call("init_grid", 1),
	}
	for step := 0; step < 25; step++ {
		mainOps = append(mainOps,
			prog.Call("stencil_kernel", 2),
			prog.Call("flux_kernel", 1),
			prog.Call("exchange_halo", 1),
			prog.Call("compute_residual", 1),
		)
	}
	mainOps = append(mainOps,
		prog.Call("write_output", 1),
		prog.MPICall("MPI_Finalize", 0),
	)
	b.fn(&prog.Function{Name: "main", Unit: exe, TU: "main.c", Statements: 60, Ops: mainOps})

	return b.p
}
