package workload

import (
	"fmt"

	"capi/internal/prog"
	"capi/internal/vtime"
)

// LuleshOptions sizes the LULESH proxy-app generator.
type LuleshOptions struct {
	// Timesteps of the Lagrange leapfrog loop (default 60).
	Timesteps int
	// CGNodes is the target whole-program call-graph size; the paper's
	// MetaCG graph for LULESH has 3,360 nodes (default).
	CGNodes int
}

func (o LuleshOptions) withDefaults() LuleshOptions {
	if o.Timesteps <= 0 {
		o.Timesteps = 60
	}
	if o.CGNodes <= 0 {
		o.CGNodes = 3360
	}
	return o
}

// LuleshOptLevel is the optimization level the paper builds LULESH with
// (-O3), which controls the auto-inlining threshold.
const LuleshOptLevel = 3

// LuleshRankSkew returns a mild per-rank load imbalance (LULESH is well
// balanced; a few percent keeps the POP metrics non-trivial).
func LuleshRankSkew(ranks int) []float64 {
	skew := make([]float64, ranks)
	for i := range skew {
		skew[i] = 1.0 + 0.03*float64(i%3)/2
	}
	return skew
}

// luleshMid describes one mid-level kernel: its metadata and which leaf
// kernels it drives.
type luleshMid struct {
	name   string
	stmts  int32
	flops  int32
	loops  int32
	leaves []string
	reps   int // invocations of each leaf per call
}

// Lulesh generates the LULESH 2.0 stand-in: a single statically linked
// executable (no DSOs), the Lagrange leapfrog call tree with its
// communication functions (CommSBN, CommSyncPosVel, CommMonoQ), small
// frequently executed element kernels that the -O3 build inlines away, and
// enough template/accessor padding to reach the paper's 3,360 call-graph
// nodes.
func Lulesh(opts LuleshOptions) *prog.Program {
	opts = opts.withDefaults()
	b := newBuilder("lulesh", "main", 2023)
	exe := "lulesh2.0"
	b.p.MustAddUnit(exe, prog.Executable)
	b.addSystemLibs(false)

	// --- leaf kernels: small (auto-inlined at -O3), flops-heavy, loops ---
	leafKernels := []struct {
		name  string
		stmts int32
		flops int32
	}{
		{"CalcElemShapeFunctionDerivatives", 10, 48},
		{"CalcElemNodeNormals", 9, 32},
		{"SumElemStressesToNodeForces", 8, 24},
		{"CalcElemVolumeDerivative", 9, 40},
		{"CalcElemFBHourglassForce", 10, 56},
		{"CalcElemVelocityGradient", 9, 36},
		{"CalcElemCharacteristicLength", 8, 28},
		{"AreaFace", 7, 16},
		{"CalcElemVolume", 9, 44},
		{"VoluDer", 6, 18},
		{"CalcPressureForElems", 8, 14},
		{"CalcSoundSpeedForElems", 9, 12},
	}

	// --- padding pools ---
	named := 56 + len(mpiFunctions) + len(libcFunctions)
	workerCount := 300
	coldCount := 200
	templateCount := 1600
	accessorCount := opts.CGNodes - named - workerCount - coldCount - templateCount
	if accessorCount < 0 {
		// Tiny graphs for tests: shrink pools proportionally.
		avail := opts.CGNodes - named
		if avail < 40 {
			avail = 40
		}
		workerCount = avail * 2 / 10
		coldCount = avail / 10
		templateCount = avail * 4 / 10
		accessorCount = avail - workerCount - coldCount - templateCount
	}

	accessors := make([]string, accessorCount)
	for i := range accessors {
		accessors[i] = fmt.Sprintf("Domain::acc_%04d", i)
		b.fn(&prog.Function{
			Name: accessors[i], Unit: exe, TU: "lulesh.h",
			Statements: b.between(1, 3), Inline: true, VagueLinkage: true,
			Ops: []prog.Op{prog.Work(8)},
		})
	}
	templates := make([]string, templateCount)
	for i := range templates {
		templates[i] = fmt.Sprintf("std::__tmpl_%04d", i)
		b.fn(&prog.Function{
			Name: templates[i], Unit: exe, TU: "vector.h",
			Statements: b.between(1, 4), Inline: true, SystemHeader: true, VagueLinkage: true,
			Ops: []prog.Op{prog.Work(5)},
		})
	}
	accAt := func(i, n int) []prog.Op {
		var ops []prog.Op
		for k := 0; k < n; k++ {
			ops = append(ops, prog.Call(accessors[(i+k)%len(accessors)], 2))
		}
		return ops
	}
	workers := make([]string, workerCount)
	for i := range workers {
		workers[i] = fmt.Sprintf("CalcWork_%03d", i)
		ops := []prog.Op{prog.Work(1200)}
		ops = append(ops, accAt(i*2, 1)...)
		ops = append(ops, prog.Call(templates[i%len(templates)], 1))
		b.fn(&prog.Function{
			Name: workers[i], Unit: exe, TU: "lulesh.cc",
			Statements: b.between(12, 24), Flops: b.between(2, 8), LoopDepth: int32(i % 2),
			Ops: ops,
		})
	}
	cold := make([]string, coldCount)
	for i := range cold {
		cold[i] = fmt.Sprintf("util_cold_%03d", i)
		ops := []prog.Op{prog.Work(int64(b.between(500, 4000)))}
		ops = append(ops, prog.Call(libcFunctions[i%len(libcFunctions)], 1))
		ops = append(ops, prog.Call(templates[(i*7)%len(templates)], 1))
		ops = append(ops, accAt(i*5, 1)...)
		b.fn(&prog.Function{
			Name: cold[i], Unit: exe, TU: "lulesh-util.cc",
			Statements: b.between(12, 40), Cyclomatic: b.between(2, 9),
			Ops: ops,
		})
	}

	// --- leaf kernels (after accessors exist) ---
	for i, lk := range leafKernels {
		ops := []prog.Op{prog.Work(2 * vtime.Microsecond)}
		ops = append(ops, accAt(i*11, 2)...)
		b.fn(&prog.Function{
			Name: lk.name, Unit: exe, TU: "lulesh.cc",
			Statements: lk.stmts, Flops: lk.flops, LoopDepth: int32(1 + i%2), Cyclomatic: 3,
			Ops: ops,
		})
	}

	// --- mid-level kernels ---
	mids := []luleshMid{
		{"IntegrateStressForElems", 46, 40, 2, []string{"CalcElemShapeFunctionDerivatives", "CalcElemNodeNormals", "SumElemStressesToNodeForces"}, 14},
		{"CalcHourglassControlForElems", 38, 25, 2, []string{"CalcElemVolumeDerivative"}, 12},
		{"CalcFBHourglassForceForElems", 52, 60, 2, []string{"CalcElemFBHourglassForce"}, 16},
		{"CalcLagrangeElements", 30, 18, 1, []string{"CalcElemVelocityGradient", "CalcElemCharacteristicLength"}, 10},
		{"CalcKinematicsForElems", 34, 30, 2, []string{"CalcElemVolume", "AreaFace"}, 12},
		{"CalcMonotonicQGradientsForElems", 9, 22, 1, []string{"VoluDer"}, 8},
		{"CalcMonotonicQRegionForElems", 10, 26, 1, nil, 0},
		{"EvalEOSForElems", 10, 16, 1, nil, 0},
		{"CalcEnergyForElems", 28, 34, 1, []string{"CalcPressureForElems", "CalcSoundSpeedForElems"}, 6},
		{"UpdateVolumesForElems", 7, 12, 1, nil, 0},
		{"CalcCourantConstraintForElems", 9, 14, 1, nil, 0},
		{"CalcHydroConstraintForElems", 9, 13, 1, nil, 0},
	}
	for i, m := range mids {
		ops := []prog.Op{prog.Work(30 * vtime.Microsecond)}
		for _, leaf := range m.leaves {
			ops = append(ops, prog.Call(leaf, m.reps))
		}
		for w := 0; w < 4; w++ {
			ops = append(ops, prog.Call(workers[(i*4+w)%len(workers)], 3))
		}
		ops = append(ops, accAt(i*17, 4)...)
		b.fn(&prog.Function{
			Name: m.name, Unit: exe, TU: "lulesh.cc",
			Statements: m.stmts, Flops: m.flops, LoopDepth: m.loops, Cyclomatic: 5,
			Ops: ops,
		})
	}

	// --- communication ---
	smallHelper := func(name string, stmts int32) {
		b.fn(&prog.Function{
			Name: name, Unit: exe, TU: "lulesh-comm.cc",
			Statements: stmts, Ops: []prog.Op{prog.Work(600)},
		})
	}
	smallHelper("PackField", 5)
	smallHelper("UnpackField", 6)
	smallHelper("CommGetMsgCount", 4)
	smallHelper("CommBufferSize", 4)

	// Small per-neighbour wrappers around the actual MPI calls. They are
	// *not* marked inline, so the selection pipeline keeps them, but their
	// bodies are below the -O3 auto-inline limit: the compiler folds them
	// into CommSend/CommRecv/TimeIncrement and drops their symbols. These
	// are the functions the inlining-compensation pass removes again —
	// the paper's lulesh/mpi row shrinks from 19 pre to 12 post this way.
	mpiWrapper := func(name string, stmts int32, op prog.Op) {
		b.fn(&prog.Function{
			Name: name, Unit: exe, TU: "lulesh-comm.cc",
			Statements: stmts, Ops: []prog.Op{prog.Work(300), op},
		})
	}
	mpiWrapper("SendPlane", 6, prog.MPICall("MPI_Send", 16384))
	mpiWrapper("SendEdge", 5, prog.MPICall("MPI_Send", 2048))
	mpiWrapper("SendCorner", 4, prog.MPICall("MPI_Send", 64))
	mpiWrapper("PostRecvPlane", 5, prog.MPICall("MPI_Irecv", 16384))
	mpiWrapper("PostRecvEdge", 4, prog.MPICall("MPI_Irecv", 2048))
	mpiWrapper("PostRecvCorner", 4, prog.MPICall("MPI_Irecv", 64))
	mpiWrapper("ReduceMinDt", 5, prog.MPICall("MPI_Allreduce", 8))

	b.fn(&prog.Function{Name: "CommSend", Unit: exe, TU: "lulesh-comm.cc", Statements: 34,
		Ops: []prog.Op{
			prog.Call("PackField", 2), prog.Call("CommBufferSize", 1),
			prog.Work(8 * vtime.Microsecond),
			prog.Call("SendPlane", 1), prog.Call("SendEdge", 1), prog.Call("SendCorner", 1),
		}})
	// CommRecv posts the non-blocking receives; the Comm* drivers complete
	// them with MPI_Waitall after the sends went out (the LULESH pattern —
	// a blocking receive-before-send would deadlock all ranks).
	b.fn(&prog.Function{Name: "CommRecv", Unit: exe, TU: "lulesh-comm.cc", Statements: 28,
		Ops: []prog.Op{
			prog.Call("CommBufferSize", 1), prog.Work(4 * vtime.Microsecond),
			prog.Call("PostRecvPlane", 1), prog.Call("PostRecvEdge", 1), prog.Call("PostRecvCorner", 1),
		}})
	commFn := func(name string, extra []prog.Op) {
		ops := []prog.Op{prog.Call("CommGetMsgCount", 1), prog.Call("CommRecv", 1), prog.Call("CommSend", 1)}
		ops = append(ops, extra...)
		ops = append(ops, prog.MPICall("MPI_Waitall", 0))
		ops = append(ops, prog.Call("UnpackField", 2), prog.Work(6*vtime.Microsecond))
		b.fn(&prog.Function{Name: name, Unit: exe, TU: "lulesh-comm.cc", Statements: 40, Ops: ops})
	}
	commFn("CommSBN", nil)
	commFn("CommSyncPosVel", nil)
	commFn("CommMonoQ", nil)

	// --- drivers ---
	b.fn(&prog.Function{Name: "TimeIncrement", Unit: exe, TU: "lulesh.cc", Statements: 24,
		Ops: []prog.Op{prog.Work(2 * vtime.Microsecond), prog.Call("ReduceMinDt", 1)}})
	b.fn(&prog.Function{Name: "CalcForceForNodes", Unit: exe, TU: "lulesh.cc", Statements: 26,
		Ops: []prog.Op{prog.Call("CalcVolumeForceForElems", 1), prog.Call("CommSBN", 1)}})
	b.fn(&prog.Function{Name: "CalcVolumeForceForElems", Unit: exe, TU: "lulesh.cc", Statements: 30,
		Ops: []prog.Op{prog.Call("IntegrateStressForElems", 1), prog.Call("CalcHourglassControlForElems", 1)}})
	// Hourglass control drives the FB force kernel.
	hgc := b.p.Func("CalcHourglassControlForElems")
	hgc.Ops = append(hgc.Ops, prog.Call("CalcFBHourglassForceForElems", 1))
	// The Comm* drivers appear at two call sites each: the executed one and
	// a guarded (statically present, dynamically untaken) one — LULESH
	// conditionally repeats exchanges for some decompositions. The second
	// static caller is what lets the coarse selector retain them — the
	// paper's lulesh "mpi coarse" IC is exactly {main, the three Comm*
	// drivers, CommSend, CommRecv}.
	b.fn(&prog.Function{Name: "LagrangeNodal", Unit: exe, TU: "lulesh.cc", Statements: 32,
		Ops: []prog.Op{prog.Call("CalcForceForNodes", 1), prog.StaticCall("CommSBN"), prog.Work(10 * vtime.Microsecond), prog.Call("CommSyncPosVel", 1)}})
	b.fn(&prog.Function{Name: "CalcQForElems", Unit: exe, TU: "lulesh.cc", Statements: 22,
		Ops: []prog.Op{
			prog.Call("CalcMonotonicQGradientsForElems", 1),
			prog.Call("CalcMonotonicQRegionForElems", 1),
			prog.Call("CommMonoQ", 1),
		}})
	b.fn(&prog.Function{Name: "ApplyMaterialPropertiesForElems", Unit: exe, TU: "lulesh.cc", Statements: 20,
		Ops: []prog.Op{prog.Call("EvalEOSForElems", 2)}})
	eos := b.p.Func("EvalEOSForElems")
	eos.Ops = append(eos.Ops, prog.Call("CalcEnergyForElems", 2))
	b.fn(&prog.Function{Name: "LagrangeElements", Unit: exe, TU: "lulesh.cc", Statements: 28,
		Ops: []prog.Op{
			prog.Call("CalcLagrangeElements", 1),
			prog.Call("CalcQForElems", 1),
			prog.StaticCall("CommMonoQ"),
			prog.Call("ApplyMaterialPropertiesForElems", 1),
			prog.Call("UpdateVolumesForElems", 1),
		}})
	cle := b.p.Func("CalcLagrangeElements")
	cle.Ops = append(cle.Ops, prog.Call("CalcKinematicsForElems", 1))
	b.fn(&prog.Function{Name: "CalcTimeConstraintsForElems", Unit: exe, TU: "lulesh.cc", Statements: 18,
		Ops: []prog.Op{prog.Call("CalcCourantConstraintForElems", 1), prog.Call("CalcHydroConstraintForElems", 1)}})
	b.fn(&prog.Function{Name: "LagrangeLeapFrog", Unit: exe, TU: "lulesh.cc", Statements: 26,
		Ops: []prog.Op{
			prog.Call("LagrangeNodal", 1),
			prog.Call("LagrangeElements", 1),
			prog.StaticCall("CommSyncPosVel"),
			prog.Call("CalcTimeConstraintsForElems", 1),
		}})

	// --- setup / teardown ---
	setup := func(name string, ncold, start int) {
		var ops []prog.Op
		ops = append(ops, prog.Work(50*vtime.Microsecond))
		for i := 0; i < ncold; i++ {
			ops = append(ops, prog.Call(cold[(start+i)%len(cold)], 1))
		}
		b.fn(&prog.Function{Name: name, Unit: exe, TU: "lulesh-init.cc", Statements: 40, Ops: ops})
	}
	setup("ParseCommandLineOptions", 10, 0)
	setup("PrintCommandLineOptions", 15, 10)
	setup("InitMeshDecomp", 30, 25)
	setup("BuildMesh", 60, 55)
	setup("SetupCommBuffers", 40, 115)
	setup("VerifyAndWriteFinalOutput", 45, 155)

	// --- main ---
	mainOps := []prog.Op{
		prog.Call("ParseCommandLineOptions", 1),
		prog.MPICall("MPI_Init", 0),
		prog.Call("InitMeshDecomp", 1),
		prog.Call("BuildMesh", 1),
		prog.Call("SetupCommBuffers", 1),
		prog.Call("PrintCommandLineOptions", 1),
	}
	for step := 0; step < opts.Timesteps; step++ {
		mainOps = append(mainOps,
			prog.Call("TimeIncrement", 1),
			prog.Call("LagrangeLeapFrog", 1),
		)
	}
	mainOps = append(mainOps,
		prog.Call("VerifyAndWriteFinalOutput", 1),
		prog.MPICall("MPI_Finalize", 0),
	)
	b.fn(&prog.Function{Name: "main", Unit: exe, TU: "lulesh.cc", Statements: 70, Cyclomatic: 10, Ops: mainOps})

	// Scale virtual work so the vanilla run lands in the paper's ballpark
	// (34.01 s on the Lichtenberg-2 node, Table II).
	scaleWork(b.p, luleshWorkScale)

	return b.p
}

// luleshWorkScale calibrates the vanilla virtual runtime to Table II's
// 34.01 s (see scaleWork).
const luleshWorkScale = 475
