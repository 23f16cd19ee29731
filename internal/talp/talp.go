// Package talp reimplements the TALP module of the DLB library as used by
// the paper (§III-B, §V-C2): user-registerable monitoring regions
// (register/start/stop, nesting and overlap allowed), PMPI-driven
// attribution of useful vs. MPI time per rank and region, POP
// parallel-efficiency metrics per region, and a text summary at the end of
// the execution.
//
// Two behaviours observed in the paper's evaluation are modelled
// explicitly:
//
//   - regions cannot be registered before MPI_Init; DynCaPI regions entered
//     earlier (main, early init functions) fail and stay unrecorded
//     (§VI-B(b): 15 of 16,956 regions);
//   - an opt-in bug-compat mode reproduces the unexplained upstream bug
//     where entering some previously registered regions failed when very
//     many regions were registered (24 unique failures in the paper). The
//     default behaviour is correct.
package talp

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"capi/internal/mpi"
	"capi/internal/pop"
	"capi/internal/vtime"
)

// TALP's virtual-time costs, calibrated for Table II's shape: TALP's
// per-event pair is cheaper than Score-P's, but its PMPI wrapper pays per
// *open* region on every MPI call — which is what makes the call-path-shaped
// `mpi` IC more expensive under TALP than Score-P. Costs are inflated by the
// simulator's call-compression factor (one simulated call stands in for
// roughly a thousand real invocations, see workload.scaleWork), preserving
// Table II's ratios.
const (
	// registerCost is charged once per region registration.
	registerCost = 2 * vtime.Microsecond
	// startCost/stopCost are charged per region entry/exit — a region-map
	// lookup plus timestamping, cheaper than Score-P's call-path upkeep.
	startCost = 900 * vtime.Microsecond
	stopCost  = 900 * vtime.Microsecond
	// perOpenRegionMPI is charged at every MPI call for each region open
	// on the rank: TALP updates every open monitor's in-flight
	// accumulators inside the PMPI wrapper. This makes call-path-shaped
	// ICs (the paper's `mpi` spec) expensive under TALP — whole call
	// chains to MPI operations are open at every MPI call.
	perOpenRegionMPI = 80 * vtime.Microsecond
	// initBase is the DLB/TALP start-up cost.
	initBase = 550 * vtime.Millisecond
)

// Options configures a monitor.
type Options struct {
	// EmulateReentryBug enables the bug-compat mode described above.
	EmulateReentryBug bool
}

// The emulated re-entry bug hits a region iff fnv32(name) % bugModulus == 0,
// and only once at least bugMinRegions regions are registered (the paper
// correlates it with the very high region count). The paper saw 24 failures
// among 16,956 registered regions; one simulated function stands in for
// many real ones, so the simulator registers far fewer distinct regions and
// both constants are compressed accordingly.
const (
	bugModulus    = 6
	bugMinRegions = 10
)

// Region is a registered monitoring region handle (dlb_monitor_t).
type Region struct {
	id   int
	name string
}

// Name returns the region's registered name.
func (r *Region) Name() string { return r.name }

// GlobalRegionName is the implicit whole-execution region DLB maintains.
const GlobalRegionName = "MPI Execution"

type openInfo struct {
	start   int64
	mpiSnap int64
	depth   int
}

type regionAccum struct {
	visits  int64
	useful  int64
	mpiTime int64
	elapsed int64
}

type rankState struct {
	// mu guards all fields. The owning rank's goroutine is the only writer
	// on the measurement path, so the lock is uncontended there; it exists
	// so CloseOpen (synthetic stops delivered from a concurrent live
	// re-selection) and cross-rank readers are race-free.
	mu sync.Mutex

	open      map[int]*openInfo
	acc       map[int]*regionAccum
	openCount int

	// lastNs/lastMPI mirror the rank clock and MPI-time total as of the
	// rank's most recent TALP activity — the timestamps synthetic stops
	// close dangling regions at (another goroutine cannot read the rank's
	// clock directly).
	lastNs  int64
	lastMPI int64
}

// Monitor is one TALP instance attached to an MPI world.
type Monitor struct {
	opts  Options
	world *mpi.World

	mu      sync.Mutex
	regions []*Region
	byName  map[string]*Region

	perRank []*rankState

	failedPreInit map[string]struct{}
	failedEntries map[string]struct{}

	global *Region
}

// New creates a monitor attached to the world: PMPI hooks are installed on
// every rank, and the implicit global region is started right after
// MPI_Init and stopped right before MPI_Finalize.
func New(w *mpi.World, opts Options) *Monitor {
	m := &Monitor{
		opts:          opts,
		world:         w,
		byName:        map[string]*Region{},
		failedPreInit: map[string]struct{}{},
		failedEntries: map[string]struct{}{},
	}
	for i := 0; i < w.Size(); i++ {
		m.perRank = append(m.perRank, &rankState{
			open: map[int]*openInfo{},
			acc:  map[int]*regionAccum{},
		})
	}
	// The global region is registered internally by DLB itself, before any
	// user code runs — it bypasses the MPI_Init gate.
	m.global = m.registerLocked(GlobalRegionName)
	for _, r := range w.Ranks() {
		m.attach(r)
	}
	return m
}

// InitCost returns the virtual start-up cost DynCaPI charges.
func (m *Monitor) InitCost() int64 { return initBase }

func (m *Monitor) attach(r *mpi.Rank) {
	r.AddHook(mpi.Hook{
		Pre: func(rk *mpi.Rank, op mpi.Op, bytes int) {
			rs := m.perRank[rk.ID()]
			rs.mu.Lock()
			open := rs.openCount
			rs.mu.Unlock()
			// TALP touches every open monitor inside the PMPI wrapper.
			if open > 0 {
				rk.Clock().Advance(int64(open) * perOpenRegionMPI)
			}
			rs.mu.Lock()
			rs.lastNs = rk.Clock().Now()
			rs.lastMPI = rk.MPITimeTotal()
			rs.mu.Unlock()
			if op == mpi.OpFinalize {
				m.stopOn(rk, m.global)
			}
		},
		Post: func(rk *mpi.Rank, op mpi.Op, bytes int, elapsed int64) {
			if op == mpi.OpInit {
				m.startOn(rk, m.global)
			}
		},
	})
}

func (m *Monitor) registerLocked(name string) *Region {
	m.mu.Lock()
	defer m.mu.Unlock()
	if reg, ok := m.byName[name]; ok {
		return reg
	}
	reg := &Region{id: len(m.regions), name: name}
	m.regions = append(m.regions, reg)
	m.byName[name] = reg
	return reg
}

// Register creates (or finds) a monitoring region. It fails when MPI is not
// initialized on the calling rank; the failure is recorded for the report
// (the paper's pre-MPI_Init cases).
func (m *Monitor) Register(r *mpi.Rank, name string) (*Region, error) {
	if !r.Initialized() || r.Finalized() {
		m.mu.Lock()
		m.failedPreInit[name] = struct{}{}
		m.mu.Unlock()
		return nil, fmt.Errorf("talp: cannot register region %q: MPI not initialized on rank %d", name, r.ID())
	}
	r.Clock().Advance(registerCost)
	return m.registerLocked(name), nil
}

// NumRegisteredRegions returns the number of registered regions (the
// implicit global region included).
func (m *Monitor) NumRegisteredRegions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.regions)
}

// bugHits reports whether the emulated re-entry bug fires for this region.
func (m *Monitor) bugHits(name string) bool {
	if !m.opts.EmulateReentryBug {
		return false
	}
	m.mu.Lock()
	enough := len(m.regions) >= bugMinRegions
	m.mu.Unlock()
	if !enough {
		return false
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32()%bugModulus == 0
}

// Start enters a monitoring region on the calling rank. Nested and
// overlapping starts are allowed; re-entering an already open region only
// increases its nesting depth.
func (m *Monitor) Start(r *mpi.Rank, reg *Region) error {
	if reg == nil {
		return fmt.Errorf("talp: Start with nil region")
	}
	r.Clock().Advance(startCost)
	if reg != m.global && m.bugHits(reg.name) {
		m.mu.Lock()
		m.failedEntries[reg.name] = struct{}{}
		m.mu.Unlock()
		return fmt.Errorf("talp: entering region %q failed (known re-entry issue)", reg.name)
	}
	m.startOn(r, reg)
	return nil
}

func (m *Monitor) startOn(r *mpi.Rank, reg *Region) {
	rs := m.perRank[r.ID()]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	oi := rs.open[reg.id]
	if oi == nil {
		oi = &openInfo{}
		rs.open[reg.id] = oi
	}
	acc := rs.acc[reg.id]
	if acc == nil {
		acc = &regionAccum{}
		rs.acc[reg.id] = acc
	}
	acc.visits++
	if oi.depth == 0 {
		oi.start = r.Clock().Now()
		oi.mpiSnap = r.MPITimeTotal()
		rs.openCount++
	}
	oi.depth++
	rs.lastNs = r.Clock().Now()
	rs.lastMPI = r.MPITimeTotal()
}

// Stop leaves a monitoring region. Stopping a region that is not open is an
// error.
func (m *Monitor) Stop(r *mpi.Rank, reg *Region) error {
	if reg == nil {
		return fmt.Errorf("talp: Stop with nil region")
	}
	r.Clock().Advance(stopCost)
	if !m.stopOn(r, reg) {
		return fmt.Errorf("talp: Stop of region %q which is not open on rank %d", reg.name, r.ID())
	}
	return nil
}

// stopOn closes one nesting level of the region on the rank; it reports
// whether the region was open.
func (m *Monitor) stopOn(r *mpi.Rank, reg *Region) bool {
	rs := m.perRank[r.ID()]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	oi := rs.open[reg.id]
	if oi == nil || oi.depth == 0 {
		return false
	}
	rs.lastNs = r.Clock().Now()
	rs.lastMPI = r.MPITimeTotal()
	oi.depth--
	if oi.depth > 0 {
		return true
	}
	rs.openCount--
	now := r.Clock().Now()
	elapsed := now - oi.start
	mpiDuring := r.MPITimeTotal() - oi.mpiSnap
	if mpiDuring > elapsed {
		mpiDuring = elapsed
	}
	acc := rs.acc[reg.id]
	acc.elapsed += elapsed
	acc.mpiTime += mpiDuring
	acc.useful += elapsed - mpiDuring
	return true
}

// CloseOpen balances the dangling starts of a region on every rank with
// synthetic stops: the full nesting depth is closed at the rank's last
// observed TALP activity timestamp, the elapsed/MPI split is accumulated
// exactly as a real Stop would, and the open count is corrected. It returns
// the number of dangling starts balanced.
//
// It is safe to call while other ranks measure (per-rank locking); the
// caller must guarantee the region produces no further events — DynCaPI
// calls it under the reconfigure lock after a function is deselected.
func (m *Monitor) CloseOpen(reg *Region) int {
	if reg == nil {
		return 0
	}
	closed := 0
	for _, rs := range m.perRank {
		rs.mu.Lock()
		oi := rs.open[reg.id]
		if oi != nil && oi.depth > 0 {
			closed += oi.depth
			elapsed := rs.lastNs - oi.start
			if elapsed < 0 {
				elapsed = 0
			}
			mpiDuring := rs.lastMPI - oi.mpiSnap
			if mpiDuring > elapsed {
				mpiDuring = elapsed
			}
			if mpiDuring < 0 {
				mpiDuring = 0
			}
			acc := rs.acc[reg.id]
			acc.elapsed += elapsed
			acc.mpiTime += mpiDuring
			acc.useful += elapsed - mpiDuring
			oi.depth = 0
			rs.openCount--
		}
		rs.mu.Unlock()
	}
	return closed
}

// OpenCount returns the number of regions currently open on a rank (used
// by tests and the overhead analysis).
func (m *Monitor) OpenCount(rank int) int {
	rs := m.perRank[rank]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.openCount
}

// Listing-2-compatible aliases (DLB API surface).

// MonitoringRegionRegister mirrors DLB_MonitoringRegionRegister.
func (m *Monitor) MonitoringRegionRegister(r *mpi.Rank, name string) (*Region, error) {
	return m.Register(r, name)
}

// MonitoringRegionStart mirrors DLB_MonitoringRegionStart.
func (m *Monitor) MonitoringRegionStart(r *mpi.Rank, reg *Region) error {
	return m.Start(r, reg)
}

// MonitoringRegionStop mirrors DLB_MonitoringRegionStop.
func (m *Monitor) MonitoringRegionStop(r *mpi.Rank, reg *Region) error {
	return m.Stop(r, reg)
}

// RegionReport is the per-region summary.
type RegionReport struct {
	Name    string
	Visits  int64 // summed over ranks
	Elapsed int64 // max over ranks
	PerRank []pop.RankTimes
	Metrics pop.Metrics
}

// Report is the end-of-execution summary.
type Report struct {
	WorldSize     int
	Regions       []RegionReport
	FailedPreInit []string // unique region names that failed registration
	FailedEntries []string // unique region names hit by the re-entry bug
}

// Report aggregates all ranks. Call it after the world's Run returned.
func (m *Monitor) Report() *Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := &Report{WorldSize: m.world.Size()}
	for _, reg := range m.regions {
		rr := RegionReport{Name: reg.name, PerRank: make([]pop.RankTimes, m.world.Size())}
		seen := false
		for rank, rs := range m.perRank {
			rs.mu.Lock()
			acc := rs.acc[reg.id]
			if acc == nil {
				rs.mu.Unlock()
				continue
			}
			seen = true
			rr.Visits += acc.visits
			if acc.elapsed > rr.Elapsed {
				rr.Elapsed = acc.elapsed
			}
			rr.PerRank[rank] = pop.RankTimes{Useful: acc.useful, MPI: acc.mpiTime}
			rs.mu.Unlock()
		}
		if !seen {
			continue
		}
		rr.Metrics = pop.Compute(rr.PerRank)
		rep.Regions = append(rep.Regions, rr)
	}
	sort.Slice(rep.Regions, func(i, j int) bool {
		if rep.Regions[i].Elapsed != rep.Regions[j].Elapsed {
			return rep.Regions[i].Elapsed > rep.Regions[j].Elapsed
		}
		return rep.Regions[i].Name < rep.Regions[j].Name
	})
	for name := range m.failedPreInit {
		rep.FailedPreInit = append(rep.FailedPreInit, name)
	}
	sort.Strings(rep.FailedPreInit)
	for name := range m.failedEntries {
		rep.FailedEntries = append(rep.FailedEntries, name)
	}
	sort.Strings(rep.FailedEntries)
	return rep
}
