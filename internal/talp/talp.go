// Package talp reimplements the TALP module of the DLB library as used by
// the paper (§III-B, §V-C2): monitoring regions entered and exited by name
// (nesting and overlap allowed), PMPI-driven attribution of useful vs. MPI
// time per rank and region, POP parallel-efficiency metrics per region, and
// a text summary at the end of the execution.
//
// Registration is per rank, as DLB keeps it per process: Enter registers a
// region on its first entry on the calling rank and charges that rank, so
// which rank gets there first changes no rank's numbers.
//
// Two behaviours observed in the paper's evaluation are modelled
// explicitly:
//
//   - regions cannot be registered before MPI_Init; DynCaPI regions entered
//     earlier (main, early init functions) fail and stay unrecorded on
//     that rank (§VI-B(b): 15 of 16,956 regions);
//   - an opt-in bug-compat mode reproduces the unexplained upstream bug
//     where entering some previously registered regions failed when very
//     many regions were registered on the rank (24 unique failures in the
//     paper). The default behaviour is correct.
package talp

import (
	"hash/fnv"
	"maps"
	"slices"
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
	// registerCost is charged to the calling rank per registration.
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
// and only once at least bugMinRegions regions are registered on the
// entering rank (the paper correlates it with the very high region count).
// The paper saw 24 failures among 16,956 registered regions; one simulated
// function stands in for many real ones, so the simulator registers far
// fewer distinct regions and both constants are compressed accordingly.
const (
	bugModulus    = 6
	bugMinRegions = 10
)

// region is one rank's registered monitoring region (DLB's dlb_monitor_t):
// that rank's measurement of the region, guarded by the rank's lock.
type region struct {
	name string

	depth   int   // open nesting depth
	start   int64 // rank clock when the outermost start opened it
	mpiSnap int64 // rank MPI-time total at that start

	visits  int64
	useful  int64
	mpiTime int64
	elapsed int64

	hitBug bool // an entry failed under the emulated re-entry bug
}

// GlobalRegionName is the implicit whole-execution region DLB maintains.
const GlobalRegionName = "MPI Execution"

// rankState is one rank's TALP state, as DLB keeps it per process.
type rankState struct {
	// mu guards all fields and the rank's regions. The owning rank's
	// goroutine is the only writer on the measurement path, so the lock is
	// uncontended there; it exists so CloseOpen (synthetic stops delivered
	// from a concurrent live re-selection) and Report are race-free.
	mu sync.Mutex

	// regions is the rank's registration memo: a name maps to its region
	// once registered on this rank, or to nil once registration failed
	// here (before MPI_Init), which disables the region on this rank for
	// good. registered counts the regions registered on this rank, the
	// implicit global one included.
	regions    map[string]*region
	registered int
	global     *region
	openCount  int

	// lastNs/lastMPI mirror the rank clock and MPI-time total as of the
	// rank's most recent TALP activity — the timestamps synthetic stops
	// close dangling regions at (another goroutine cannot read the rank's
	// clock directly).
	lastNs  int64
	lastMPI int64
}

// Monitor is one TALP instance attached to an MPI world.
type Monitor struct {
	opts    Options
	perRank []*rankState
}

// New creates a monitor attached to the world: PMPI hooks are installed on
// every rank, and the implicit global region is started right after
// MPI_Init and stopped right before MPI_Finalize.
func New(w *mpi.World, opts Options) *Monitor {
	m := &Monitor{opts: opts}
	for _, r := range w.Ranks() {
		// The global region is registered internally by DLB itself, before
		// any user code runs — it bypasses the MPI_Init gate.
		global := &region{name: GlobalRegionName}
		m.perRank = append(m.perRank, &rankState{
			regions:    map[string]*region{GlobalRegionName: global},
			registered: 1,
			global:     global,
		})
		m.attach(r)
	}
	return m
}

// InitCost returns the virtual start-up cost DynCaPI charges.
func (m *Monitor) InitCost() int64 { return initBase }

// Options returns the options the monitor was created with.
func (m *Monitor) Options() Options { return m.opts }

func (m *Monitor) attach(r *mpi.Rank) {
	rs := m.perRank[r.ID()]
	r.AddHook(mpi.Hook{
		Pre: func(rk *mpi.Rank, op mpi.Op, bytes int) {
			rs.mu.Lock()
			defer rs.mu.Unlock()
			// TALP touches every open monitor inside the PMPI wrapper.
			rk.Clock().Advance(int64(rs.openCount) * perOpenRegionMPI)
			rs.lastNs = rk.Clock().Now()
			rs.lastMPI = rk.MPITimeTotal()
			if op == mpi.OpFinalize {
				rs.close(rk, rs.global)
			}
		},
		Post: func(rk *mpi.Rank, op mpi.Op, bytes int, elapsed int64) {
			if op == mpi.OpInit {
				rs.mu.Lock()
				rs.open(rk, rs.global)
				rs.mu.Unlock()
			}
		},
	})
}

// lock returns the calling rank's state, locked.
func (m *Monitor) lock(r *mpi.Rank) *rankState {
	rs := m.perRank[r.ID()]
	rs.mu.Lock()
	return rs
}

// Enter is DynCaPI's region entry (§V-C2). In terms of the paper's
// Listing 2, a region's first entry on this rank is DLB's monitoring-region
// Register call, charged to this rank; registration fails before MPI_Init,
// which disables the region on this rank for good. Every entry is then the
// region's Start: nested and overlapping starts are allowed, and
// re-entering an open region only deepens its nesting. A start may fail in
// bug-compat mode; the region records it. A nil rank or an empty name (an
// unresolved function) records nothing.
func (m *Monitor) Enter(r *mpi.Rank, name string) {
	if r == nil || name == "" {
		return
	}
	rs := m.lock(r)
	defer rs.mu.Unlock()
	reg, seen := rs.regions[name]
	if !seen {
		if !r.Initialized() || r.Finalized() {
			rs.regions[name] = nil
			return
		}
		r.Clock().Advance(registerCost)
		reg = &region{name: name}
		rs.regions[name] = reg
		rs.registered++
	}
	if reg == nil {
		return
	}
	r.Clock().Advance(startCost)
	if reg != rs.global && m.bugHits(rs.registered, name) {
		reg.hitBug = true
		return
	}
	rs.open(r, reg)
}

// Exit is DynCaPI's region exit, Listing 2's Stop: it stops the region if
// it is registered on this rank. A stop without a matching start (a failed
// entry) is ignored.
func (m *Monitor) Exit(r *mpi.Rank, name string) {
	if r == nil || name == "" {
		return
	}
	rs := m.lock(r)
	defer rs.mu.Unlock()
	if reg := rs.regions[name]; reg != nil {
		r.Clock().Advance(stopCost)
		rs.close(r, reg)
	}
}

// bugHits reports whether the emulated re-entry bug fires for this region
// on the rank, which has registered the given number of regions.
func (m *Monitor) bugHits(registered int, name string) bool {
	if !m.opts.EmulateReentryBug || registered < bugMinRegions {
		return false
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32()%bugModulus == 0
}

// open opens one nesting level of the region; rs.mu is held.
func (rs *rankState) open(r *mpi.Rank, reg *region) {
	reg.visits++
	if reg.depth == 0 {
		reg.start = r.Clock().Now()
		reg.mpiSnap = r.MPITimeTotal()
		rs.openCount++
	}
	reg.depth++
	rs.lastNs = r.Clock().Now()
	rs.lastMPI = r.MPITimeTotal()
}

// close closes one nesting level of the region if it is open; rs.mu is
// held.
func (rs *rankState) close(r *mpi.Rank, reg *region) {
	if reg.depth == 0 {
		return
	}
	rs.lastNs = r.Clock().Now()
	rs.lastMPI = r.MPITimeTotal()
	if reg.depth--; reg.depth == 0 {
		rs.accumulate(reg, rs.lastNs, rs.lastMPI)
	}
}

// accumulate closes the region's outermost nesting level at the given
// clock and MPI total, splitting the elapsed time into useful and MPI time;
// rs.mu is held.
func (rs *rankState) accumulate(reg *region, now, mpiTotal int64) {
	rs.openCount--
	elapsed := max(now-reg.start, 0)
	mpiDuring := min(max(mpiTotal-reg.mpiSnap, 0), elapsed)
	reg.elapsed += elapsed
	reg.mpiTime += mpiDuring
	reg.useful += elapsed - mpiDuring
}

// CloseOpen balances the dangling starts of the named region on every rank
// with synthetic stops: the full nesting depth is closed at the rank's last
// observed TALP activity timestamp, the elapsed/MPI split is accumulated
// exactly as a real Exit would, and the open count is corrected. It returns
// the number of dangling starts balanced.
//
// It is safe to call while other ranks measure (per-rank locking); the
// caller must guarantee the region produces no further events — DynCaPI
// calls it under the reconfigure lock after a function is deselected.
func (m *Monitor) CloseOpen(name string) int {
	closed := 0
	for _, rs := range m.perRank {
		rs.mu.Lock()
		if reg := rs.regions[name]; reg != nil && reg.depth > 0 {
			closed += reg.depth
			reg.depth = 0
			rs.accumulate(reg, rs.lastNs, rs.lastMPI)
		}
		rs.mu.Unlock()
	}
	return closed
}

// OpenCount returns the number of regions currently open on a rank. Only
// tests read it, in this package and in dyncapi's: it is their one view of
// a rank's open-region stack.
func (m *Monitor) OpenCount(rank int) int {
	rs := m.perRank[rank]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.openCount
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
	size := len(m.perRank)
	rep := &Report{WorldSize: size}
	byName := map[string]*RegionReport{}
	failedPreInit, failedEntries := map[string]bool{}, map[string]bool{}
	for rank, rs := range m.perRank {
		rs.mu.Lock()
		for name, reg := range rs.regions {
			if reg == nil {
				failedPreInit[name] = true
				continue
			}
			if reg.hitBug {
				failedEntries[name] = true
			}
			if reg.visits == 0 {
				continue
			}
			rr := byName[name]
			if rr == nil {
				rr = &RegionReport{Name: name, PerRank: make([]pop.RankTimes, size)}
				byName[name] = rr
			}
			rr.Visits += reg.visits
			rr.Elapsed = max(rr.Elapsed, reg.elapsed)
			rr.PerRank[rank] = pop.RankTimes{Useful: reg.useful, MPI: reg.mpiTime}
		}
		rs.mu.Unlock()
	}
	for _, rr := range byName {
		rr.Metrics = pop.Compute(rr.PerRank)
		rep.Regions = append(rep.Regions, *rr)
	}
	sort.Slice(rep.Regions, func(i, j int) bool {
		if rep.Regions[i].Elapsed != rep.Regions[j].Elapsed {
			return rep.Regions[i].Elapsed > rep.Regions[j].Elapsed
		}
		return rep.Regions[i].Name < rep.Regions[j].Name
	})
	rep.FailedPreInit = slices.Sorted(maps.Keys(failedPreInit))
	rep.FailedEntries = slices.Sorted(maps.Keys(failedEntries))
	return rep
}
