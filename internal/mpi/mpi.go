// Package mpi is a simulated MPI: ranks run as goroutines with private
// virtual clocks, collectives synchronize those clocks (turning load
// imbalance into waiting time, which is what the POP metrics measure), and
// a PMPI-style interception layer lets tools such as TALP observe every
// call (§III-B of the paper). The simulation is deterministic: virtual time
// depends only on the executed workload and the cost model, never on
// scheduling. Tools keep per-rank state and charge only the calling rank
// (or, from a collective hook, every rank alike), so this holds with them
// attached too; the root package's TestMultiRankDeterministic runs three
// apps under talp, scorep and extrae (openfoam also adaptively) at two and
// four ranks, GOMAXPROCS 1 and 4, and requires every run byte-identical.
package mpi

import (
	"fmt"
	"math/bits"
	"sync"

	"capi/internal/vtime"
)

// Op names a simulated MPI operation.
type Op string

// The supported operations.
const (
	OpInit      Op = "MPI_Init"
	OpFinalize  Op = "MPI_Finalize"
	OpBarrier   Op = "MPI_Barrier"
	OpAllreduce Op = "MPI_Allreduce"
	OpReduce    Op = "MPI_Reduce"
	OpBcast     Op = "MPI_Bcast"
	OpAllgather Op = "MPI_Allgather"
	OpSend      Op = "MPI_Send"
	OpRecv      Op = "MPI_Recv"
	OpIrecv     Op = "MPI_Irecv"
	OpSendrecv  Op = "MPI_Sendrecv"
	OpWaitall   Op = "MPI_Waitall"
)

// CostModel holds the virtual-time costs of MPI operations.
type CostModel struct {
	// PerCall is the software overhead of any MPI call.
	PerCall int64
	// Latency is the point-to-point wire latency.
	Latency int64
	// NsPerByte converts payload size to transfer time.
	NsPerByte float64
	// CollectiveBase is the base cost of a collective, to which a
	// log2(ranks) latency term is added.
	CollectiveBase int64
}

// DefaultCostModel returns costs in the ballpark of a commodity cluster
// interconnect (μs-scale latencies).
func DefaultCostModel() CostModel {
	return CostModel{
		PerCall:        200 * vtime.Nanosecond,
		Latency:        1500 * vtime.Nanosecond,
		NsPerByte:      0.1, // ~10 GB/s
		CollectiveBase: 2500 * vtime.Nanosecond,
	}
}

// Hook is a PMPI interceptor: Pre runs when the rank enters the MPI call,
// Post when it returns, with the call's elapsed virtual time (including any
// synchronization wait).
type Hook struct {
	Pre  func(r *Rank, op Op, bytes int)
	Post func(r *Rank, op Op, bytes int, elapsed int64)
}

type chanKey struct {
	src, dst, tag int
}

// request is a pending non-blocking receive, completed by Waitall.
type request struct {
	key   chanKey
	bytes int
}

type message struct {
	sendTime int64
	bytes    int
}

// World is one simulated MPI job.
type World struct {
	size int
	cost CostModel

	ranks []*Rank
	coll  *rendezvous

	mu    sync.Mutex
	chans map[chanKey]chan message

	abortOnce sync.Once
	abortCh   chan struct{}
	abortErr  error
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int, cost CostModel) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", size)
	}
	w := &World{
		size:    size,
		cost:    cost,
		chans:   map[chanKey]chan message{},
		abortCh: make(chan struct{}),
	}
	w.coll = newRendezvous(size, w.abortCh)
	for i := 0; i < size; i++ {
		w.ranks = append(w.ranks, &Rank{id: i, w: w})
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// SetCollectiveHook registers f, which the last rank to reach a collective
// runs while the others wait there, with the collective's time (the ranks'
// latest clock). f must not depend on which rank arrived last. Every rank
// leaves the collective the returned charge later. Set it before Run.
func (w *World) SetCollectiveHook(f func(atNs int64) (chargeNs int64)) { w.coll.hook = f }

// Rank returns rank i (valid after NewWorld, before/after Run).
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Ranks returns all ranks in order.
func (w *World) Ranks() []*Rank { return w.ranks }

// Seconds returns the world's virtual runtime: the latest rank clock.
func (w *World) Seconds() float64 {
	var s float64
	for _, r := range w.ranks {
		s = max(s, r.Clock().Seconds())
	}
	return s
}

// abort poisons the world so blocked ranks wake up with an error.
func (w *World) abort(err error) {
	w.abortOnce.Do(func() {
		w.abortErr = err
		close(w.abortCh)
		w.coll.abort()
	})
}

// Run executes body once per rank, concurrently, and waits for all ranks.
// The first error (or panic, converted to an error) aborts the world and is
// returned.
func (w *World) Run(body func(*Rank) error) error {
	var wg sync.WaitGroup
	for _, r := range w.ranks {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					w.abort(fmt.Errorf("mpi: rank %d panicked: %v", r.id, p))
				}
			}()
			if err := body(r); err != nil {
				w.abort(fmt.Errorf("mpi: rank %d: %w", r.id, err))
			}
		}(r)
	}
	wg.Wait()
	return w.abortErr
}

func (w *World) channel(key chanKey) chan message {
	w.mu.Lock()
	defer w.mu.Unlock()
	ch, ok := w.chans[key]
	if !ok {
		ch = make(chan message, 4096)
		w.chans[key] = ch
	}
	return ch
}

// Rank is one simulated MPI process. All methods must be called from the
// goroutine Run dedicates to the rank.
type Rank struct {
	id int
	w  *World

	clk         vtime.Clock
	initialized bool
	finalized   bool
	pending     []request

	hooks []Hook

	totalMPI int64
}

// NewReplayRank returns a detached rank that replays recorded state instead
// of executing: its clock is pinned (cost charges are no-ops, only
// SetReplayState moves it) and it never participates in communication. The
// async event pipeline hands replay ranks to measurement backends so that
// events recorded on the real rank goroutines can be delivered off the hot
// path with exactly the recorded timestamps, MPI-time totals and
// initialization state. The replay rank carries a private stub world sized
// worldSize (it answers WorldSize, nothing else); it never shares the clock
// or call state of the real rank with the same id. Exactly one consumer
// goroutine may own a replay rank.
func NewReplayRank(id, worldSize int) *Rank {
	if worldSize < 1 {
		worldSize = 1
	}
	r := &Rank{id: id, w: &World{size: worldSize}}
	r.clk.Pin()
	return r
}

// SetReplayState aligns a replay rank with one recorded event: the pinned
// clock jumps to the recorded timestamp and the MPI-time total and
// initialization flags take the values the real rank had when the event was
// recorded. Only the owning consumer goroutine may call it, and only on
// ranks created by NewReplayRank.
func (r *Rank) SetReplayState(nowNs, mpiTotal int64, initialized, finalized bool) {
	r.clk.Jump(nowNs)
	r.totalMPI = mpiTotal
	r.initialized = initialized
	r.finalized = finalized
}

// ID returns the rank number (0-based). Named to compose with
// xray.ThreadCtx implementations that embed a Rank.
func (r *Rank) ID() int { return r.id }

// WorldSize returns the number of ranks in the world.
func (r *Rank) WorldSize() int { return r.w.size }

// Clock returns the rank's virtual clock.
func (r *Rank) Clock() *vtime.Clock { return &r.clk }

// Initialized reports whether MPI_Init has completed on this rank — the
// gate TALP's region registration checks (§VI-B(b)).
func (r *Rank) Initialized() bool { return r.initialized }

// Finalized reports whether MPI_Finalize has completed on this rank.
func (r *Rank) Finalized() bool { return r.finalized }

// MPITimeTotal returns the cumulative virtual time this rank has spent
// inside MPI calls.
func (r *Rank) MPITimeTotal() int64 { return r.totalMPI }

// AddHook registers a PMPI interceptor on this rank.
func (r *Rank) AddHook(h Hook) { r.hooks = append(r.hooks, h) }

// call wraps an MPI operation body with PMPI hooks, per-call cost and
// MPI-time accounting.
func (r *Rank) call(op Op, bytes int, body func() error) error {
	if r.finalized {
		return fmt.Errorf("mpi: rank %d: %s after MPI_Finalize", r.id, op)
	}
	if !r.initialized && op != OpInit {
		return fmt.Errorf("mpi: rank %d: %s before MPI_Init", r.id, op)
	}
	for _, h := range r.hooks {
		if h.Pre != nil {
			h.Pre(r, op, bytes)
		}
	}
	start := r.clk.Now()
	r.clk.Advance(r.w.cost.PerCall)
	if err := body(); err != nil {
		r.w.abort(err)
		return err
	}
	elapsed := r.clk.Now() - start
	r.totalMPI += elapsed
	for _, h := range r.hooks {
		if h.Post != nil {
			h.Post(r, op, bytes, elapsed)
		}
	}
	return nil
}

// collectiveCost returns the modelled cost of a collective over the world.
func (w *World) collectiveCost(bytes int) int64 {
	hops := int64(bits.Len(uint(w.size - 1))) // ceil(log2(size))
	return w.cost.CollectiveBase + hops*w.cost.Latency + int64(float64(bytes)*w.cost.NsPerByte)
}

// Init performs MPI_Init: all ranks synchronize and are marked initialized.
func (r *Rank) Init() error {
	if r.initialized {
		return fmt.Errorf("mpi: rank %d: double MPI_Init", r.id)
	}
	return r.call(OpInit, 0, func() error {
		t, err := r.w.coll.sync(r.clk.Now())
		if err != nil {
			return err
		}
		r.clk.AdvanceTo(t + r.w.collectiveCost(0))
		r.initialized = true
		return nil
	})
}

// Finalize performs MPI_Finalize.
func (r *Rank) Finalize() error {
	return r.call(OpFinalize, 0, func() error {
		t, err := r.w.coll.sync(r.clk.Now())
		if err != nil {
			return err
		}
		r.clk.AdvanceTo(t + r.w.collectiveCost(0))
		r.finalized = true
		return nil
	})
}

// Barrier synchronizes all ranks.
func (r *Rank) Barrier() error {
	return r.call(OpBarrier, 0, r.collectiveBody(OpBarrier, 0))
}

// Allreduce combines bytes across all ranks and distributes the result.
func (r *Rank) Allreduce(bytes int) error {
	return r.call(OpAllreduce, bytes, r.collectiveBody(OpAllreduce, bytes))
}

// Reduce combines bytes towards a root rank.
func (r *Rank) Reduce(bytes int) error {
	return r.call(OpReduce, bytes, r.collectiveBody(OpReduce, bytes))
}

// Bcast broadcasts bytes from a root rank.
func (r *Rank) Bcast(bytes int) error {
	return r.call(OpBcast, bytes, r.collectiveBody(OpBcast, bytes))
}

// Allgather gathers bytes from every rank on every rank.
func (r *Rank) Allgather(bytes int) error {
	return r.call(OpAllgather, bytes, r.collectiveBody(OpAllgather, bytes*r.w.size))
}

func (r *Rank) collectiveBody(op Op, bytes int) func() error {
	return func() error {
		t, err := r.w.coll.sync(r.clk.Now())
		if err != nil {
			return err
		}
		r.clk.AdvanceTo(t + r.w.collectiveCost(bytes))
		return nil
	}
}

// Send posts a message to dst (eager/buffered semantics: the sender does
// not wait for the receiver).
func (r *Rank) Send(dst, tag, bytes int) error {
	if dst < 0 || dst >= r.w.size {
		return fmt.Errorf("mpi: rank %d: send to invalid rank %d", r.id, dst)
	}
	return r.call(OpSend, bytes, func() error {
		ch := r.w.channel(chanKey{src: r.id, dst: dst, tag: tag})
		select {
		case ch <- message{sendTime: r.clk.Now(), bytes: bytes}:
		case <-r.w.abortCh:
			return fmt.Errorf("mpi: aborted")
		}
		r.clk.Advance(int64(float64(bytes) * r.w.cost.NsPerByte / 2))
		return nil
	})
}

// Recv receives a message from src; the rank's clock advances to the
// message arrival time (transfer complete) if it arrives "late".
func (r *Rank) Recv(src, tag, bytes int) error {
	if src < 0 || src >= r.w.size {
		return fmt.Errorf("mpi: rank %d: recv from invalid rank %d", r.id, src)
	}
	return r.call(OpRecv, bytes, func() error {
		ch := r.w.channel(chanKey{src: src, dst: r.id, tag: tag})
		select {
		case m := <-ch:
			arrival := m.sendTime + r.w.cost.Latency + int64(float64(m.bytes)*r.w.cost.NsPerByte)
			r.clk.AdvanceTo(arrival)
		case <-r.w.abortCh:
			return fmt.Errorf("mpi: aborted")
		}
		return nil
	})
}

// Irecv posts a non-blocking receive from src: the call records the request
// and returns immediately; the message is awaited by Waitall. This is the
// pattern LULESH-style halo exchanges use (post receives, send, wait).
func (r *Rank) Irecv(src, tag, bytes int) error {
	if src < 0 || src >= r.w.size {
		return fmt.Errorf("mpi: rank %d: irecv from invalid rank %d", r.id, src)
	}
	return r.call(OpIrecv, bytes, func() error {
		r.pending = append(r.pending, request{
			key:   chanKey{src: src, dst: r.id, tag: tag},
			bytes: bytes,
		})
		return nil
	})
}

// Waitall completes every pending non-blocking receive, advancing the clock
// to the latest message arrival. It is a no-op when nothing is pending.
func (r *Rank) Waitall() error {
	return r.call(OpWaitall, 0, func() error {
		for _, req := range r.pending {
			ch := r.w.channel(req.key)
			select {
			case m := <-ch:
				arrival := m.sendTime + r.w.cost.Latency + int64(float64(m.bytes)*r.w.cost.NsPerByte)
				r.clk.AdvanceTo(arrival)
			case <-r.w.abortCh:
				return fmt.Errorf("mpi: aborted")
			}
		}
		r.pending = r.pending[:0]
		return nil
	})
}

// Sendrecv exchanges messages with two peers (possibly the same) without
// deadlock: the send is buffered, then the receive blocks.
func (r *Rank) Sendrecv(dst, src, tag, bytes int) error {
	if err := r.Send(dst, tag, bytes); err != nil {
		return err
	}
	return r.Recv(src, tag, bytes)
}

// rendezvous is a reusable all-ranks barrier computing the maximum of the
// ranks' clock values per generation, plus the charge its hook returns.
type rendezvous struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	count   int
	gen     uint64
	maxTime int64
	result  int64
	aborted bool
	abortCh chan struct{}
	hook    func(atNs int64) (chargeNs int64) // set before Run; nil = none
}

func newRendezvous(size int, abortCh chan struct{}) *rendezvous {
	rv := &rendezvous{size: size, abortCh: abortCh}
	rv.cond = sync.NewCond(&rv.mu)
	return rv
}

func (rv *rendezvous) abort() {
	rv.mu.Lock()
	rv.aborted = true
	rv.cond.Broadcast()
	rv.mu.Unlock()
}

// sync blocks until all ranks of the current generation arrived and returns
// the maximum submitted time plus the hook's charge, which the last rank
// computes before it releases the others.
func (rv *rendezvous) sync(t int64) (int64, error) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.aborted {
		return 0, fmt.Errorf("mpi: aborted")
	}
	gen := rv.gen
	if t > rv.maxTime {
		rv.maxTime = t
	}
	rv.count++
	if rv.count == rv.size {
		rv.result = rv.maxTime
		if rv.hook != nil {
			rv.result += rv.hook(rv.maxTime)
		}
		rv.count = 0
		rv.maxTime = 0
		rv.gen++
		rv.cond.Broadcast()
		return rv.result, nil
	}
	for gen == rv.gen && !rv.aborted {
		rv.cond.Wait()
	}
	if rv.aborted {
		return 0, fmt.Errorf("mpi: aborted")
	}
	return rv.result, nil
}
