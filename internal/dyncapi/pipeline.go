// The asynchronous event pipeline: the stage that lifts the measurement
// backends off the dispatch hot path. In inline mode the XRay handler runs
// the whole backend chain on the executing rank — every event pays the
// backend's bookkeeping before the application continues. In async mode
// (Options.Async) the handler only appends a compact fixed-size record
// (function ID, event kind, recorded timestamps, MPI/initialization state)
// to a per-rank single-writer ring — the design proven in internal/trace —
// and returns; a small pool of consumer goroutines drains the rings in
// batches and feeds the existing Backend/Mux chain off the hot path.
//
// Ordering. Consumers are shard-affine: every rank's ring is drained by
// exactly one consumer, so per-rank event order is preserved — Score-P's
// call stacks stay balanced, TALP's start/stop pairs match, and the extrae
// tracer sees monotonic per-rank timestamps. No cross-rank order is imposed
// (none is needed; every backend keeps per-rank state).
//
// Replay contexts. Backends read the executing context's clock, rank ID and
// (TALP) the *mpi.Rank. The appender therefore records the rank clock, the
// MPI-time total and the initialization flags at dispatch time; the consumer
// replays each event through a per-rank replay context whose pinned clock is
// jumped to the recorded timestamp. Pinning makes the backend's own cost
// charges (Clock().Advance) no-ops — the probe's measurement cost no longer
// advances application virtual time, which is exactly the asynchrony the
// pipeline models. Two context flavors honor what the original context
// supported: one carrying a detached replay *mpi.Rank (for contexts that
// implemented mpiRanker) and one without.
//
// Back-pressure. The ring is bounded. Admission happens at enter events
// only, and reserves one slot for the exit of every currently open appended
// enter, so the exit of an appended enter always fits — pairs are appended
// whole or dropped whole. Every enter records its decision in the rank's
// pairStack, so the exit of a dropped enter is silently skipped at any
// depth, and each dropped pair increments the rank's DroppedAsync counter
// once. The conservation identity therefore survives asynchrony:
//
//	enters == delivered + sampledOut + suppressed + collapsed + droppedAsync
//
// where delivered is what actually reaches the backend chain.
//
// Barriers. DrainPipeline blocks until every event appended before the call
// has been delivered. Instance.Run drains before capturing RunResult;
// Reconfigure and SwapBackend drain before delivering synthetic exits /
// detaching, so dangling-state closure acts on fully caught-up backends.
package dyncapi

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"capi/internal/mpi"
	"capi/internal/vtime"
	"capi/internal/xray"
)

// DefaultAsyncBuf is the default per-rank ring capacity (events).
const DefaultAsyncBuf = 65536

// asyncMaxConsumers caps the consumer pool; shards are distributed
// round-robin over the pool, keeping each shard on exactly one consumer.
const asyncMaxConsumers = 4

// asyncPollInterval is how long an idle consumer sleeps before re-checking
// its shards. Short enough that drain barriers complete promptly, long
// enough that an idle pipeline costs nothing measurable.
const asyncPollInterval = 20 * time.Microsecond

// Event flag bits recorded at append time.
const (
	evHasRank     = 1 << iota // the dispatch context implemented mpiRanker
	evInitialized             // MPI_Init had completed on the rank
	evFinalized               // MPI_Finalize had completed on the rank
)

// asyncEvent is the compact fixed-size record the append-only handler
// writes: everything a backend may read from the executing context, captured
// on the rank goroutine where those reads are single-writer safe.
type asyncEvent struct {
	timeNs int64 // rank clock at dispatch
	mpiNs  int64 // rank's cumulative MPI time (valid when evHasRank)
	id     int32 // packed function ID
	kind   xray.EntryType
	flags  uint8
}

// pipeShard is one rank's ring. Concurrency contract: head, the ring slots
// and the pair-decision state are written only by the rank's own goroutine
// (the same single-writer contract internal/trace shards have); tail is
// written only by the shard's consumer. head/tail are atomics so the two
// sides and the drain barriers synchronize without locks.
type pipeShard struct {
	ring []asyncEvent // written by the rank goroutine, read by the consumer
	mask uint64

	// Producer-owned cache line: head plus the rank-goroutine-private
	// admission state. cachedTail is the producer's last-seen consumer
	// position — admission re-reads the shared tail only when the cached
	// view says the ring is too full, keeping the common-case append off
	// the consumer-written line entirely. pairs records appended/dropped
	// per open enter; spill holds its words past 64 frames.
	head       atomic.Uint64 // events appended (writer publishes after the slot write)
	cachedTail uint64
	pairs      pairStack
	spill      []uint64
	_          [8]byte // keep the consumer-written tail off the producer's line

	// Consumer-owned cache line.
	tail atomic.Uint64 // events consumed (consumer publishes after delivery)
	_    [56]byte

	// droppedPairs counts enter/exit pairs rejected because the ring was
	// full — the explicit back-pressure accounting (DroppedAsync). Written
	// by the producer (rarely: once per dropped pair), read by scrapers.
	// droppedExits counts the much rarer orphan case: an exit with no
	// recorded enter (sled patched mid-call) hitting a full ring. It is kept
	// out of droppedPairs because the conservation identity is stated in
	// enter units — an orphan exit never lost an enter.
	droppedPairs atomic.Int64
	droppedExits atomic.Int64

	// Replay contexts, consumer-private.
	rankCtx *replayRankCtx
	bareCtx *replayCtx
}

// replayCtx replays recorded events for dispatch contexts without an MPI
// rank: a pinned clock jumped to each event's recorded timestamp.
type replayCtx struct {
	rankID int
	clk    vtime.Clock
}

func (c *replayCtx) RankID() int         { return c.rankID }
func (c *replayCtx) Clock() *vtime.Clock { return &c.clk }

// replayRankCtx replays recorded events for contexts that implemented
// mpiRanker: it carries a detached replay *mpi.Rank so TALP can register and
// start/stop regions against the recorded rank state.
type replayRankCtx struct {
	rank *mpi.Rank
}

func (c *replayRankCtx) RankID() int         { return c.rank.ID() }
func (c *replayRankCtx) Clock() *vtime.Clock { return c.rank.Clock() }
func (c *replayRankCtx) MPIRank() *mpi.Rank  { return c.rank }

// pipeline is the bounded per-rank ring set plus its consumer pool.
type pipeline struct {
	rt     *Runtime
	shards []*pipeShard
	closed atomic.Bool
	wg     sync.WaitGroup
}

// newPipeline builds the rings and starts the shard-affine consumer pool.
// buf is the per-rank ring capacity, rounded up to a power of two (minimum
// 8; 0 means DefaultAsyncBuf). ranks is Options.Ranks, one shard each.
func newPipeline(rt *Runtime, ranks, buf int) *pipeline {
	if buf <= 0 {
		buf = DefaultAsyncBuf
	}
	capacity := 8
	for capacity < buf {
		capacity <<= 1
	}
	p := &pipeline{rt: rt}
	for i := 0; i < ranks; i++ {
		s := &pipeShard{
			ring:    make([]asyncEvent, capacity),
			mask:    uint64(capacity - 1),
			rankCtx: &replayRankCtx{rank: mpi.NewReplayRank(i, ranks)},
			bareCtx: &replayCtx{rankID: i},
		}
		s.bareCtx.clk.Pin()
		p.shards = append(p.shards, s)
	}
	consumers := len(p.shards)
	if consumers > asyncMaxConsumers {
		consumers = asyncMaxConsumers
	}
	for c := 0; c < consumers; c++ {
		var owned []*pipeShard
		for i := c; i < len(p.shards); i += consumers {
			owned = append(owned, p.shards[i])
		}
		p.wg.Add(1)
		go p.consume(owned)
	}
	return p
}

// append records one admitted event into the rank's ring — the entire
// per-event cost async mode adds to the hot path: a handful of plain field
// operations plus two atomic loads and one atomic store. Only the rank's own
// goroutine may call it for its shard; there is one shard per rank the
// runtime was sized for (Options.Ranks).
//
//capi:hotpath
func (p *pipeline) append(tc xray.ThreadCtx, rf *ResolvedFunc, kind xray.EntryType) {
	s := p.shards[tc.RankID()]
	head := s.head.Load()
	if kind == xray.Entry {
		// Reserve this enter, its exit, one spare and the exit of every open
		// enter (counting dropped ones: a safe, branch-free over-reservation).
		// The check runs against the producer's cached view of the consumer
		// position first and touches the shared tail only when that view
		// says the ring is too full — the consumer only moves forward.
		need, fits := uint64(s.pairs.depth)+3, true
		if uint64(len(s.ring))-(head-s.cachedTail) < need {
			s.cachedTail = s.tail.Load()
			fits = uint64(len(s.ring))-(head-s.cachedTail) >= need
		}
		s.pairs.push(fits, &s.spill)
		if !fits {
			s.droppedPairs.Add(1)
			return
		}
	} else {
		if appended, ok := s.pairs.pop(&s.spill); ok {
			if !appended {
				return // its enter was dropped; the pair was counted there
			}
		} else if uint64(len(s.ring))-(head-s.cachedTail) == 0 {
			s.cachedTail = s.tail.Load()
			if uint64(len(s.ring))-(head-s.cachedTail) == 0 {
				// An exit with no recorded enter (sled patched mid-call) and
				// a full ring: drop it — there is no reservation to honor.
				s.droppedExits.Add(1)
				return
			}
		}
	}
	ev := &s.ring[head&s.mask]
	ev.timeNs = tc.Clock().Now()
	ev.id = rf.PackedID
	ev.kind = kind
	flags := uint8(0)
	mpiNs := int64(0)
	if mr, ok := tc.(mpiRanker); ok {
		if r := mr.MPIRank(); r != nil {
			flags = evHasRank
			mpiNs = r.MPITimeTotal()
			if r.Initialized() {
				flags |= evInitialized
			}
			if r.Finalized() {
				flags |= evFinalized
			}
		}
	}
	ev.mpiNs = mpiNs
	ev.flags = flags
	s.head.Store(head + 1)
}

// consume is one pool worker's loop: drain every owned shard, sleep briefly
// when all are empty, exit when the pipeline is closed and drained.
//
//capi:coldpath
func (p *pipeline) consume(shards []*pipeShard) {
	defer p.wg.Done()
	for {
		worked := false
		for _, s := range shards {
			if p.drainShard(s) > 0 {
				worked = true
			}
		}
		if worked {
			continue
		}
		if p.closed.Load() {
			// Closed and every owned shard observed empty in one sweep.
			return
		}
		time.Sleep(asyncPollInterval)
	}
}

// asyncTailBatch is how many delivered events the consumer batches into one
// tail publication. Per-event stores would invalidate the tail's cache line
// under the producer constantly — a full ring makes the producer re-read
// tail on every admission check, so per-event stores turn saturation into
// line ping-pong on the hot path. Batching keeps the line shared (clean)
// for 64 admission checks at a time; barriers and slot reuse only need the
// store to happen after delivery, not after *each* delivery.
const asyncTailBatch = 64

// drainShard delivers every event currently in the shard through the
// backend chain, publishing tail every asyncTailBatch events (and once at
// the end) so drain barriers observe progress promptly without per-event
// coherence traffic. The chain's sink is re-loaded per event, mirroring
// inline dispatch, so a SwapBackend takes effect for queued events at
// delivery time.
func (p *pipeline) drainShard(s *pipeShard) int {
	head := s.head.Load()
	tail := s.tail.Load()
	if tail == head {
		return 0
	}
	rt := p.rt
	for i := tail; i != head; i++ {
		ev := &s.ring[i&s.mask]
		rf := rt.slot(ev.id)
		var tc xray.ThreadCtx
		if ev.flags&evHasRank != 0 {
			r := s.rankCtx.rank
			r.SetReplayState(ev.timeNs, ev.mpiNs, ev.flags&evInitialized != 0, ev.flags&evFinalized != 0)
			tc = s.rankCtx
		} else {
			s.bareCtx.clk.Jump(ev.timeNs)
			tc = s.bareCtx
		}
		sink := rt.chain.Load().sink
		if ev.kind == xray.Entry {
			sink.OnEnter(tc, rf)
		} else {
			sink.OnExit(tc, rf)
		}
		if (i+1-tail)&(asyncTailBatch-1) == 0 {
			s.tail.Store(i + 1)
		}
	}
	s.tail.Store(head)
	return int(head - tail)
}

// drain blocks until every event appended before the call has been
// delivered: per shard, snapshot the appended count, then wait for the
// consumed count to reach it. Safe to call concurrently with appending
// ranks — later appends are not waited for.
func (p *pipeline) drain() {
	for _, s := range p.shards {
		target := s.head.Load()
		for s.tail.Load() < target {
			runtime.Gosched()
		}
	}
}

// close drains the pipeline and stops the consumer pool. Callers must
// guarantee no further appends (quiescent, like FlushSampling).
func (p *pipeline) close() {
	if p.closed.Swap(true) {
		return
	}
	p.wg.Wait()
}

// depth sums the events currently queued across all shards.
func (p *pipeline) depthNow() int64 {
	var d int64
	for _, s := range p.shards {
		d += int64(s.head.Load() - s.tail.Load())
	}
	return d
}

// ringCap returns the effective per-rank ring capacity in events (the
// configured AsyncBuf rounded up to a power of two) — what a ring-sizing
// hint doubles from.
func (p *pipeline) ringCap() int {
	return len(p.shards[0].ring)
}

// dropped sums the pairs rejected by back-pressure across all shards.
func (p *pipeline) dropped() int64 {
	var d int64
	for _, s := range p.shards {
		d += s.droppedPairs.Load()
	}
	return d
}

// droppedOrphanExits sums the orphan exits (no recorded enter, full ring)
// rejected across all shards — tracked apart from the pair drops so the
// enter-unit conservation identity stays exact.
func (p *pipeline) droppedOrphanExits() int64 {
	var d int64
	for _, s := range p.shards {
		d += s.droppedExits.Load()
	}
	return d
}
