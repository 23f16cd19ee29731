// Package trace implements the Extrae-style event-tracing substrate the
// paper's runtime feeds alongside Score-P profiles and TALP region metrics:
// instead of aggregating, every instrumentation event is recorded as a
// timestamped trace record, which stresses the dispatch hot path far harder
// than aggregation does and enables post-mortem timeline analysis.
//
// The design follows what keeps real tracers cheap per event:
//
//   - per-rank *sharded* ring buffers — each rank appends to its own shard,
//     so the enter/exit hot path takes no lock and shares no cache line
//     with other ranks (cf. redundancy-suppression tracers that keep the
//     per-event cost bounded);
//   - *batched* flush — a full ring is written out as one immutable segment
//     (the model of Extrae's buffer-to-disk flush), amortizing the flush
//     cost over BufEvents events;
//   - explicit capacity accounting — when a shard exceeds its retained
//     budget the buffer either drops new events or wraps (discards the
//     oldest segment), and both are counted, so trace completeness can be
//     asserted instead of guessed (trace-volume control à la adaptive
//     sampling monitors).
//
// Concurrency contract: a shard is single-writer. Each simulated rank is
// driven by exactly one goroutine (the same contract vtime.Clock has), so
// Append never contends with another writer. Every shard carries a small
// mutex held across one append or one snapshot, which lets Report run
// *concurrently with the writers* — the control plane scrapes a live trace
// mid-phase. A report taken mid-run is per-shard consistent (each shard is
// snapshotted atomically); shards may be observed at slightly different
// points of virtual time.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"capi/internal/vtime"
)

// Kind tells whether a record is a region entry or exit.
type Kind uint8

// Enter and Exit record kinds.
const (
	Enter Kind = iota
	Exit
)

func (k Kind) String() string {
	if k == Enter {
		return "enter"
	}
	return "exit"
}

// Event is one trace record in a rank's shard.
type Event struct {
	TimeNs int64
	ID     int32
	Kind   Kind
	Name   string
}

// Options configures a Buffer.
type Options struct {
	// Ranks is the number of shards (one per simulated rank).
	Ranks int
	// BufEvents is the ring capacity per rank — the flush batch size.
	// Default 4096.
	BufEvents int
	// MaxEvents bounds the events *retained* per rank across flushed
	// segments and the active ring. 0 means unbounded. Eviction works at
	// segment granularity, so wrap mode may briefly hold up to one extra
	// ring beyond the budget; BufEvents is clamped to MaxEvents so the
	// excess never exceeds the budget itself.
	MaxEvents int
	// Wrap selects what happens when MaxEvents is exceeded: false drops
	// new events (counted per shard), true discards the oldest flushed
	// segment (a wrap, also counted) so the trace keeps the newest window.
	Wrap bool
}

// shard is one rank's private trace state. Single-writer: only the owning
// rank's goroutine may Append; see the package comment.
type shard struct {
	// mu serializes one append against one report snapshot. Writers never
	// contend with each other (single-writer), so the hot path pays an
	// uncontended lock/unlock.
	mu   sync.Mutex
	ring []Event   //capi:guardedby mu
	n    int       //capi:guardedby mu
	segs [][]Event //capi:guardedby mu

	// held counts the events currently retained (flushed segments plus the
	// active ring); recorded = held + wrapped.
	held    int64    //capi:guardedby mu
	kind    [2]int64 //capi:guardedby mu
	dropped int64    //capi:guardedby mu
	wrapped int64    //capi:guardedby mu
	wraps   int64    //capi:guardedby mu
	flushes int64    //capi:guardedby mu

	// free recycles the backing array of the most recently evicted segment
	// as the next ring, so steady-state wrap mode allocates nothing.
	free []Event //capi:guardedby mu
}

// Buffer is a sharded trace buffer: one ring per rank, flushed in batches
// into per-rank segments.
type Buffer struct {
	opts   Options
	shards []*shard
	// dropLimit is MaxEvents under the drop policy, unbounded otherwise —
	// precomputed so the hot path pays one compare.
	dropLimit int64
}

// New creates a buffer with one shard per rank.
func New(opts Options) (*Buffer, error) {
	if opts.Ranks < 1 {
		return nil, fmt.Errorf("trace: ranks %d < 1", opts.Ranks)
	}
	if opts.BufEvents <= 0 {
		opts.BufEvents = 4096
	}
	if opts.MaxEvents > 0 && opts.BufEvents > opts.MaxEvents {
		opts.BufEvents = opts.MaxEvents
	}
	b := &Buffer{opts: opts, dropLimit: int64(^uint64(0) >> 1)}
	if opts.MaxEvents > 0 && !opts.Wrap {
		b.dropLimit = int64(opts.MaxEvents)
	}
	for i := 0; i < opts.Ranks; i++ {
		b.shards = append(b.shards, &shard{ring: make([]Event, opts.BufEvents)})
	}
	return b, nil
}

// Ranks returns the number of shards.
func (b *Buffer) Ranks() int { return len(b.shards) }

// Append records one event into the rank's shard. It reports whether the
// append flushed a full ring into a segment, so the caller can charge the
// flush stall to the executing rank. Only the rank's own goroutine may call
// Append for its shard.
//
//capi:hotpath
func (b *Buffer) Append(rank int, t int64, id int32, name string, k Kind) bool {
	s := b.shards[rank]
	//capi:hotpath-ok single-writer shard lock: uncontended by contract, only a Report snapshot ever waits on it
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.held >= b.dropLimit {
		s.dropped++
		return false
	}
	flushed := false
	if s.n == len(s.ring) {
		s.flush(&b.opts)
		flushed = true
	}
	s.ring[s.n] = Event{TimeNs: t, ID: id, Kind: k, Name: name}
	s.n++
	s.held++
	s.kind[k&1]++
	return flushed
}

// flush seals the active ring as an immutable segment (a pointer swap, no
// copy) and, in wrap mode, evicts the oldest segments beyond the retained
// budget — recycling an evicted backing array as the next ring, so
// steady-state tracing allocates nothing. The newest segment is never
// evicted. Callers hold s.mu; the amortized segment bookkeeping is the
// reviewed out-of-line slow path of Append.
//
//capi:coldpath
//capi:locked mu
func (s *shard) flush(opts *Options) {
	if s.n == 0 {
		return
	}
	s.segs = append(s.segs, s.ring[:s.n:s.n])
	s.n = 0
	s.flushes++
	if opts.MaxEvents > 0 && opts.Wrap {
		for s.held > int64(opts.MaxEvents) && len(s.segs) > 1 {
			old := s.segs[0]
			s.wrapped += int64(len(old))
			s.held -= int64(len(old))
			s.segs = s.segs[1:]
			s.wraps++
			if cap(old) >= opts.BufEvents {
				s.free = old[:cap(old)]
			}
		}
	}
	if s.free != nil && cap(s.free) >= opts.BufEvents {
		s.ring = s.free[:opts.BufEvents]
		s.free = nil
	} else {
		s.ring = make([]Event, opts.BufEvents)
	}
}

// retainedEvents returns the shard's surviving records in time order
// (segments are appended in order and each rank's clock is monotonic).
// Callers must hold s.mu.
//
//capi:locked mu
func (s *shard) retainedEvents() []Event {
	out := make([]Event, 0, s.held)
	for _, seg := range s.segs {
		out = append(out, seg...)
	}
	out = append(out, s.ring[:s.n]...)
	return out
}

// RankSummary is the per-rank accounting of one trace.
type RankSummary struct {
	Rank     int
	Recorded int64 // events accepted into the ring
	Retained int64 // still held after wrap eviction
	Enters   int64
	Exits    int64
	Dropped  int64 // rejected: retained budget exhausted (drop policy)
	Wrapped  int64 // discarded by wrap eviction, oldest first
	Wraps    int64 // eviction operations (whole segments)
	Flushes  int64 // ring-to-segment write-outs
}

// FuncCount aggregates the retained records of one function.
type FuncCount struct {
	ID     int32
	Name   string
	Enters int64
	Exits  int64
}

// TimelineEvent is one record of the merged, virtual-time-ordered timeline.
type TimelineEvent struct {
	TimeNs int64
	Rank   int
	ID     int32
	Kind   Kind
	Name   string
}

// Report is the end-of-run trace summary.
type Report struct {
	Ranks []RankSummary
	// Totals over all ranks.
	Recorded int64
	Retained int64
	Dropped  int64
	Wrapped  int64
	// ByFunc aggregates the *retained* records per function, sorted by
	// descending event count then ID.
	ByFunc []FuncCount
	// Timeline is the virtual-time-ordered merge of every rank's retained
	// records (ties broken by rank).
	Timeline []TimelineEvent
}

// Report builds the merged trace report. It is read-only (partial rings are
// included without flushing them) and safe to call while the writers are
// still appending: each shard is snapshotted under its lock, so a mid-run
// report is per-shard consistent — the control plane's live scrape.
func (b *Buffer) Report() *Report {
	rep := &Report{}
	perRank := make([][]Event, len(b.shards))
	for i, s := range b.shards {
		s.mu.Lock()
		perRank[i] = s.retainedEvents()
		rs := RankSummary{
			Rank:     i,
			Recorded: s.held + s.wrapped,
			Retained: int64(len(perRank[i])),
			Enters:   s.kind[Enter],
			Exits:    s.kind[Exit],
			Dropped:  s.dropped,
			Wrapped:  s.wrapped,
			Wraps:    s.wraps,
			Flushes:  s.flushes,
		}
		s.mu.Unlock()
		rep.Ranks = append(rep.Ranks, rs)
		rep.Recorded += rs.Recorded
		rep.Retained += rs.Retained
		rep.Dropped += rs.Dropped
		rep.Wrapped += rs.Wrapped
	}
	rep.Timeline = mergeTimeline(perRank)
	byFunc := map[int32]*FuncCount{}
	for _, ev := range rep.Timeline {
		fc, ok := byFunc[ev.ID]
		if !ok {
			fc = &FuncCount{ID: ev.ID, Name: ev.Name}
			byFunc[ev.ID] = fc
		}
		if ev.Kind == Enter {
			fc.Enters++
		} else {
			fc.Exits++
		}
	}
	for _, fc := range byFunc {
		rep.ByFunc = append(rep.ByFunc, *fc)
	}
	sort.Slice(rep.ByFunc, func(i, j int) bool {
		ei, ej := rep.ByFunc[i].Enters+rep.ByFunc[i].Exits, rep.ByFunc[j].Enters+rep.ByFunc[j].Exits
		if ei != ej {
			return ei > ej
		}
		return rep.ByFunc[i].ID < rep.ByFunc[j].ID
	})
	return rep
}

// mergeTimeline k-way-merges the per-rank streams (each already
// time-ordered) into one virtual-time-ordered timeline.
func mergeTimeline(perRank [][]Event) []TimelineEvent {
	total := 0
	for _, evs := range perRank {
		total += len(evs)
	}
	out := make([]TimelineEvent, 0, total)
	idx := make([]int, len(perRank))
	for len(out) < total {
		best := -1
		for r, evs := range perRank {
			if idx[r] >= len(evs) {
				continue
			}
			if best < 0 || evs[idx[r]].TimeNs < perRank[best][idx[best]].TimeNs {
				best = r
			}
		}
		ev := perRank[best][idx[best]]
		idx[best]++
		out = append(out, TimelineEvent{TimeNs: ev.TimeNs, Rank: best, ID: ev.ID, Kind: ev.Kind, Name: ev.Name})
	}
	return out
}

// WriteText renders the per-rank accounting, the hottest functions and the
// head of the merged timeline.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-5s %-10s %-10s %-9s %-9s %-7s %-8s\n",
		"rank", "recorded", "retained", "dropped", "wrapped", "wraps", "flushes"); err != nil {
		return err
	}
	for _, rs := range r.Ranks {
		if _, err := fmt.Fprintf(w, "%-5d %-10d %-10d %-9d %-9d %-7d %-8d\n",
			rs.Rank, rs.Recorded, rs.Retained, rs.Dropped, rs.Wrapped, rs.Wraps, rs.Flushes); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "total: %d recorded, %d retained, %d dropped, %d wrapped\n",
		r.Recorded, r.Retained, r.Dropped, r.Wrapped); err != nil {
		return err
	}
	for i, fc := range r.ByFunc {
		if i >= 10 {
			break
		}
		name := fc.Name
		if name == "" {
			name = fmt.Sprintf("id:%d", fc.ID)
		}
		if _, err := fmt.Fprintf(w, "  %-30s enters=%-8d exits=%-8d\n", name, fc.Enters, fc.Exits); err != nil {
			return err
		}
	}
	for i, ev := range r.Timeline {
		if i >= 10 {
			if _, err := fmt.Fprintf(w, "  … %d more timeline records\n", len(r.Timeline)-i); err != nil {
				return err
			}
			break
		}
		name := ev.Name
		if name == "" {
			name = fmt.Sprintf("id:%d", ev.ID)
		}
		if _, err := fmt.Fprintf(w, "  %s rank %d %-5s %s\n",
			vtime.FormatSeconds(ev.TimeNs), ev.Rank, ev.Kind, name); err != nil {
			return err
		}
	}
	return nil
}
