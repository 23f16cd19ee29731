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
// driven by exactly one goroutine (the same contract vtime.Clock has), so an
// append is one 16-byte store plus one atomic store publishing the ring
// length. The shard's mutex is taken only on the cold paths (flush, drop)
// and by Report, which copies the published records — so the control plane
// can scrape a live trace mid-phase, per-shard consistent. Records carry
// function IDs only; names are resolved through BindNames' lookup when a
// report is built.
package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

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

// Event is one trace record in a rank's shard: 16 bytes, no pointer, so a
// ring is four records a cache line and the GC never scans it.
type Event struct {
	TimeNs int64
	ID     int32
	Kind   Kind
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
	// The writer's own: the active ring (swapped by full under mu, under
	// which Report reads it), its fill count, the room left before the slow
	// path (less than the ring under a nearly spent drop budget) and n as
	// published for Report.
	ring      []Event
	n, room   int
	published atomic.Int64

	// mu orders the slow path (seal, drop) against Report. sealed counts the
	// events in segs; kind tallies every sealed event, evicted ones too.
	mu      sync.Mutex
	segs    [][]Event //capi:guardedby mu
	sealed  int64     //capi:guardedby mu
	kind    [2]int64  //capi:guardedby mu
	dropped int64     //capi:guardedby mu
	wrapped int64     //capi:guardedby mu
	wraps   int64     //capi:guardedby mu
	flushes int64     //capi:guardedby mu
}

// Buffer is a sharded trace buffer: one ring per rank, flushed in batches
// into per-rank segments.
type Buffer struct {
	opts   Options
	shards []*shard
	// dropLimit is MaxEvents under the drop policy, unbounded otherwise.
	dropLimit int64
	names     atomic.Pointer[func(id int32) string]
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
		b.shards = append(b.shards, &shard{ring: make([]Event, opts.BufEvents), room: int(min(int64(opts.BufEvents), b.dropLimit))})
	}
	return b, nil
}

// Options returns the options the buffer was created with, defaults
// applied.
func (b *Buffer) Options() Options { return b.opts }

// BindNames sets the lookup Report resolves record IDs with. A buffer with
// no (or a nil) lookup leaves every name empty, which WriteText prints as
// id:N.
func (b *Buffer) BindNames(names func(id int32) string) { b.names.Store(&names) }

// Append records one event into the rank's shard. It reports whether the
// append flushed a full ring into a segment, so the caller can charge the
// flush stall to the executing rank. Only the rank's own goroutine may call
// Append for its shard.
//
//capi:hotpath
func (b *Buffer) Append(rank int, t int64, id int32, k Kind) bool {
	s := b.shards[rank]
	flushed := false
	if s.n == s.room {
		if !s.full(&b.opts, b.dropLimit) {
			return false
		}
		flushed = true
	}
	s.ring[s.n] = Event{TimeNs: t, ID: id, Kind: k}
	s.n++
	s.published.Store(int64(s.n))
	return flushed
}

// full is Append's slow path, taken when the writer has no room left. Once
// the drop policy's budget is spent it drops the event; otherwise it seals
// the full ring as an immutable segment (a pointer swap, no copy), tallies
// its kinds and, in wrap mode, evicts the oldest segments beyond the
// retained budget — the newest is never evicted — recycling an evicted
// backing array as the next ring, so steady-state tracing allocates
// nothing. It reports whether the ring was sealed.
//
//capi:coldpath
func (s *shard) full(opts *Options, dropLimit int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed+int64(s.n) >= dropLimit {
		s.dropped++
		return false
	}
	for _, ev := range s.ring {
		s.kind[ev.Kind&1]++
	}
	s.segs = append(s.segs, s.ring)
	s.sealed += int64(s.n)
	s.flushes++
	var next []Event
	for opts.MaxEvents > 0 && opts.Wrap && s.sealed > int64(opts.MaxEvents) && len(s.segs) > 1 {
		next = s.segs[0]
		s.segs = s.segs[1:]
		s.sealed -= int64(len(next))
		s.wrapped += int64(len(next))
		s.wraps++
	}
	if next == nil {
		next = make([]Event, opts.BufEvents)
	}
	s.ring, s.n, s.room = next, 0, int(min(int64(len(next)), dropLimit-s.sealed))
	s.published.Store(0)
	return true
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
// still appending: each shard's segments and the published part of its
// ring are copied under its lock, so a mid-run report is per-shard
// consistent — the control plane's live scrape.
func (b *Buffer) Report() *Report {
	name := func(int32) string { return "" }
	if p := b.names.Load(); p != nil && *p != nil {
		name = *p
	}
	rep := &Report{}
	perRank := make([][]Event, len(b.shards))
	for i, s := range b.shards {
		s.mu.Lock()
		p := s.published.Load()
		evs := make([]Event, 0, s.sealed+p)
		for _, seg := range s.segs {
			evs = append(evs, seg...)
		}
		sealed := len(evs)
		evs = append(evs, s.ring[:p]...)
		kind := s.kind
		rs := RankSummary{
			Rank:     i,
			Recorded: int64(len(evs)) + s.wrapped,
			Retained: int64(len(evs)),
			Dropped:  s.dropped,
			Wrapped:  s.wrapped,
			Wraps:    s.wraps,
			Flushes:  s.flushes,
		}
		s.mu.Unlock()
		for _, ev := range evs[sealed:] {
			kind[ev.Kind&1]++
		}
		perRank[i] = evs
		rs.Enters, rs.Exits = kind[Enter], kind[Exit]
		rep.Ranks = append(rep.Ranks, rs)
		rep.Recorded += rs.Recorded
		rep.Retained += rs.Retained
		rep.Dropped += rs.Dropped
		rep.Wrapped += rs.Wrapped
	}
	rep.Timeline = mergeTimeline(perRank, make([]TimelineEvent, 0, rep.Retained), name)
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
	slices.SortFunc(rep.ByFunc, func(a, b FuncCount) int {
		return cmp.Or(cmp.Compare(b.Enters+b.Exits, a.Enters+a.Exits), cmp.Compare(a.ID, b.ID))
	})
	return rep
}

// mergeTimeline k-way-merges the per-rank streams (each already
// time-ordered) into out, ties broken by rank, naming each record.
func mergeTimeline(perRank [][]Event, out []TimelineEvent, name func(int32) string) []TimelineEvent {
	for {
		best := -1
		for r, evs := range perRank {
			if len(evs) > 0 && (best < 0 || evs[0].TimeNs < perRank[best][0].TimeNs) {
				best = r
			}
		}
		if best < 0 {
			return out
		}
		ev := perRank[best][0]
		perRank[best] = perRank[best][1:]
		out = append(out, TimelineEvent{TimeNs: ev.TimeNs, Rank: best, ID: ev.ID, Kind: ev.Kind, Name: name(ev.ID)})
	}
}

// WriteText renders the per-rank accounting, the hottest functions and the
// head of the merged timeline. An unnamed function prints as id:N.
func (r *Report) WriteText(w io.Writer) (err error) {
	printf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	label := func(name string, id int32) string {
		if name == "" {
			return fmt.Sprintf("id:%d", id)
		}
		return name
	}
	printf("%-5s %-10s %-10s %-9s %-9s %-7s %-8s\n", "rank", "recorded", "retained", "dropped", "wrapped", "wraps", "flushes")
	for _, rs := range r.Ranks {
		printf("%-5d %-10d %-10d %-9d %-9d %-7d %-8d\n",
			rs.Rank, rs.Recorded, rs.Retained, rs.Dropped, rs.Wrapped, rs.Wraps, rs.Flushes)
	}
	printf("total: %d recorded, %d retained, %d dropped, %d wrapped\n", r.Recorded, r.Retained, r.Dropped, r.Wrapped)
	for _, fc := range r.ByFunc[:min(10, len(r.ByFunc))] {
		printf("  %-30s enters=%-8d exits=%-8d\n", label(fc.Name, fc.ID), fc.Enters, fc.Exits)
	}
	for _, ev := range r.Timeline[:min(10, len(r.Timeline))] {
		printf("  %s rank %d %-5s %s\n", vtime.FormatSeconds(ev.TimeNs), ev.Rank, ev.Kind, label(ev.Name, ev.ID))
	}
	if len(r.Timeline) > 10 {
		printf("  … %d more timeline records\n", len(r.Timeline)-10)
	}
	return err
}
