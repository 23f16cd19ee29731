package trace

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// names is a fixed function table for BindNames.
func names(table map[int32]string) func(int32) string {
	return func(id int32) string { return table[id] }
}

// TestEventIsSixteenPointerFreeBytes: four records a cache line, and a
// ring the GC never has to scan.
func TestEventIsSixteenPointerFreeBytes(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 16 {
		t.Fatalf("sizeof(Event) = %d, want 16", size)
	}
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		switch typ.Field(i).Type.Kind() {
		case reflect.Int64, reflect.Int32, reflect.Uint8:
		default:
			t.Fatalf("Event.%s is a %s, want a pointer-free scalar", typ.Field(i).Name, typ.Field(i).Type)
		}
	}
}

func TestAppendFlushesFullRings(t *testing.T) {
	b, err := New(Options{Ranks: 1, BufEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		k := Enter
		if i%2 == 1 {
			k = Exit
		}
		flushed := b.Append(0, int64(i), 7, k)
		// The ring holds 4 events; appends 5 and 9 (0-based) find it full.
		if want := i == 4 || i == 8; flushed != want {
			t.Fatalf("append %d: flushed = %v, want %v", i, flushed, want)
		}
	}
	rep := b.Report()
	rs := rep.Ranks[0]
	if rs.Recorded != 10 || rs.Retained != 10 || rs.Flushes != 2 {
		t.Fatalf("summary = %+v", rs)
	}
	if rs.Enters != 5 || rs.Exits != 5 {
		t.Fatalf("enter/exit counts = %d/%d", rs.Enters, rs.Exits)
	}
	// Partial ring contents are included in the report without a flush.
	if len(rep.Timeline) != 10 {
		t.Fatalf("timeline = %d records", len(rep.Timeline))
	}
	for i, ev := range rep.Timeline {
		if ev.TimeNs != int64(i) {
			t.Fatalf("timeline[%d] = %+v, not time-ordered", i, ev)
		}
	}
}

func TestDropPolicyCountsRejectedEvents(t *testing.T) {
	b, err := New(Options{Ranks: 1, BufEvents: 2, MaxEvents: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		b.Append(0, int64(i), 1, Enter)
	}
	rs := b.Report().Ranks[0]
	if rs.Recorded != 5 || rs.Dropped != 4 {
		t.Fatalf("recorded %d dropped %d, want 5/4", rs.Recorded, rs.Dropped)
	}
	if rs.Wrapped != 0 || rs.Wraps != 0 {
		t.Fatalf("drop policy must not wrap: %+v", rs)
	}
	// The retained records are the oldest ones (drop-newest).
	tl := b.Report().Timeline
	if tl[0].TimeNs != 0 || tl[len(tl)-1].TimeNs != 4 {
		t.Fatalf("timeline window = [%d, %d]", tl[0].TimeNs, tl[len(tl)-1].TimeNs)
	}
}

func TestWrapPolicyKeepsNewestWindow(t *testing.T) {
	b, err := New(Options{Ranks: 1, BufEvents: 2, MaxEvents: 4, Wrap: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b.Append(0, int64(i), 1, Enter)
	}
	rs := b.Report().Ranks[0]
	if rs.Recorded != 10 || rs.Dropped != 0 {
		t.Fatalf("wrap policy must accept everything: %+v", rs)
	}
	if rs.Wrapped == 0 || rs.Wraps == 0 {
		t.Fatalf("no wraps recorded: %+v", rs)
	}
	if rs.Recorded != rs.Retained+rs.Wrapped {
		t.Fatalf("accounting broken: recorded %d != retained %d + wrapped %d",
			rs.Recorded, rs.Retained, rs.Wrapped)
	}
	// The surviving window is the newest part of the trace.
	tl := b.Report().Timeline
	if tl[len(tl)-1].TimeNs != 9 {
		t.Fatalf("newest record lost: %+v", tl[len(tl)-1])
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].TimeNs < tl[i-1].TimeNs {
			t.Fatal("timeline not ordered after wrap")
		}
	}
}

func TestMergedTimelineOrdersAcrossRanks(t *testing.T) {
	b, err := New(Options{Ranks: 3, BufEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved virtual times: rank r records at r, r+3, r+6, …
	for i := 0; i < 4; i++ {
		for r := 0; r < 3; r++ {
			b.Append(r, int64(3*i+r), int32(r), Enter)
		}
	}
	rep := b.Report()
	if len(rep.Timeline) != 12 {
		t.Fatalf("timeline = %d", len(rep.Timeline))
	}
	for i, ev := range rep.Timeline {
		if ev.TimeNs != int64(i) || ev.Rank != i%3 {
			t.Fatalf("timeline[%d] = %+v", i, ev)
		}
	}
	if rep.Recorded != 12 || rep.Retained != 12 {
		t.Fatalf("totals = %+v", rep)
	}
}

func TestByFuncAggregatesRetainedRecords(t *testing.T) {
	b, err := New(Options{Ranks: 2, BufEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		b.Append(r, 1, 10, Enter)
		b.Append(r, 2, 10, Exit)
	}
	b.Append(0, 3, 20, Enter)
	b.BindNames(names(map[int32]string{10: "hot", 20: "cold"}))
	rep := b.Report()
	if len(rep.ByFunc) != 2 {
		t.Fatalf("byfunc = %+v", rep.ByFunc)
	}
	if rep.ByFunc[0].Name != "hot" || rep.ByFunc[0].Enters != 2 || rep.ByFunc[0].Exits != 2 {
		t.Fatalf("hot = %+v", rep.ByFunc[0])
	}
	if rep.ByFunc[1].Name != "cold" || rep.ByFunc[1].Enters != 1 || rep.ByFunc[1].Exits != 0 {
		t.Fatalf("cold = %+v", rep.ByFunc[1])
	}
}

func TestWriteTextRendersAccounting(t *testing.T) {
	b, err := New(Options{Ranks: 2, BufEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	b.Append(0, 5, 1, Enter)
	b.Append(1, 6, 1, Exit)
	b.Append(1, 7, 2, Enter)
	text := func() string {
		var buf bytes.Buffer
		if err := b.Report().WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	// Without a lookup every function prints by ID.
	if out := text(); !strings.Contains(out, "id:1 ") || !strings.Contains(out, "id:2") {
		t.Fatalf("unbound report must name functions id:N:\n%s", out)
	}
	b.BindNames(names(map[int32]string{1: "alpha"}))
	out := text()
	for _, want := range []string{"rank", "alpha", "id:2", "total: 3 recorded"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
}

func TestNewValidatesOptions(t *testing.T) {
	if _, err := New(Options{Ranks: 0}); err == nil {
		t.Fatal("ranks 0 must fail")
	}
	b, err := New(Options{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Report().Ranks) != 1 {
		t.Fatal("one shard per rank")
	}
}

// TestReportConcurrentWithWriters exercises the control-plane contract: a
// report may be scraped while every rank is still appending. Run with -race.
func TestReportConcurrentWithWriters(t *testing.T) {
	const ranks, perRank = 4, 5000
	b, err := New(Options{Ranks: ranks, BufEvents: 64, MaxEvents: 1024, Wrap: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < perRank; i++ {
				k := Enter
				if i%2 == 1 {
					k = Exit
				}
				b.Append(rank, int64(i), int32(rank), k)
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	scrapes := 0
	for {
		rep := b.Report()
		scrapes++
		// Per-shard consistency: the accounting identity holds even while
		// the shard is being written.
		for _, rs := range rep.Ranks {
			if rs.Recorded != rs.Retained+rs.Wrapped || rs.Enters+rs.Exits != rs.Recorded {
				t.Fatalf("mid-run shard inconsistent: %+v", rs)
			}
		}
		select {
		case <-done:
			final := b.Report()
			if got := final.Recorded + final.Dropped; got != ranks*perRank {
				t.Fatalf("recorded+dropped = %d, want %d", got, ranks*perRank)
			}
			t.Logf("%d mid-run scrapes", scrapes)
			return
		default:
		}
	}
}
