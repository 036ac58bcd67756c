package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestFlightRingWrap: the ring keeps exactly the last depth events, and
// Tail returns them oldest-first.
func TestFlightRingWrap(t *testing.T) {
	fr := NewFlightRecorder(1, 4)
	r := fr.Ring(0)
	for i := 0; i < 10; i++ {
		r.Record(uint64(i), EvTrap, NoCVM, uint64(i), 0, "")
	}
	if got := r.Len(); got != 10 {
		t.Errorf("Len = %d, want 10 (total recorded, not retained)", got)
	}
	tail := r.Tail(0)
	if len(tail) != 4 {
		t.Fatalf("retained %d events, want ring depth 4", len(tail))
	}
	for i, e := range tail {
		if want := uint64(6 + i); e.Cycle != want {
			t.Errorf("tail[%d].Cycle = %d, want %d (oldest-first)", i, e.Cycle, want)
		}
	}
	// A shorter tail takes the most recent k.
	if tail := r.Tail(2); len(tail) != 2 || tail[1].Cycle != 9 {
		t.Errorf("Tail(2) = %+v, want cycles 8,9", tail)
	}
}

// TestFlightNilSafety: nil rings and recorders are inert — record sites
// and dumpers never need a guard.
func TestFlightNilSafety(t *testing.T) {
	var r *FlightRing
	r.Record(1, EvTrap, NoCVM, 0, 0, "x") // must not panic
	r.Span(EvWorldEnter, 1, 2, NoCVM, 0, "")
	if r.Tail(4) != nil || r.Len() != 0 {
		t.Error("nil ring returned events")
	}
	var f *FlightRecorder
	if f.Harts() != 0 || f.Ring(0) != nil || f.RenderTail(0, 4) != nil {
		t.Error("nil recorder returned state")
	}
	var buf bytes.Buffer
	f.Dump(&buf)
	if buf.Len() != 0 {
		t.Error("nil recorder dumped output")
	}
	// Out-of-range harts behave like nil rings.
	fr := NewFlightRecorder(2, 4)
	if fr.Ring(-1) != nil || fr.Ring(2) != nil {
		t.Error("out-of-range Ring not nil")
	}
}

// TestArmingDeepensRing: an unarmed ring drops the armed-only kinds and
// keeps its depth; arming lets it take them and grow to the sink's trace
// capacity without losing what it already held, while a dump still shows
// only the newest DefaultFlightDepth records.
func TestArmingDeepensRing(t *testing.T) {
	f := NewFlightRecorder(1, 0)
	r := f.Ring(0)
	r.Span(EvS2Fault, 0, 5, 1, 0, "")
	r.Record(1, EvSBI, 1, 0, 0, "")
	if r.Len() != 0 {
		t.Fatalf("unarmed ring took %d armed-only records", r.Len())
	}
	for i := 0; i < 2*DefaultFlightDepth; i++ {
		r.Record(uint64(i), EvTrap, NoCVM, 0, 0, "")
	}
	New(Config{TraceEvents: 1000}).Scope().Attach(f)
	for i := 2 * DefaultFlightDepth; i < 1500; i++ {
		r.Span(EvHVCall, uint64(i), uint64(i), NoCVM, 0, "run")
		// The ring grows only when its write slot reaches the end, so
		// it first overwrites the records it wrapped over, then holds
		// every later one.
		held := r.Tail(0)
		if len(held) < DefaultFlightDepth || held[len(held)-1].Cycle != uint64(i) {
			t.Fatalf("after record %d the ring holds %d records, newest %+v", i, len(held), held[len(held)-1])
		}
		for j := 1; j < len(held); j++ {
			if held[j].Cycle != held[j-1].Cycle+1 {
				t.Fatalf("after record %d the ring holds cycles %d then %d", i, held[j-1].Cycle, held[j].Cycle)
			}
		}
	}
	tail := r.Tail(0)
	if len(tail) != 1000 || r.Len() != 1500 {
		t.Fatalf("armed ring holds %d of %d records, want 1000 of 1500", len(tail), r.Len())
	}
	for i, e := range tail {
		if want := uint64(500 + i); e.Cycle != want {
			t.Fatalf("tail[%d].Cycle = %d, want %d (oldest-first across growth)", i, e.Cycle, want)
		}
	}
	var buf bytes.Buffer
	f.Dump(&buf)
	if lines := strings.Count(buf.String(), "\n"); lines != 1+DefaultFlightDepth {
		t.Errorf("dump has %d lines, want a header and %d records", lines, DefaultFlightDepth)
	}
	if !strings.Contains(buf.String(), "hvcall      cvm=-1  a=0x0 b=0x0 run") {
		t.Errorf("armed dump lacks the hvcall records:\n%s", buf.String())
	}
}

// TestFlightRenderAndDump: rendered tails and dumps carry the event
// fields in a greppable fixed-layout line, and Dump prefixes per-hart
// headers.
func TestFlightRenderAndDump(t *testing.T) {
	fr := NewFlightRecorder(2, 8)
	fr.Ring(0).Span(EvWorldEnter, 90, 100, 3, 1, "")
	fr.Ring(1).Record(200, EvGate, NoCVM, 2, 5, "demand-page")
	lines := fr.RenderTail(1, 4)
	if len(lines) != 1 || !strings.Contains(lines[0], "gate") ||
		!strings.Contains(lines[0], "demand-page") {
		t.Errorf("RenderTail = %q", lines)
	}
	var buf bytes.Buffer
	fr.Dump(&buf)
	out := buf.String()
	for _, want := range []string{"# hart 0", "# hart 1", "c=100 ", "h0 world-enter cvm=3", "h1 gate"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestFlightDeterministicRender: two identical event sequences render
// byte-identically — the property the monitor endpoint's /flight bodies
// inherit.
func TestFlightDeterministicRender(t *testing.T) {
	render := func() string {
		fr := NewFlightRecorder(1, 8)
		for i := 0; i < 12; i++ {
			fr.Ring(0).Record(uint64(i*100), EventKind(i%5), NoCVM, uint64(i), 0, "n")
		}
		var buf bytes.Buffer
		fr.Dump(&buf)
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Error("identical event sequences rendered differently")
	}
}

// TestFlightConcurrentSnapshot: a ring takes records from two goroutines
// (a hart's own events, and a quarantine recorded on its ring by a peer)
// while a monitor snapshots it, at a fixed depth and while an armed ring
// grows. Every snapshot holds whole events, Len never goes back, and no
// record is lost. Run it under -race.
func TestFlightConcurrentSnapshot(t *testing.T) {
	const writers, per, depth = 2, 5000, 16
	for _, armTo := range []int{0, 1000} {
		f := NewFlightRecorder(1, depth)
		want := depth
		if armTo > 0 {
			New(Config{TraceEvents: armTo}).Scope().Attach(f)
			want = armTo
		}
		r := f.Ring(0)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					c := uint64(w*per + i)
					r.Record(c, EvTrap, w, c, ^c, "n")
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		var last uint64
	snapshot:
		for snapshots := 0; ; snapshots++ {
			select {
			case <-done:
				if got := r.Len(); got != writers*per {
					t.Fatalf("Len = %d after %d records", got, writers*per)
				}
				if got := len(r.Tail(0)); got != want {
					t.Fatalf("retained %d events, want %d", got, want)
				}
				break snapshot
			default:
			}
			n := r.Len()
			if n < last {
				t.Fatalf("Len went back from %d to %d", last, n)
			}
			last = n
			for _, e := range r.Tail(0) {
				if e.A != e.Cycle || e.B != ^e.Cycle || e.CVM != int32(e.Cycle/per) || e.Note != "n" {
					t.Fatalf("snapshot %d holds a torn event %+v", snapshots, e)
				}
			}
		}
	}
}

// BenchmarkFlightRecord times one event into a wrapped ring: the cost
// every trap, world switch and gate crossing pays.
func BenchmarkFlightRecord(b *testing.B) {
	r := NewFlightRecorder(1, DefaultFlightDepth).Ring(0)
	for i := 0; i < b.N; i++ {
		r.Record(uint64(i), EvGate, NoCVM, 1, 2, "gate")
	}
}
