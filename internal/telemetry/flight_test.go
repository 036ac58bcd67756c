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
		r.Record(uint64(i), FlightTrap, NoCVM, uint64(i), 0, "")
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
	r.Record(1, FlightTrap, NoCVM, 0, 0, "x") // must not panic
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

// TestFlightRenderAndDump: rendered tails and dumps carry the event
// fields in a greppable fixed-layout line, and Dump prefixes per-hart
// headers.
func TestFlightRenderAndDump(t *testing.T) {
	fr := NewFlightRecorder(2, 8)
	fr.Ring(0).Record(100, FlightWorldEnter, 3, 1, 0, "")
	fr.Ring(1).Record(200, FlightGate, NoCVM, 2, 5, "demand-page")
	lines := fr.RenderTail(1, 4)
	if len(lines) != 1 || !strings.Contains(lines[0], "gate") ||
		!strings.Contains(lines[0], "demand-page") {
		t.Errorf("RenderTail = %q", lines)
	}
	var buf bytes.Buffer
	fr.Dump(&buf)
	out := buf.String()
	for _, want := range []string{"# hart 0", "# hart 1", "world-enter", "cvm=3"} {
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
			fr.Ring(0).Record(uint64(i*100), FlightKind(i%5), NoCVM, uint64(i), 0, "n")
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
// while a monitor snapshots it. Every snapshot holds whole events, Len
// never goes back, and no record is lost. Run it under -race.
func TestFlightConcurrentSnapshot(t *testing.T) {
	const writers, per, depth = 2, 5000, 16
	r := NewFlightRecorder(1, depth).Ring(0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c := uint64(w*per + i)
				r.Record(c, FlightTrap, w, c, ^c, "n")
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var last uint64
	for snapshots := 0; ; snapshots++ {
		select {
		case <-done:
			if got := r.Len(); got != writers*per {
				t.Fatalf("Len = %d after %d records", got, writers*per)
			}
			if got := len(r.Tail(0)); got != depth {
				t.Fatalf("retained %d events, want %d", got, depth)
			}
			return
		default:
		}
		n := r.Len()
		if n < last {
			t.Fatalf("Len went back from %d to %d", last, n)
		}
		last = n
		for _, e := range r.Tail(0) {
			if e.A != e.Cycle || e.B != ^e.Cycle || e.CVM != int(e.Cycle/per) || e.Note != "n" {
				t.Fatalf("snapshot %d holds a torn event %+v", snapshots, e)
			}
		}
	}
}

// BenchmarkFlightRecord times one event into a wrapped ring: the cost
// every trap, world switch and gate crossing pays.
func BenchmarkFlightRecord(b *testing.B) {
	r := NewFlightRecorder(1, DefaultFlightDepth).Ring(0)
	for i := 0; i < b.N; i++ {
		r.Record(uint64(i), FlightGate, NoCVM, 1, 2, "gate")
	}
}
