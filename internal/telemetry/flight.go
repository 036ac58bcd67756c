package telemetry

import (
	"fmt"
	"io"
)

// FlightKind classifies a flight-recorder event. The taxonomy is the set
// of high-level control-flow edges a post-mortem wants to see: what the
// hart was doing in the cycles leading up to a quarantine.
type FlightKind uint8

// Flight-recorder event kinds.
const (
	FlightTrap       FlightKind = iota // architectural trap taken (A=cause, Note=cause name)
	FlightWorldEnter                   // world switch into a CVM (CVM=id, A=vcpu)
	FlightWorldExit                    // world switch back to the hypervisor (CVM=id, A=exit kind)
	FlightGate                         // SM compartment call-gate crossing (A=from, B=to, Note=op)
	FlightBarrier                      // parallel-engine quantum barrier (A=epoch)
	FlightFault                        // fault injection armed/fired (Note=fault class)
	FlightQuarantine                   // quarantine decision (CVM=id or A=compartment, Note=cause)
)

// String implements fmt.Stringer.
func (k FlightKind) String() string {
	switch k {
	case FlightTrap:
		return "trap"
	case FlightWorldEnter:
		return "world-enter"
	case FlightWorldExit:
		return "world-exit"
	case FlightGate:
		return "gate"
	case FlightBarrier:
		return "barrier"
	case FlightFault:
		return "fault"
	case FlightQuarantine:
		return "quarantine"
	}
	return "?"
}

// FlightEvent is one black-box record. Events carry only simulated-cycle
// timestamps and static-string notes, so recording never allocates per
// event beyond the pre-sized ring and never perturbs simulated state.
type FlightEvent struct {
	Cycle uint64
	Hart  int
	Kind  FlightKind
	CVM   int // NoCVM when not CVM-scoped
	A, B  uint64
	Note  string
}

// String renders one event in the fixed dump format.
func (e FlightEvent) String() string {
	return fmt.Sprintf("c=%-12d h%d %-11s cvm=%-3d a=0x%x b=0x%x %s",
		e.Cycle, e.Hart, e.Kind, e.CVM, e.A, e.B, e.Note)
}

// DefaultFlightDepth is the per-hart ring capacity when 0 is requested.
const DefaultFlightDepth = 64

// FlightRing is one hart's bounded event ring. Unlike the telemetry
// Scope, the flight recorder is always on: recording is cheap (events are
// rare — never per instruction) and touches no simulated state, so
// bit-identity of runs holds by construction. Its writers are its own
// hart, a peer hart recording a quarantine whose fault originated here,
// and the parallel engine recording a barrier; a monitor goroutine may
// snapshot it while its hart keeps running.
type FlightRing struct {
	hart int
	ring[FlightEvent]
}

// Record appends an event to the ring, evicting the oldest when full.
// Safe on a nil ring so harts booted outside a platform machine need no
// special casing.
func (r *FlightRing) Record(cycle uint64, kind FlightKind, cvm int, a, b uint64, note string) {
	if r == nil {
		return
	}
	r.put(FlightEvent{Cycle: cycle, Hart: r.hart, Kind: kind, CVM: cvm, A: a, B: b, Note: note})
}

// Tail returns the most recent k events, oldest first. k <= 0 returns the
// whole retained window.
func (r *FlightRing) Tail(k int) []FlightEvent {
	if r == nil {
		return nil
	}
	return r.tail(k)
}

// Len returns the total number of events ever recorded on this ring.
func (r *FlightRing) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.total()
}

// FlightRecorder is the machine-wide black box: one bounded ring per
// hart. It is owned by the platform machine and handed to harts, the SM,
// and the fault injector as per-hart ring handles.
type FlightRecorder struct {
	rings []*FlightRing
}

// NewFlightRecorder builds a recorder for nharts harts with the given
// per-hart ring depth (0 selects DefaultFlightDepth).
func NewFlightRecorder(nharts, depth int) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	f := &FlightRecorder{rings: make([]*FlightRing, nharts)}
	for i := range f.rings {
		f.rings[i] = &FlightRing{hart: i, ring: ring[FlightEvent]{buf: make([]FlightEvent, depth)}}
	}
	return f
}

// Ring returns hart i's ring (nil for a nil recorder or out-of-range i,
// so record sites stay unconditional).
func (f *FlightRecorder) Ring(i int) *FlightRing {
	if f == nil || i < 0 || i >= len(f.rings) {
		return nil
	}
	return f.rings[i]
}

// Harts returns the number of per-hart rings.
func (f *FlightRecorder) Harts() int {
	if f == nil {
		return 0
	}
	return len(f.rings)
}

// Tail returns hart i's most recent k events, oldest first.
func (f *FlightRecorder) Tail(i, k int) []FlightEvent {
	return f.Ring(i).Tail(k)
}

// RenderTail renders hart i's most recent k events as strings, oldest
// first — the form embedded into quarantine post-mortem records (strings
// survive JSON report serialization without schema coupling).
func (f *FlightRecorder) RenderTail(i, k int) []string {
	evs := f.Ring(i).Tail(k)
	if len(evs) == 0 {
		return nil
	}
	out := make([]string, len(evs))
	for j, e := range evs {
		out[j] = e.String()
	}
	return out
}

// DumpHart writes hart i's retained window, oldest first.
func (f *FlightRecorder) DumpHart(w io.Writer, i int) {
	for _, e := range f.Ring(i).Tail(0) {
		fmt.Fprintln(w, e.String())
	}
}

// Dump writes every hart's retained window, harts in index order, each
// ring oldest first. Cycle timestamps are simulated, so seeded runs dump
// byte-identically.
func (f *FlightRecorder) Dump(w io.Writer) {
	if f == nil {
		return
	}
	for i := range f.rings {
		fmt.Fprintf(w, "# hart %d (%d events)\n", i, f.rings[i].Len())
		f.DumpHart(w, i)
	}
}
