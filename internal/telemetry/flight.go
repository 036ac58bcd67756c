package telemetry

import (
	"fmt"
	"io"
	"sync"
)

// NoCVM marks a record (or attribution row) that belongs to no
// confidential VM: hypervisor, normal-VM, or boot-time work.
const NoCVM = -1

// EventKind classifies one record of a hart's event ring. The always-on
// kinds are the control-flow edges a post-mortem wants to see: what the
// hart was doing in the cycles leading up to a quarantine. The armed kinds
// are recorded only once a telemetry scope has armed the machine
// (Scope.Attach), where the trace export reads them.
type EventKind uint8

// Event kinds, with what a record's A, B and Note hold. A span kind's
// record carries the interval's start cycle and duration. The kinds from
// EvS2Fault on are armed-only.
const (
	EvTrap          EventKind = iota // trap taken (CVM=running CVM, A=cause, B=pc, Note=cause name)
	EvWorldEnter                     // span: world switch into a CVM (CVM=id, A=vcpu)
	EvWorldExit                      // span: world switch back to the hypervisor (CVM=id, A=exit reason, Note=its name)
	EvGate                           // SM compartment call-gate crossing (A=from, B=to, Note=op)
	EvBarrier                        // parallel-engine quantum barrier (A=epoch)
	EvFault                          // fault injection fired (A=class, Note=class name)
	EvQuarantine                     // quarantine decision (CVM=id or NoCVM, A=compartment, Note=cause)
	EvS2Fault                        // armed span: SM stage-2 fault served from the pool (A=stage)
	EvS2FaultExpand                  // armed span: SM stage-2 fault that asks for more pool (A=stage)
	EvS2FaultNormal                  // armed span: a normal VM's stage-2 fault in the hypervisor (A=gpa)
	EvSBI                            // armed: guest SBI call into the SM (A=EID)
	EvHVCall                         // armed span: hypervisor call into the SM (A=function, Note=its name)
	EvSlice                          // armed span: one scheduler slice (CVM=id, A=round, Note=VM name)
	numEventKinds

	firstArmed = EvS2Fault
)

// noteUse says what the trace export does with a record's note.
type noteUse uint8

const (
	noteArg    noteUse = iota // exported as args.note
	noteFlight                // shown in the flight dump only
	noteName                  // appended to the trace name (hvcall.<fn>, slice.<vm>)
)

// eventKinds is the one taxonomy both views render from: the flight-dump
// name, the trace category and name, and whether the record is a span.
var eventKinds = [numEventKinds]struct {
	flight    string
	cat, name string
	span      bool
	note      noteUse
}{
	EvTrap:          {"trap", "hart", "trap", false, noteArg},
	EvWorldEnter:    {"world-enter", "sm", "ws.entry", true, noteArg},
	EvWorldExit:     {"world-exit", "sm", "ws.exit", true, noteFlight},
	EvGate:          {"gate", "sm", "gate", false, noteArg},
	EvBarrier:       {"barrier", "platform", "barrier", false, noteArg},
	EvFault:         {"fault", "fi", "fault", false, noteArg},
	EvQuarantine:    {"quarantine", "sm", "quarantine", false, noteArg},
	EvS2Fault:       {"s2fault", "sm", "s2fault", true, noteArg},
	EvS2FaultExpand: {"s2fault.expand", "sm", "s2fault.expand", true, noteArg},
	EvS2FaultNormal: {"s2fault.normal", "hv", "s2fault.normal", true, noteArg},
	EvSBI:           {"sbi", "sm", "sbi", false, noteArg},
	EvHVCall:        {"hvcall", "sm", "hvcall.", true, noteName},
	EvSlice:         {"slice", "hv", "slice.", true, noteName},
}

// String returns the kind's flight-dump name.
func (k EventKind) String() string { return eventKinds[k].flight }

// Event is one record of a hart's ring. It holds no hart (the ring implies
// it), only simulated-cycle timestamps and a static-string note, so
// recording never allocates beyond the ring and never perturbs simulated
// state.
type Event struct {
	Cycle uint64 // the instant, or a span's start cycle
	Dur   uint64 // a span's length; 0 for instants
	A, B  uint64
	Note  string
	CVM   int32 // NoCVM when not CVM-scoped
	Kind  EventKind
}

// End returns the cycle the event completed at: a span's end, an
// instant's own cycle.
func (e Event) End() uint64 { return e.Cycle + e.Dur }

// Line renders the event as recorded on hart's ring, in the fixed dump
// format (stamped with the cycle it completed at).
func (e Event) Line(hart int) string {
	return fmt.Sprintf("c=%-12d h%d %-11s cvm=%-3d a=0x%x b=0x%x %s",
		e.End(), hart, e.Kind, e.CVM, e.A, e.B, e.Note)
}

// trace returns the event's trace category, name and note.
func (e Event) trace() (cat, name, note string) {
	k := &eventKinds[e.Kind]
	switch k.note {
	case noteArg:
		return k.cat, k.name, e.Note
	case noteName:
		return k.cat, k.name + e.Note, ""
	}
	return k.cat, k.name, ""
}

// DefaultFlightDepth is the per-hart ring depth when 0 is requested, and
// the most records a flight dump shows per hart.
const DefaultFlightDepth = 64

// FlightRing is one hart's bounded event ring, the machine's black box
// and, once armed, the source of the hart's trace stream. Recording is
// cheap (events are rare — never per instruction) and touches no
// simulated state, so bit-identity of runs holds by construction. Its
// writers are its own hart, a peer hart recording a quarantine whose fault
// originated here, and the parallel engine recording a barrier; the mutex
// orders them with a monitor goroutine snapshotting the ring while its
// hart keeps running.
type FlightRing struct {
	mu    sync.Mutex
	buf   []Event
	next  int    // next write slot
	held  int    // records buf holds
	n     uint64 // total records ever put
	depth int    // len(buf) may grow to this; set by arming
	armed bool   // records the armed-only kinds; set before the hart runs
}

// Record appends an instant, evicting the oldest record when the ring is
// full. An armed-only kind on an unarmed ring is dropped. Safe on a nil
// ring so harts booted outside a platform machine need no special casing.
func (r *FlightRing) Record(cycle uint64, kind EventKind, cvm int, a, b uint64, note string) {
	if r != nil && (kind < firstArmed || r.armed) {
		r.put(Event{Cycle: cycle, Kind: kind, CVM: int32(cvm), A: a, B: b, Note: note})
	}
}

// Span appends the closed interval [start, end) like Record, so a ring
// never holds a half-open span.
func (r *FlightRing) Span(kind EventKind, start, end uint64, cvm int, a uint64, note string) {
	if r != nil && (kind < firstArmed || r.armed) {
		r.put(Event{Cycle: start, Dur: end - min(start, end), Kind: kind, CVM: int32(cvm), A: a, Note: note})
	}
}

// put appends e. A ring below its depth grows when its write slot reaches
// the end of the buffer, where the buffer is in oldest-first order, so
// growing copies nothing out of order; a ring that had wrapped before it
// grew holds fewer records than it has ever taken and than its new
// length, which is why held is kept apart from n.
func (r *FlightRing) put(e Event) {
	r.mu.Lock()
	i := r.next
	r.buf[i] = e
	if r.held < len(r.buf) {
		r.held++
	}
	if i++; i == len(r.buf) {
		if i < r.depth {
			r.buf = append(r.buf, make([]Event, min(i, r.depth-i))...)
		} else {
			i = 0
		}
	}
	r.next = i
	r.n++
	r.mu.Unlock()
}

// Tail returns the most recent k events, oldest first. k <= 0 returns the
// whole retained window.
func (r *FlightRing) Tail(k int) []Event {
	out, _ := r.snapshot(k)
	return out
}

// snapshot returns the most recent k events, oldest first, and the total
// ever recorded, read under one lock.
func (r *FlightRing) snapshot(k int) ([]Event, uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if k <= 0 || k > r.held {
		k = r.held
	}
	if k == 0 {
		return nil, r.n
	}
	out := make([]Event, 0, k)
	start := r.next - k
	if start < 0 {
		start += len(r.buf)
		out = append(out, r.buf[start:]...)
		start = 0
	}
	return append(out, r.buf[start:r.next]...), r.n
}

// Len returns the total number of events ever recorded on this ring.
func (r *FlightRing) Len() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
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
		f.rings[i] = &FlightRing{buf: make([]Event, depth), depth: depth}
	}
	return f
}

// arm lets every ring record the armed-only kinds and grow to depth.
func (f *FlightRecorder) arm(depth int) {
	for _, r := range f.rings {
		r.mu.Lock()
		r.armed = true
		r.depth = max(r.depth, depth)
		r.mu.Unlock()
	}
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
		out[j] = e.Line(i)
	}
	return out
}

// DumpHart writes hart i's most recent DefaultFlightDepth events, oldest
// first.
func (f *FlightRecorder) DumpHart(w io.Writer, i int) {
	for _, e := range f.Ring(i).Tail(DefaultFlightDepth) {
		fmt.Fprintln(w, e.Line(i))
	}
}

// Dump writes every hart's DumpHart window, harts in index order, each
// headed by the hart's total event count. Cycle timestamps are simulated,
// so seeded runs dump byte-identically.
func (f *FlightRecorder) Dump(w io.Writer) {
	if f == nil {
		return
	}
	for i := range f.rings {
		fmt.Fprintf(w, "# hart %d (%d events)\n", i, f.rings[i].Len())
		f.DumpHart(w, i)
	}
}
