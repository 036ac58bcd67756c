package sm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
	"zion/internal/telemetry"
)

// traceEvent is one decoded Chrome trace_event entry.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   uint64  `json:"ts"`
	Dur  *uint64 `json:"dur"`
	TID  int32   `json:"tid"`
	Args struct {
		CVM  int32  `json:"cvm"`
		Arg  uint64 `json:"arg"`
		Note string `json:"note"`
	} `json:"args"`
}

// exported decodes the sink's Chrome trace export.
func exported(t *testing.T, sink *telemetry.Sink) []traceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := sink.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	return f.TraceEvents
}

// TestEventTraceRecordsLifecycle: every SM event of a run has one home,
// the hart's ring. It holds a world-enter before each world-exit and the
// trap of the stage-2 fault between them; armed, it also holds the
// lifecycle HVCalls, the fault span and the guest's SBI call, and the
// trace export names them.
func TestEventTraceRecordsLifecycle(t *testing.T) {
	sink := telemetry.New(telemetry.Config{})
	f := newFixture(t, Config{Telemetry: sink.Scope()})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, int64(PrivateBase)+0x10_0000)
		p.SD(asm.Zero, asm.T0, 0) // one stage-2 fault
	}))
	if info := f.run(); info.Reason != ExitShutdown {
		t.Fatal(info.Reason)
	}
	if _, err := f.s.HVCall(f.h, FnDestroy, uint64(f.id)); err != nil {
		t.Fatal(err)
	}

	var entered, exited, faults int
	inCVM := false
	for _, e := range f.h.Flight.Tail(0) {
		switch e.Kind {
		case telemetry.EvWorldEnter:
			if inCVM {
				t.Error("two world-enters without a world-exit between them")
			}
			inCVM = true
			entered++
		case telemetry.EvWorldExit:
			if !inCVM {
				t.Error("world-exit recorded before its world-enter")
			}
			inCVM = false
			exited++
		case telemetry.EvTrap:
			if inCVM && e.A == isa.ExcStoreGuestPageFault {
				faults++
			}
		}
	}
	if entered != 1 || exited != 1 || faults != 1 {
		t.Errorf("flight ring: %d world-enters, %d world-exits, %d stage-2 fault traps inside the CVM; want 1 each",
			entered, exited, faults)
	}

	names := map[string]int{}
	for _, r := range exported(t, sink) {
		if r.Cat == "sm" && (r.Args.CVM == int32(f.id) || strings.HasPrefix(r.Name, "hvcall.")) {
			names[r.Name]++
		}
	}
	for _, want := range []string{"hvcall.create-cvm", "hvcall.finalize", "ws.entry", "s2fault", "sbi", "ws.exit", "hvcall.destroy"} {
		if names[want] == 0 {
			t.Errorf("no %q record in the trace (have %v)", want, names)
		}
	}
}

// TestEventTraceRingWraps: a long preempted run overflows the hart's
// flight ring, which then holds exactly its depth of the newest events,
// in the order they completed.
func TestEventTraceRingWraps(t *testing.T) {
	f := newFixture(t, Config{SchedQuantum: 10_000})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T1, 100_000)
		p.Label("spin")
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "spin")
	}))
	for {
		info := f.run()
		if info.Reason == ExitShutdown {
			break
		}
	}
	ring := f.m.Flight.Ring(0)
	if ring.Len() <= telemetry.DefaultFlightDepth {
		t.Fatalf("%d events recorded, the run must overflow the %d-event ring",
			ring.Len(), telemetry.DefaultFlightDepth)
	}
	events := ring.Tail(0)
	if len(events) != telemetry.DefaultFlightDepth {
		t.Fatalf("ring holds %d events, want %d", len(events), telemetry.DefaultFlightDepth)
	}
	for i := 1; i < len(events); i++ {
		if events[i].End() < events[i-1].End() {
			t.Error("events out of order after wrap")
		}
	}
	if last := events[len(events)-1]; last.Kind != telemetry.EvWorldExit {
		t.Errorf("newest event is %v, want the final world-exit", last.Kind)
	}
}

// TestViolationTraced: a Check-after-Load failure quarantines the CVM,
// and the decision is recorded once: a quarantine event on the hart's
// ring whose note carries the error, which the armed trace exports as one
// "sm"/"quarantine" instant with the same note on the same hart.
func TestViolationTraced(t *testing.T) {
	sink := telemetry.New(telemetry.Config{})
	f := newFixture(t, Config{Telemetry: sink.Scope()})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, 0x1000_0000)
		p.LD(asm.S4, asm.T0, 0)
	}))
	if info := f.run(); info.Reason != ExitMMIORead {
		t.Fatal(info.Reason)
	}
	_ = f.m.RAM.WriteUint64(sharedPA+shvTargetReg, uint64(asm.SP))
	_, _ = f.s.RunVCPU(f.h, f.id, 0)

	var notes []string
	for _, e := range f.h.Flight.Tail(0) {
		if e.Kind == telemetry.EvQuarantine && e.CVM == int32(f.id) {
			notes = append(notes, e.Note)
		}
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "Check-after-Load") {
		t.Fatalf("flight quarantine notes = %q, want one naming Check-after-Load", notes)
	}
	var inst []traceEvent
	for _, r := range exported(t, sink) {
		if r.Cat == "sm" && r.Name == "quarantine" {
			inst = append(inst, r)
		}
	}
	if len(inst) != 1 || inst[0].Ph != "i" || inst[0].TID != int32(f.h.ID) ||
		inst[0].Args.CVM != int32(f.id) || inst[0].Args.Note != notes[0] {
		t.Errorf("sm/quarantine instants = %+v, want one on hart %d for cvm %d with note %q",
			inst, f.h.ID, f.id, notes[0])
	}
}

// TestMMIOExitFlightTailNamesCVM: the trap that ends a run is recorded
// with the CVM it was taken in, so an MMIO exit's flight tail names the
// CVM three times, and a trap outside any CVM names none.
func TestMMIOExitFlightTailNamesCVM(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, 0x1000_0000)
		p.LD(asm.S4, asm.T0, 0)
	}))
	if info := f.run(); info.Reason != ExitMMIORead {
		t.Fatalf("exit = %v, want mmio-read", info.Reason)
	}
	tail := f.m.Flight.RenderTail(0, 3)
	cvm := fmt.Sprintf("cvm=%-3d", f.id)
	for i, kind := range []string{"world-enter", "trap", "world-exit"} {
		if i >= len(tail) || !strings.Contains(tail[i], kind+" ") || !strings.Contains(tail[i], cvm) {
			t.Fatalf("flight tail:\n%s\nwant world-enter, trap, world-exit, each with %s",
				strings.Join(tail, "\n"), cvm)
		}
	}
	if f.h.CVM != telemetry.NoCVM {
		t.Errorf("hart tagged with CVM %d after the exit", f.h.CVM)
	}
	// The hypervisor's own trap, outside any CVM, names no CVM.
	f.h.PC = stagingPA
	if err := f.m.RAM.Write(stagingPA, asm.New(stagingPA).EBREAK().MustAssemble()); err != nil {
		t.Fatal(err)
	}
	f.h.Step()
	if last := f.h.Flight.Tail(1)[0]; last.Kind != telemetry.EvTrap || last.CVM != telemetry.NoCVM {
		t.Errorf("trap outside a CVM recorded as %v", last)
	}
}

// TestOneRecordPerEvent: an armed MMIO exit leaves exactly one trap, one
// world-enter and one world-exit record on the hart's ring, the trap naming
// the CVM, and the trace export renders those same three records as one
// "hart"/"trap" instant and one "ws.entry" and one "ws.exit" span of that
// CVM. Recording an armed hvcall, slice or stage-2 fault allocates nothing.
func TestOneRecordPerEvent(t *testing.T) {
	sink := telemetry.New(telemetry.Config{})
	f := newFixture(t, Config{Telemetry: sink.Scope()})
	id := f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, 0x1000_0000)
		p.LD(asm.S4, asm.T0, 0)
	}))
	if info := f.run(); info.Reason != ExitMMIORead {
		t.Fatalf("exit = %v, want mmio-read", info.Reason)
	}

	count := map[telemetry.EventKind]int{}
	for _, e := range f.h.Flight.Tail(0) {
		switch e.Kind {
		case telemetry.EvTrap, telemetry.EvWorldEnter, telemetry.EvWorldExit:
			count[e.Kind]++
			if e.CVM != int32(id) {
				t.Errorf("%v record names cvm %d, want %d", e.Kind, e.CVM, id)
			}
		}
	}
	for _, k := range []telemetry.EventKind{telemetry.EvTrap, telemetry.EvWorldEnter, telemetry.EvWorldExit} {
		if count[k] != 1 {
			t.Errorf("ring holds %d %v records, want 1", count[k], k)
		}
	}

	seen := map[string]int{}
	for _, r := range exported(t, sink) {
		key := r.Cat + "/" + r.Name + "/" + r.Ph
		switch key {
		case "hart/trap/i", "sm/ws.entry/X", "sm/ws.exit/X":
			seen[key]++
			if r.Args.CVM != int32(id) || r.TID != int32(f.h.ID) {
				t.Errorf("%s names cvm %d on tid %d, want cvm %d on %d", key, r.Args.CVM, r.TID, id, f.h.ID)
			}
		}
	}
	for _, key := range []string{"hart/trap/i", "sm/ws.entry/X", "sm/ws.exit/X"} {
		if seen[key] != 1 {
			t.Errorf("export holds %d %s events, want 1", seen[key], key)
		}
	}

	// A ring armed at a small depth and already wrapped: every further
	// record overwrites a slot in place.
	rec := telemetry.NewFlightRecorder(1, 0)
	telemetry.New(telemetry.Config{TraceEvents: 128}).Scope().Attach(rec)
	r := rec.Ring(0)
	vmName := "tenant"
	record := func() {
		r.Span(telemetry.EvHVCall, 1, 2, id, uint64(FnRun), opName(FnRun))
		r.Span(telemetry.EvSlice, 1, 2, id, 3, vmName)
		r.Span(telemetry.EvS2Fault, 1, 2, id, uint64(StageCache), "")
	}
	for i := 0; i < 128; i++ {
		record()
	}
	if allocs := testing.AllocsPerRun(100, record); allocs != 0 {
		t.Errorf("recording armed hvcall/slice/s2fault events allocates %.1f objects", allocs)
	}
}
