package sm

import (
	"fmt"
	"strings"
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
	"zion/internal/telemetry"
)

// smRecs returns the tracer's "sm" records, oldest first.
func smRecs(sink *telemetry.Sink) []telemetry.Rec {
	var out []telemetry.Rec
	for _, r := range sink.Tracer.Snapshot() {
		if r.Cat == "sm" {
			out = append(out, r)
		}
	}
	return out
}

// TestEventTraceRecordsLifecycle: every SM event of a run has one home.
// The always-on flight ring holds a world-enter before each world-exit
// and the trap of the stage-2 fault between them; armed telemetry holds
// the lifecycle HVCalls, the fault and the world switches as spans and
// the guest's SBI call as an "sm"/"sbi" instant.
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
	for _, e := range f.m.Flight.Tail(0, 0) {
		if e.String() == "" {
			t.Error("empty event render")
		}
		switch e.Kind {
		case telemetry.FlightWorldEnter:
			if inCVM {
				t.Error("two world-enters without a world-exit between them")
			}
			inCVM = true
			entered++
		case telemetry.FlightWorldExit:
			if !inCVM {
				t.Error("world-exit recorded before its world-enter")
			}
			inCVM = false
			exited++
		case telemetry.FlightTrap:
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
	for _, r := range smRecs(sink) {
		if r.CVM == int32(f.id) || strings.HasPrefix(r.Name, "hvcall.") {
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
// oldest first.
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
		if events[i].Cycle < events[i-1].Cycle {
			t.Error("events out of order after wrap")
		}
	}
	if last := events[len(events)-1]; last.Kind != telemetry.FlightWorldExit {
		t.Errorf("newest event is %v, want the final world-exit", last.Kind)
	}
}

// TestViolationTraced: a Check-after-Load failure quarantines the CVM,
// and the decision is recorded once: a flight-ring quarantine event whose
// note carries the error, and, with telemetry armed, one "sm"/"quarantine"
// instant with the same note on the same hart.
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
	for _, e := range f.m.Flight.Tail(0, 0) {
		if e.Kind == telemetry.FlightQuarantine && e.CVM == f.id {
			notes = append(notes, e.Note)
		}
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "Check-after-Load") {
		t.Fatalf("flight quarantine notes = %q, want one naming Check-after-Load", notes)
	}
	var inst []telemetry.Rec
	for _, r := range smRecs(sink) {
		if r.Name == "quarantine" {
			inst = append(inst, r)
		}
	}
	if len(inst) != 1 || inst[0].Kind != telemetry.RecInstant || inst[0].TID != int32(f.h.ID) ||
		inst[0].CVM != int32(f.id) || inst[0].Note != notes[0] {
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
	if last := f.m.Flight.Tail(0, 1)[0]; last.Kind != telemetry.FlightTrap || last.CVM != telemetry.NoCVM {
		t.Errorf("trap outside a CVM recorded as %v", last)
	}
}
