package sm

import (
	"testing"

	"zion/internal/asm"
	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/platform"
	"zion/internal/pmp"
)

// TestTwoHartsRunSeparateCVMs drives two confidential VMs on two harts,
// interleaved, and checks the PMP world-switch state stays per-hart
// consistent: while hart 0 is mid-CVM its pool is open, but hart 1's
// Normal-mode view stays closed.
func TestTwoHartsRunSeparateCVMs(t *testing.T) {
	m := platform.New(2, ramSize)
	s, err := New(m, Config{SchedQuantum: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := m.Harts[0], m.Harts[1]
	h0.Mode, h1.Mode = isa.ModeS, isa.ModeS
	if _, err := s.HVCall(h0, FnRegisterPool, poolBase, poolSize); err != nil {
		t.Fatal(err)
	}

	mk := func(h *hart.Hart, shared uint64, result int64) int {
		p := asm.New(PrivateBase)
		p.LI(asm.S0, 0)
		p.LI(asm.T1, 60_000)
		p.Label("spin")
		p.ADDI(asm.S0, asm.S0, 1)
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "spin")
		p.LI(asm.A0, result)
		p.LI(asm.A7, EIDReset)
		p.ECALL()
		code := p.MustAssemble()
		if err := m.RAM.Write(stagingPA, code); err != nil {
			t.Fatal(err)
		}
		id64, err := s.HVCall(h, FnCreateCVM)
		if err != nil {
			t.Fatal(err)
		}
		npages := (len(code) + isa.PageSize - 1) / isa.PageSize
		for i := 0; i < npages; i++ {
			off := uint64(i) * isa.PageSize
			if _, err := s.HVCall(h, FnLoadPage, id64, PrivateBase+off, stagingPA+off); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.HVCall(h, FnFinalize, id64, PrivateBase); err != nil {
			t.Fatal(err)
		}
		if _, err := s.HVCall(h, FnCreateVCPU, id64, shared); err != nil {
			t.Fatal(err)
		}
		return int(id64)
	}

	idA := mk(h0, sharedPA, 111)
	idB := mk(h1, sharedPA+isa.PageSize, 222)

	doneA, doneB := false, false
	var resA, resB uint64
	for rounds := 0; !(doneA && doneB) && rounds < 1000; rounds++ {
		if !doneA {
			info, err := s.RunVCPU(h0, idA, 0)
			if err != nil {
				t.Fatal(err)
			}
			if info.Reason == ExitShutdown {
				doneA, resA = true, info.Data
			}
			// Hart 1 is in Normal mode: its pool view must be closed even
			// though hart 0 just world-switched.
			if h1.PMP.Check(poolBase, 8, pmp.AccessRead, false) {
				t.Fatal("hart 1's Normal-mode pool view opened by hart 0's switch")
			}
		}
		if !doneB {
			info, err := s.RunVCPU(h1, idB, 0)
			if err != nil {
				t.Fatal(err)
			}
			if info.Reason == ExitShutdown {
				doneB, resB = true, info.Data
			}
		}
	}
	if !doneA || !doneB {
		t.Fatal("interleaved runs did not complete")
	}
	if resA != 111 || resB != 222 {
		t.Errorf("results %d/%d, want 111/222", resA, resB)
	}
	// Both CVMs' frames stay disjoint.
	ca, cb := s.life.cvms[idA], s.life.cvms[idB]
	for pa, ok := ca.owned.next(0); ok; pa, ok = ca.owned.next(pa + isa.PageSize) {
		if cb.owned.has(pa) {
			t.Fatalf("frame %#x shared between CVMs on different harts", pa)
		}
	}
}
