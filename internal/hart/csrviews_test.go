package hart

import (
	"testing"

	"zion/internal/isa"
)

// Architectural view registers: sstatus is a window onto mstatus, sip/sie
// are masked views of mip/mie, vsie/vsip shift the VS lines into
// supervisor positions.

func TestSstatusIsViewOfMstatus(t *testing.T) {
	h := newHart(t)
	h.Mode = isa.ModeS
	// Write SIE through sstatus; it must land in mstatus.
	if e := h.writeCSR(isa.CSRSstatus, isa.MstatusSIE|isa.MstatusSUM); e != csrOK {
		t.Fatalf("write: %v", e)
	}
	if h.CSR(isa.CSRMstatus)&isa.MstatusSIE == 0 {
		t.Error("sstatus.SIE did not reach mstatus")
	}
	if h.CSR(isa.CSRMstatus)&isa.MstatusSUM == 0 {
		t.Error("sstatus.SUM did not reach mstatus")
	}
	// Machine-only bits cannot be set through the view.
	_ = h.writeCSR(isa.CSRSstatus, isa.MstatusMIE)
	if h.CSR(isa.CSRMstatus)&isa.MstatusMIE != 0 {
		t.Error("sstatus write leaked into MIE")
	}
	// Reads show only the supervisor-visible slice.
	h.SetCSR(isa.CSRMstatus, h.CSR(isa.CSRMstatus)|isa.MstatusMIE)
	v, e := h.readCSR(isa.CSRSstatus)
	if e != csrOK || v&isa.MstatusMIE != 0 {
		t.Errorf("sstatus read exposes MIE: %#x", v)
	}
}

func TestSieSipMaskedByMideleg(t *testing.T) {
	h := newHart(t)
	h.Mode = isa.ModeS
	// Nothing delegated: sie writes are dropped.
	if e := h.writeCSR(isa.CSRSie, 1<<isa.IntSTimer); e != csrOK {
		t.Fatal(e)
	}
	if v, _ := h.readCSR(isa.CSRSie); v != 0 {
		t.Errorf("sie = %#x with empty mideleg", v)
	}
	// Delegate STI: now the bit sticks and shows through sie.
	h.SetCSR(isa.CSRMideleg, 1<<isa.IntSTimer)
	_ = h.writeCSR(isa.CSRSie, 1<<isa.IntSTimer)
	if v, _ := h.readCSR(isa.CSRSie); v != 1<<isa.IntSTimer {
		t.Errorf("sie = %#x after delegation", v)
	}
	// sip shows pending delegated lines only.
	h.SetPending(isa.IntSTimer)
	h.SetPending(isa.IntMTimer)
	v, _ := h.readCSR(isa.CSRSip)
	if v != 1<<isa.IntSTimer {
		t.Errorf("sip = %#x, want only the delegated timer", v)
	}
}

func TestVsieShiftedView(t *testing.T) {
	h := newHart(t)
	// hie.VSTIE set + hideleg.VSTI: vsie shows it at the *S* position.
	h.SetCSR(isa.CSRHideleg, 1<<isa.IntVSTimer)
	h.SetCSR(isa.CSRHie, 1<<isa.IntVSTimer)
	h.Mode = isa.ModeVS
	v, e := h.readCSR(isa.CSRSie) // remaps to vsie in VS-mode
	if e != csrOK {
		t.Fatal(e)
	}
	if v&(1<<isa.IntSTimer) == 0 {
		t.Errorf("vsie = %#x, want STIE bit (shifted view)", v)
	}
	// Guest writes through its sie view update hie's VS bit.
	h.Mode = isa.ModeVS
	if e := h.writeCSR(isa.CSRSie, 0); e != csrOK {
		t.Fatal(e)
	}
	if h.CSR(isa.CSRHie)&(1<<isa.IntVSTimer) != 0 {
		t.Error("guest sie clear did not reach hie.VSTIE")
	}
}

func TestVsipReflectsHvip(t *testing.T) {
	h := newHart(t)
	h.SetCSR(isa.CSRHideleg, 1<<isa.IntVSTimer)
	h.SetCSR(isa.CSRHvip, 1<<isa.IntVSTimer)
	h.Mode = isa.ModeVS
	v, e := h.readCSR(isa.CSRSip) // -> vsip
	if e != csrOK {
		t.Fatal(e)
	}
	if v&(1<<isa.IntSTimer) == 0 {
		t.Errorf("vsip = %#x, want injected timer visible at STIP", v)
	}
}

func TestVUModeCannotTouchSupervisorView(t *testing.T) {
	h := newHart(t)
	h.Mode = isa.ModeVU
	if _, e := h.readCSR(isa.CSRSstatus); e != csrIllegal {
		t.Errorf("VU read of sstatus: %v", e)
	}
}

func TestHedelegWARLMask(t *testing.T) {
	h := newHart(t)
	// Guest-page faults and VS ecalls are read-only-zero in hedeleg.
	h.SetCSR(isa.CSRHedeleg, ^uint64(0))
	v := h.CSR(isa.CSRHedeleg)
	for _, bit := range []uint{isa.ExcEcallVS, isa.ExcEcallS,
		isa.ExcInstGuestPageFault, isa.ExcLoadGuestPageFault,
		isa.ExcStoreGuestPageFault, isa.ExcVirtualInst} {
		if v&(1<<bit) != 0 {
			t.Errorf("hedeleg bit %d is writable; spec says read-only zero", bit)
		}
	}
}

func TestMedelegEcallMNeverDelegatable(t *testing.T) {
	h := newHart(t)
	h.SetCSR(isa.CSRMedeleg, ^uint64(0))
	if h.CSR(isa.CSRMedeleg)&(1<<isa.ExcEcallM) != 0 {
		t.Error("ecall-from-M must not be delegatable")
	}
}

func TestSatpModeWARL(t *testing.T) {
	h := newHart(t)
	// Sv48 is not implemented: the write is ignored entirely.
	h.SetCSR(isa.CSRSatp, uint64(isa.SatpModeSv48)<<isa.SatpModeShift|0x1234)
	if h.CSR(isa.CSRSatp) != 0 {
		t.Errorf("satp accepted unsupported mode: %#x", h.CSR(isa.CSRSatp))
	}
	h.SetCSR(isa.CSRSatp, uint64(isa.SatpModeSv39)<<isa.SatpModeShift|0x1234)
	if h.CSR(isa.CSRSatp)>>isa.SatpModeShift != isa.SatpModeSv39 {
		t.Error("satp rejected Sv39")
	}
}

// The machine-level pending bits are wires from the platform: software
// writes to mip leave MSIP, MTIP and MEIP as they were, while the
// supervisor bits stay writable.
func TestMipPlatformBitsReadOnly(t *testing.T) {
	h := newHart(t)
	h.SetPending(isa.IntMSoft)
	h.SetCSR(isa.CSRMip, 1<<isa.IntMTimer|1<<isa.IntMExt|1<<isa.IntSSoft)
	if got, want := h.CSR(isa.CSRMip), uint64(1<<isa.IntMSoft|1<<isa.IntSSoft); got != want {
		t.Fatalf("mip = %#x, want %#x", got, want)
	}
}

// SetCSR stores exactly what the privileged path stores for an M-mode
// write (Mode set to M, writeCSR, Mode restored): the same CSR file, PMP
// state and mmuGen, for every writable address and for patterned values,
// on harts running in every mode. It never changes Mode, and it panics
// on the read-only range.
func TestSetCSRMatchesPrivilegedWrite(t *testing.T) {
	values := []uint64{0, ^uint64(0), 0x5555_5555_5555_5555, 0xAAAA_AAAA_AAAA_AAAA}
	for _, mode := range []isa.PrivMode{isa.ModeM, isa.ModeS, isa.ModeVS, isa.ModeVU} {
		fw, priv := newHart(t), newHart(t)
		fw.Mode, priv.Mode = mode, mode
		for addr := uint16(0); addr < 0xC00; addr++ {
			for _, v := range values {
				fw.SetCSR(addr, v)
				priv.Mode = isa.ModeM
				if e := priv.writeCSR(addr, v); e != csrOK {
					t.Fatalf("M-mode write of %#x to CSR %#x failed (%d)", v, addr, e)
				}
				priv.Mode = mode
				if fw.Mode != mode {
					t.Fatalf("%v: SetCSR(%#x, %#x) left Mode %v", mode, addr, v, fw.Mode)
				}
				if fw.csr.regs != priv.csr.regs || *fw.PMP != *priv.PMP || fw.mmuGen != priv.mmuGen {
					t.Fatalf("%v: SetCSR(%#x, %#x) diverged from the privileged write (mmuGen %d vs %d)", mode, addr, v, fw.mmuGen, priv.mmuGen)
				}
			}
		}
	}
	// The read-only range 0xC00-0xFFF has no firmware store.
	h := newHart(t)
	for addr := uint16(0xC00); addr <= 0xFFF; addr++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetCSR(%#x) did not panic", addr)
				}
			}()
			h.SetCSR(addr, 1)
		}()
	}
}
