package hart

import (
	"math/rand"
	"testing"

	"zion/internal/isa"
	"zion/internal/ptw"
)

// moveRegs is a world-switch-shaped context: delegation, the translation
// roots (satp, vsatp and hgatp keep their WARL mode checks on the SetCSR
// path), the trap CSRs of every level and mstatus.
var moveRegs = []uint16{isa.CSRMedeleg, isa.CSRMideleg, isa.CSRHedeleg,
	isa.CSRHideleg, isa.CSRHgatp, isa.CSRHstatus, isa.CSRStvec,
	isa.CSRSscratch, isa.CSRSatp, isa.CSRSepc, isa.CSRMie, isa.CSRMstatus,
	isa.CSRMepc, isa.CSRVsstatus, isa.CSRVsepc, isa.CSRVsatp, isa.CSRHvip}

// randomCSRValue draws a value for addr; translation roots get a legal or
// illegal mode half the time each, so the WARL check has work to do.
func randomCSRValue(r *rand.Rand, addr uint16) uint64 {
	v := r.Uint64()
	switch addr {
	case isa.CSRSatp, isa.CSRVsatp, isa.CSRHgatp:
		modes := []uint64{isa.SatpModeBare, isa.SatpModeSv39, 9, 10}
		v = v&^(uint64(0xF)<<isa.SatpModeShift) | modes[r.Intn(len(modes))]<<isa.SatpModeShift
	}
	return v
}

// A context written through SetCSR and read back with SaveCSRs is legal;
// loading it with LoadCSRs must leave exactly the CSR file per-register
// SetCSR leaves, whatever the target hart held before, and must retire
// the target's micro-TLB entries.
func TestLoadCSRsMatchesSetCSR(t *testing.T) {
	list := NewCSRList(moveRegs...)
	r := rand.New(rand.NewSource(26))
	for seed := 0; seed < 200; seed++ {
		src := newHart(t)
		for _, a := range moveRegs {
			src.SetCSR(a, randomCSRValue(r, a))
		}
		ctx := make([]uint64, len(moveRegs))
		src.SaveCSRs(list, ctx)
		for i, a := range moveRegs {
			if ctx[i] != src.CSR(a) {
				t.Fatalf("seed %d: SaveCSRs[%d] = %#x, CSR(%#x) = %#x", seed, i, ctx[i], a, src.CSR(a))
			}
		}

		// Two targets with the same unrelated prior state.
		viaSet, viaLoad := newHart(t), newHart(t)
		for _, a := range moveRegs {
			v := randomCSRValue(r, a)
			viaSet.SetCSR(a, v)
			viaLoad.SetCSR(a, v)
		}
		openPMP(t, viaLoad)
		ent := &viaLoad.fp.read[0]
		if !viaLoad.fp.fill(viaLoad, ent, ramBase, ptw.AccessRead) {
			t.Fatal("M-mode fill of a RAM page declined")
		}
		ep := viaLoad.epochs()
		if !ent.valid(ramBase>>isa.PageShift, &ep) {
			t.Fatal("fresh micro-TLB entry is not valid")
		}

		for i, a := range moveRegs {
			viaSet.SetCSR(a, ctx[i])
		}
		viaLoad.LoadCSRs(list, ctx)
		if viaSet.csr.regs != viaLoad.csr.regs {
			for a := range viaSet.csr.regs {
				if viaSet.csr.regs[a] != viaLoad.csr.regs[a] {
					t.Errorf("seed %d: CSR %#x: SetCSR %#x, LoadCSRs %#x",
						seed, a, viaSet.csr.regs[a], viaLoad.csr.regs[a])
				}
			}
			t.FailNow()
		}
		if viaLoad.csr.regs != src.csr.regs {
			t.Fatalf("seed %d: loaded CSR file differs from the saved hart's", seed)
		}
		ep = viaLoad.epochs()
		if ent.valid(ramBase>>isa.PageShift, &ep) {
			t.Fatalf("seed %d: micro-TLB entry survived LoadCSRs", seed)
		}
	}
}

// NewCSRList admits only registers whose store is a plain copy.
func TestNewCSRListRefusesNonPlain(t *testing.T) {
	for _, a := range []uint16{isa.CSRSstatus, isa.CSRSie, isa.CSRSip,
		isa.CSRVsie, isa.CSRVsip, isa.CSRMip, isa.CSRMisa, isa.CSRMhartid,
		isa.CSRPmpcfg0, isa.CSRPmpcfg2, isa.CSRPmpaddr0, isa.CSRPmpaddr15,
		isa.CSRCycle, isa.CSRInstret, 0x1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCSRList accepted CSR %#x", a)
				}
			}()
			NewCSRList(isa.CSRMepc, a)
		}()
	}
}

// GuestContext.Load stores the six plain VS CSRs as given, but vsatp
// keeps its WARL mode check: a snapshot blob carrying an unsupported
// translation mode leaves the previous vsatp (and translation epoch) in
// place, exactly as a per-register SetCSR would.
func TestGuestContextLoadKeepsVsatpWARL(t *testing.T) {
	h := newHart(t)
	legal := uint64(isa.SatpModeSv39)<<isa.SatpModeShift | 0x1234
	h.SetCSR(isa.CSRVsatp, legal)

	g := GuestContext{Vsstatus: 0x22, Vsepc: 0x8000_1000, Vscause: 5,
		Vstval: 0xdead, Vstvec: 0x8000_2000, Vsscratch: 0x77,
		Vsatp: uint64(9)<<isa.SatpModeShift | 0x5678} // Sv48: unsupported
	gen := h.mmuGen
	g.Load(h)
	if got := h.CSR(isa.CSRVsatp); got != legal {
		t.Errorf("vsatp = %#x after loading an Sv48 value, want the old %#x", got, legal)
	}
	if h.mmuGen != gen {
		t.Error("an ignored vsatp write bumped the translation epoch")
	}
	want := map[uint16]uint64{isa.CSRVsstatus: g.Vsstatus, isa.CSRVsepc: g.Vsepc,
		isa.CSRVscause: g.Vscause, isa.CSRVstval: g.Vstval, isa.CSRVstvec: g.Vstvec,
		isa.CSRVsscratch: g.Vsscratch}
	for a, v := range want {
		if got := h.CSR(a); got != v {
			t.Errorf("CSR %#x = %#x, want %#x", a, got, v)
		}
	}

	g.Vsatp = uint64(isa.SatpModeSv39)<<isa.SatpModeShift | 0x9abc
	g.Load(h)
	if got := h.CSR(isa.CSRVsatp); got != g.Vsatp || h.mmuGen == gen {
		t.Errorf("legal vsatp: got %#x (epoch moved: %v), want %#x", got, h.mmuGen != gen, g.Vsatp)
	}
	var back GuestContext
	back.Save(h)
	if back.Vsatp != g.Vsatp || back.Vsstatus != g.Vsstatus || back.Vsscratch != g.Vsscratch {
		t.Errorf("Save after Load: %+v", back)
	}
}
