package hv

import (
	"fmt"
	"testing"

	"zion/internal/asm"
	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/sm"
)

// csrLeakQuantum is long enough for the marking guest to write every
// guest-writable CSR before its first quantum expires.
const csrLeakQuantum = 200_000

// markGuest writes mark to every CSR in csrs (sstatus without SIE, so no
// VS interrupt it enables is ever taken), then shuts down or, with spin,
// loops until its quantum expires.
func markGuest(csrs []uint16, mark uint64, spin bool) []byte {
	p := asm.New(GuestRAMBase)
	p.LI(asm.T1, int64(mark))
	p.LI(asm.T2, int64(mark&^isa.MstatusSIE))
	for _, a := range csrs {
		src := asm.T1
		if a == isa.CSRSstatus {
			src = asm.T2
		}
		p.CSRRW(asm.Zero, a, src)
	}
	if spin {
		p.Label("spin")
		p.J("spin")
	}
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// readGuest reads every CSR in csrs, folds the values into one FNV-1a
// style hash and shuts down with it in a0.
func readGuest(csrs []uint16) []byte {
	p := asm.New(GuestRAMBase)
	p.LI(asm.S0, 0)
	p.LI(asm.S1, 0x100000001b3)
	for _, a := range csrs {
		p.CSRRS(asm.T0, a, asm.Zero)
		p.XOR(asm.S0, asm.S0, asm.T0)
		p.MUL(asm.S0, asm.S0, asm.S1)
	}
	p.MV(asm.A0, asm.S0)
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// hypervisorView is every CSR the hypervisor can read from HS-mode
// except the read-only counters and information registers, by address.
func hypervisorView(h *hart.Hart) map[uint16]uint64 {
	view := map[uint16]uint64{}
	for a := uint16(0); a <= 0xFFF; a++ {
		if a>>8&3 != 3 && a>>10 != 3 {
			view[a] = h.CSR(a)
		}
	}
	return view
}

// csrLeakRun is one guest A, then one guest B, on one hart.
type csrLeakRun struct {
	aCVM, bCVM bool
	spin       bool // A leaves by quantum expiry, not shutdown
}

// run has guest A write mark to csrs and leave, then runs guest B to
// shutdown. It returns B's hash and, when A is a CVM, what the hypervisor
// could read right after A's exit.
func (r csrLeakRun) run(t *testing.T, csrs []uint16, mark uint64) (uint64, map[uint16]uint64) {
	t.Helper()
	_, _, k, h := newStack(t, sm.Config{SchedQuantum: csrLeakQuantum})
	k.SchedQuantum = csrLeakQuantum
	create := func(name string, cvm bool, img []byte) *VM {
		var vm *VM
		var err error
		if cvm {
			vm, err = k.CreateCVM(h, name, img, GuestRAMBase)
		} else {
			vm, err = k.CreateNormalVM(name, img, GuestRAMBase)
		}
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}
	a := create("a", r.aCVM, markGuest(csrs, mark, r.spin))
	b := create("b", r.bCVM, readGuest(hart.GuestWritableCSRs()))
	want := sm.ExitShutdown
	if r.spin {
		want = sm.ExitTimer
	}
	if exit, err := k.RunVCPU(h, a, 0); err != nil || exit.Reason != want {
		t.Fatalf("%+v: guest A left with %v (%v), want %v", r, exit.Reason, err, want)
	}
	var view map[uint16]uint64
	if r.aCVM {
		view = hypervisorView(h)
	}
	return runToShutdown(t, k, b).lateness, view // lateness carries a0
}

// TestNoGuestCSRStaysOnHart: for every CSR a VS- or VU-mode csrw can
// write, guest A writes a marker and leaves, by shutdown or by quantum
// expiry, and guest B, on the same hart, must still read its own initial
// values: B's reads hash the same as on a stack where A wrote zeros. After
// a CVM's exit, the hypervisor must read the same CSR values whatever the
// CVM wrote. It covers three kind pairs: CVM then CVM, CVM then normal VM,
// normal VM then CVM.
func TestNoGuestCSRStaysOnHart(t *testing.T) {
	csrs := hart.GuestWritableCSRs()
	if len(csrs) < 1000 {
		t.Fatalf("%d guest-writable CSRs, want the S- and U-level ranges", len(csrs))
	}
	const marker = ^uint64(0)
	for _, pair := range [][2]bool{{true, true}, {true, false}, {false, true}} {
		for _, spin := range []bool{false, true} {
			r := csrLeakRun{aCVM: pair[0], bCVM: pair[1], spin: spin}
			name := fmt.Sprintf("A=%s/B=%s/quantum=%v", kindName(r.aCVM), kindName(r.bCVM), spin)
			t.Run(name, func(t *testing.T) {
				clean, cleanView := r.run(t, csrs, 0)
				marked, markedView := r.run(t, csrs, marker)
				if marked != clean {
					t.Errorf("guest B reads guest A's marker in %s", leakingCSRs(t, r, csrs, clean))
				}
				for a, v := range markedView {
					if cleanView[a] != v {
						t.Errorf("hypervisor reads %#x = %#x after the CVM wrote its marker, %#x after it wrote zeros",
							a, v, cleanView[a])
					}
				}
			})
		}
	}
}

func kindName(cvm bool) string {
	if cvm {
		return "cvm"
	}
	return "normal"
}

// leakingCSRs bisects csrs down to the first few whose marker B reads.
func leakingCSRs(t *testing.T, r csrLeakRun, csrs []uint16, clean uint64) string {
	var found []uint16
	var search func(set []uint16)
	search = func(set []uint16) {
		if len(found) >= 8 {
			return
		}
		if h, _ := r.run(t, set, ^uint64(0)); h == clean {
			return
		}
		if len(set) == 1 {
			found = append(found, set[0])
			return
		}
		search(set[:len(set)/2])
		search(set[len(set)/2:])
	}
	search(csrs)
	return fmt.Sprintf("CSRs %#x", found)
}
