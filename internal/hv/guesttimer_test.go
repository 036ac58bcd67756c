package hv

import (
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
	"zion/internal/sm"
)

// One guest-timer rule for both VM kinds: each run fixes its quantum end
// at entry, every arm programs the earlier of that end and the guest's
// deadline, set_timer replaces the deadline (0 cancels) and never extends
// the quantum, and an expired deadline injects VSTIP into the guest.

// timerArg is one set_timer argument: a deadline offset cycles after the
// call, or with abs the absolute value itself.
type timerArg struct {
	offset uint64
	abs    bool
}

func after(off uint64) timerArg  { return timerArg{offset: off} }
func absolute(v uint64) timerArg { return timerArg{offset: v, abs: true} }

// timerGuest enables VS timer interrupts, calls set_timer with each arg,
// spins for spin iterations and shuts down with a0 = the handler's entry
// time minus the last argument and a1 = how often the handler ran. The
// handler records its entry time, counts itself, masks sie and returns.
// It does not call set_timer, so the injected VSTIP is still pending when
// the guest shuts down: the VM that runs next on the hart must not see it.
func timerGuest(args []timerArg, spin int64) []byte {
	p := asm.New(GuestRAMBase)
	p.LA(asm.T0, "handler")
	p.CSRRW(asm.Zero, isa.CSRStvec, asm.T0)
	p.LI(asm.T1, 1<<isa.IntSTimer)
	p.CSRRS(asm.Zero, isa.CSRSie, asm.T1)
	p.LI(asm.T1, int64(isa.MstatusSIE))
	p.CSRRS(asm.Zero, isa.CSRSstatus, asm.T1)
	p.LI(asm.S7, 0)
	p.LI(asm.S8, 0)
	for _, a := range args {
		if a.abs {
			p.LIU(asm.A0, a.offset)
		} else {
			p.CSRR(asm.A0, isa.CSRTime)
			p.LI(asm.T2, int64(a.offset))
			p.ADD(asm.A0, asm.A0, asm.T2)
		}
		p.MV(asm.S6, asm.A0)
		p.LI(asm.A7, sm.EIDTime)
		p.ECALL()
	}
	p.LI(asm.T1, spin)
	p.Label("spin")
	p.ADDI(asm.T1, asm.T1, -1)
	p.BNE(asm.T1, asm.Zero, "spin")
	p.SUB(asm.A0, asm.S7, asm.S6)
	p.MV(asm.A1, asm.S8)
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	p.Label("handler")
	p.CSRR(asm.S7, isa.CSRTime)
	p.ADDI(asm.S8, asm.S8, 1)
	p.CSRRW(asm.Zero, isa.CSRSie, asm.Zero)
	p.SRET()
	return p.MustAssemble()
}

// loopGuest calls SBI extension eid with a0 = now + 1e9, n times, with a
// short spin after each call, then shuts down.
func loopGuest(eid uint64, n int64) []byte {
	p := asm.New(GuestRAMBase)
	p.LI(asm.S1, n)
	p.Label("call")
	p.CSRR(asm.A0, isa.CSRTime)
	p.LI(asm.T2, 1_000_000_000)
	p.ADD(asm.A0, asm.A0, asm.T2)
	p.LIU(asm.A7, eid)
	p.ECALL()
	p.LI(asm.T1, 40)
	p.Label("spin")
	p.ADDI(asm.T1, asm.T1, -1)
	p.BNE(asm.T1, asm.Zero, "spin")
	p.ADDI(asm.S1, asm.S1, -1)
	p.BNE(asm.S1, asm.Zero, "call")
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// timerOutcome is what a run to shutdown shows of the timer rule.
type timerOutcome struct {
	quantumExits int
	handled      uint64 // how often the VS timer handler ran
	lateness     uint64 // handler entry time minus the deadline
}

// runToShutdown runs vm's vCPU 0 until it shuts down, counting quantum
// exits; more than 1,000 is a livelock.
func runToShutdown(t *testing.T, k *Hypervisor, vm *VM) timerOutcome {
	t.Helper()
	h := k.M.Harts[0]
	var out timerOutcome
	for {
		exit, err := k.RunVCPU(h, vm, 0)
		if err != nil {
			t.Fatalf("%s: %v", vm.Name, err)
		}
		switch exit.Reason {
		case sm.ExitTimer:
			if out.quantumExits++; out.quantumExits > 1000 {
				t.Fatalf("%s: over 1000 quantum exits: livelock", vm.Name)
			}
		case sm.ExitShutdown:
			out.lateness, out.handled = exit.Data, exit.Data2
			return out
		default:
			t.Fatalf("%s: exit %v", vm.Name, exit.Reason)
		}
	}
}

// injectSlack bounds how late after its deadline the VS handler may run:
// the guest's timer fires at the first instruction boundary at or after
// the deadline, and injection costs one M trap, the SM's dispatch and
// charges, an mret and the VS trap entry. It is far below any quantum.
const injectSlack = 1000

// TestGuestTimerRuleBothKinds runs each set_timer sequence through a CVM
// and through a normal VM on the same stack, CVM first, and requires the
// same outcome from both: the quantum-exit count, whether the VS handler
// ran, and, when it did, injection within injectSlack of the deadline. A
// case with a control guest wants, for each kind, the quantum-exit count
// of that guest on a fresh stack, within 10%.
func TestGuestTimerRuleBothKinds(t *testing.T) {
	const unsupportedEID = 0x1234
	cases := []struct {
		name         string
		smQ, hvQ     uint64 // SM and hypervisor quanta
		guest        []byte
		control      []byte
		quantumExits int
		handled      uint64 // times the VS timer handler runs
	}{
		// Injection at +8,000 does not extend the run's 10,000-cycle
		// quantum: about 33,000 cycles of guest work take three exits.
		{name: "single deadline", smQ: 10_000, hvQ: 10_000,
			guest: timerGuest([]timerArg{after(8_000)}, 6_500), quantumExits: 3, handled: 1},
		{name: "earlier then later",
			guest: timerGuest([]timerArg{after(5_000), after(20_000)}, 8_000), handled: 1},
		{name: "later then earlier",
			guest: timerGuest([]timerArg{after(20_000), after(5_000)}, 8_000), handled: 1},
		{name: "zero cancels", guest: timerGuest([]timerArg{after(5_000), absolute(0)}, 8_000)},
		{name: "all ones never fires", guest: timerGuest([]timerArg{absolute(^uint64(0))}, 8_000)},
		// set_timer more often than once per quantum must not defer the
		// preemption: as many exits as the same loop calling an
		// unsupported SBI extension.
		{name: "set_timer loop", smQ: 10_000, hvQ: 10_000,
			guest: loopGuest(sm.EIDTime, 2_000), control: loopGuest(unsupportedEID, 2_000)},
		// The CVM's run leaves its quantum end in the comparator when it
		// shuts down; the normal VM that runs next, with no quantum of
		// its own, must not take it as an expiry.
		{name: "stale quantum end", smQ: 10_000, guest: timerGuest(nil, 1_000)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newVMs := func(img []byte) (*Hypervisor, []*VM) {
				_, _, k, h := newStack(t, sm.Config{SchedQuantum: tc.smQ})
				k.SchedQuantum = tc.hvQ
				cvm, err := k.CreateCVM(h, "cvm", img, GuestRAMBase)
				if err != nil {
					t.Fatal(err)
				}
				nvm, err := k.CreateNormalVM("normal", img, GuestRAMBase)
				if err != nil {
					t.Fatal(err)
				}
				return k, []*VM{cvm, nvm}
			}
			var ck *Hypervisor
			var controls []*VM
			if tc.control != nil {
				ck, controls = newVMs(tc.control)
			}
			k, vms := newVMs(tc.guest)
			for i, vm := range vms {
				out := runToShutdown(t, k, vm)
				want, tol := tc.quantumExits, 0
				if controls != nil {
					want = runToShutdown(t, ck, controls[i]).quantumExits
					tol = want / 10
				}
				if d := out.quantumExits - want; d > tol || d < -tol {
					t.Errorf("%s: %d quantum exits, want %d±%d", vm.Name, out.quantumExits, want, tol)
				}
				if out.handled != tc.handled {
					t.Errorf("%s: VS timer handler ran %d times, want %d", vm.Name, out.handled, tc.handled)
				}
				if out.handled != 0 && out.lateness > injectSlack {
					t.Errorf("%s: handler ran %d cycles after the deadline, want at most %d",
						vm.Name, int64(out.lateness), injectSlack)
				}
				t.Logf("%s: %+v (want %d exits)", vm.Name, out, want)
			}
		})
	}
}

// softIntGuest optionally raises its own supervisor software interrupt
// through sip with the interrupt masked, spins for spin iterations,
// unmasks it and shuts down with a1 = how often its handler ran. The
// handler counts itself and masks sie without clearing sip, so a raised
// interrupt is still pending at shutdown.
func softIntGuest(raise bool, spin int64) []byte {
	p := asm.New(GuestRAMBase)
	p.LA(asm.T0, "handler")
	p.CSRRW(asm.Zero, isa.CSRStvec, asm.T0)
	p.LI(asm.S8, 0)
	if raise {
		p.LI(asm.T1, 1<<isa.IntSSoft)
		p.CSRRS(asm.Zero, isa.CSRSip, asm.T1)
	}
	p.LI(asm.T1, spin)
	p.Label("spin")
	p.ADDI(asm.T1, asm.T1, -1)
	p.BNE(asm.T1, asm.Zero, "spin")
	p.LI(asm.T1, 1<<isa.IntSSoft)
	p.CSRRS(asm.Zero, isa.CSRSie, asm.T1)
	p.LI(asm.T1, int64(isa.MstatusSIE))
	p.CSRRS(asm.Zero, isa.CSRSstatus, asm.T1)
	p.NOP()
	p.LI(asm.A0, 0)
	p.MV(asm.A1, asm.S8)
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	p.Label("handler")
	p.ADDI(asm.S8, asm.S8, 1)
	p.CSRRW(asm.Zero, isa.CSRSie, asm.Zero)
	p.SRET()
	return p.MustAssemble()
}

// TestGuestSoftIntStaysWithVCPU: a VS software interrupt a guest raises
// for itself is part of its vCPU, like an injected timer interrupt. It
// survives the guest's own quantum exits and reaches its handler, and the
// other kind of VM that runs next on the hart never sees it.
func TestGuestSoftIntStaysWithVCPU(t *testing.T) {
	for _, cvmFirst := range []bool{true, false} {
		_, _, k, h := newStack(t, sm.Config{SchedQuantum: 10_000})
		k.SchedQuantum = 10_000
		raiser, quiet := softIntGuest(true, 8_000), softIntGuest(false, 1_000)
		var vms [2]*VM
		var err error
		if cvmFirst {
			if vms[0], err = k.CreateCVM(h, "cvm", raiser, GuestRAMBase); err == nil {
				vms[1], err = k.CreateNormalVM("normal", quiet, GuestRAMBase)
			}
		} else {
			if vms[0], err = k.CreateNormalVM("normal", raiser, GuestRAMBase); err == nil {
				vms[1], err = k.CreateCVM(h, "cvm", quiet, GuestRAMBase)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		out := runToShutdown(t, k, vms[0])
		if out.quantumExits == 0 || out.handled != 1 {
			t.Errorf("%s raised VSSIP: %d quantum exits, handler ran %d times; want at least 1 exit and 1 run",
				vms[0].Name, out.quantumExits, out.handled)
		}
		if out := runToShutdown(t, k, vms[1]); out.handled != 0 {
			t.Errorf("%s after %s: software-interrupt handler ran %d times, want 0",
				vms[1].Name, vms[0].Name, out.handled)
		}
	}
}
