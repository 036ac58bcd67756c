package sm

import (
	"errors"
	"testing"

	"zion/internal/asm"
	"zion/internal/hart"
	"zion/internal/iopmp"
	"zion/internal/isa"
	"zion/internal/platform"
	"zion/internal/pmp"
	"zion/internal/ptw"
)

// Property 1: in Normal mode the hypervisor (S-mode software) cannot read
// or write secure-pool memory — PMP denies while the pool entry is closed.
func TestHypervisorCannotTouchSecurePool(t *testing.T) {
	f := newFixture(t, Config{})
	// Run an S-mode probe program that loads from the pool.
	p := asm.New(platform.RAMBase)
	p.LI(asm.T0, poolBase+0x1000)
	p.LD(asm.A0, asm.T0, 0)
	if err := f.m.RAM.Write(platform.RAMBase, p.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	f.h.PC = platform.RAMBase
	f.h.Mode = isa.ModeS
	var ev = f.h.Step() // li (multi-inst) ... step until trap or done
	for i := 0; ev.Kind == hart.EvNone && i < 20; i++ {
		ev = f.h.Step()
	}
	if ev.Kind != hart.EvTrap {
		t.Fatalf("no trap; hypervisor read secure memory")
	}
	if ev.Trap.Cause != isa.ExcLoadAccessFault {
		t.Fatalf("cause = %s", isa.CauseName(ev.Trap.Cause))
	}

	// Writes fault too.
	p2 := asm.New(platform.RAMBase)
	p2.LI(asm.T0, poolBase+0x1000)
	p2.SD(asm.Zero, asm.T0, 0)
	if err := f.m.RAM.Write(platform.RAMBase, p2.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	f.h.PC = platform.RAMBase
	f.h.Mode = isa.ModeS
	ev = f.h.Step()
	for i := 0; ev.Kind == hart.EvNone && i < 20; i++ {
		ev = f.h.Step()
	}
	if ev.Kind != hart.EvTrap || ev.Trap.Cause != isa.ExcStoreAccessFault {
		t.Fatalf("store probe: %+v", ev)
	}
}

// Property 1b: the same probe succeeds while in CVM mode (so the guest can
// actually run), proving the PMP view really flips on the world switch.
func TestPoolPMPFlipsAcrossWorldSwitch(t *testing.T) {
	f := newFixture(t, Config{})
	u := f.h.PMP
	// Normal mode: pool closed.
	if u.Check(poolBase, 8, pmp.AccessRead, false) {
		t.Fatal("pool open in Normal mode")
	}
	f.s.setPoolPMP(f.h, true)
	if !u.Check(poolBase, 8, pmp.AccessRead, false) {
		t.Fatal("pool closed in CVM mode")
	}
	f.s.setPoolPMP(f.h, false)
	if u.Check(poolBase, 8, pmp.AccessWrite, false) {
		t.Fatal("pool reopened after exit")
	}
}

// Property 2: device DMA cannot reach the secure pool. The SM rejects
// windows that intersect it, and the IOPMP default-denies everything else.
func TestDMACannotReachSecurePool(t *testing.T) {
	f := newFixture(t, Config{})
	// Direct DMA with no grant: denied.
	if err := f.m.IOPMP.Check(3, poolBase, 64, pmp.AccessWrite); err == nil {
		t.Error("unenrolled DMA to pool allowed")
	}
	// The SM refuses to grant a window overlapping the pool.
	if _, err := f.s.HVCall(f.h, FnGrantDMA, 3, poolBase-0x1000, 0x2000); !errors.Is(err, ErrOwnership) {
		t.Errorf("overlapping DMA grant: %v", err)
	}
	// A source id wider than the IOPMP's is rejected, not truncated to 3.
	if _, err := f.s.HVCall(f.h, FnGrantDMA, 1<<16|3, platform.RAMBase+0x40_0000, 1<<20); !errors.Is(err, ErrBadArgs) {
		t.Errorf("truncatable DMA source id: %v", err)
	}
	// A normal-memory window works, but still cannot reach the pool.
	if _, err := f.s.HVCall(f.h, FnGrantDMA, 3, platform.RAMBase+0x40_0000, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := f.m.IOPMP.Check(3, platform.RAMBase+0x40_0000, 64, pmp.AccessWrite); err != nil {
		t.Errorf("granted window rejected: %v", err)
	}
	if err := f.m.IOPMP.Check(3, poolBase, 64, pmp.AccessRead); err == nil {
		t.Error("granted source escaped into the pool")
	}
}

// Property 3: one CVM can never map or reach another CVM's frames. The
// stage-2 trees are SM-built from disjoint owned sets; we verify the
// ownership sets of two concurrently running CVMs are disjoint and their
// leaves stay within their own sets.
func TestInterCVMFrameDisjointness(t *testing.T) {
	f := newFixture(t, Config{})
	mk := func() int {
		return f.buildCVM(shutdownProgram(func(p *asm.Program) {
			p.LI(asm.T0, int64(PrivateBase)+0x10_0000)
			p.LI(asm.T1, 16)
			p.Label("touch")
			p.SD(asm.T1, asm.T0, 0)
			p.LI(asm.T2, isa.PageSize)
			p.ADD(asm.T0, asm.T0, asm.T2)
			p.ADDI(asm.T1, asm.T1, -1)
			p.BNE(asm.T1, asm.Zero, "touch")
		}))
	}
	idA := mk()
	f.id = idA
	if info := f.run(); info.Reason != ExitShutdown {
		t.Fatalf("A: %v", info.Reason)
	}
	idB := mk()
	f.id = idB
	if info := f.run(); info.Reason != ExitShutdown {
		t.Fatalf("B: %v", info.Reason)
	}
	a, b := f.s.life.cvms[idA], f.s.life.cvms[idB]
	for pa, ok := a.owned.next(0); ok; pa, ok = a.owned.next(pa + isa.PageSize) {
		if b.owned.has(pa) {
			t.Fatalf("frame %#x owned by both CVMs", pa)
		}
	}
	// Every leaf of B's tree points at a B-owned frame.
	w := &ptw.Walker{Mem: f.m.RAM}
	for gpa := PrivateBase; gpa < PrivateBase+0x12_0000; gpa += isa.PageSize {
		res, err := w.Walk(b.hgatpRoot, gpa, ptw.AccessRead, ptw.Opts{Stage2: true})
		if err != nil {
			continue // unmapped is fine
		}
		frame := res.PA &^ uint64(isa.PageSize-1)
		if !b.owned.has(frame) {
			t.Fatalf("B's tree maps unowned frame %#x", frame)
		}
		if a.owned.has(frame) {
			t.Fatalf("B's tree maps A's frame %#x", frame)
		}
	}
}

// Property 4: CVM stage-2 page tables live in secure memory, out of the
// hypervisor's reach.
func TestPageTablesLiveInSecureMemory(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) { p.NOP() }))
	c := f.s.life.cvms[f.id]
	if !f.s.alloc.pool.contains(c.hgatpRoot, ptw.RootSize(true)) {
		t.Fatalf("stage-2 root %#x is not in the secure pool", c.hgatpRoot)
	}
	// An S-mode PMP check against the root fails in Normal mode.
	if f.h.PMP.Check(c.hgatpRoot, 8, pmp.AccessWrite, false) {
		t.Error("hypervisor could write the CVM's page table")
	}
}

// Property 6 (§IV.E): the SM rejects a shared subtable that maps secure
// memory, whether via a leaf or via a table frame placed in the pool.
func TestSharedSubtableValidation(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) { p.NOP() }))

	// Benign subtable: a 2 MiB leaf over normal memory. Accepted.
	sub := uint64(platform.RAMBase + 0x0060_0000)
	leafPA := uint64(platform.RAMBase + 0x0070_0000)
	pte := (leafPA>>isa.PageShift)<<isa.PTEPPNShift | isa.PTEValid |
		isa.PTERead | isa.PTEWrite | isa.PTEUser
	if err := f.m.RAM.WriteUint64(sub, pte); err != nil {
		t.Fatal(err)
	}
	if _, err := f.s.HVCall(f.h, FnRegisterShared, uint64(f.id), sub); err != nil {
		t.Fatalf("benign subtable rejected: %v", err)
	}

	// Malicious leaf into the pool: rejected.
	evil := uint64(platform.RAMBase + 0x0061_0000)
	pteEvil := (uint64(poolBase)>>isa.PageShift)<<isa.PTEPPNShift | isa.PTEValid |
		isa.PTERead | isa.PTEUser
	if err := f.m.RAM.WriteUint64(evil, pteEvil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.s.HVCall(f.h, FnRegisterShared, uint64(f.id), evil); !errors.Is(err, ErrOwnership) {
		t.Fatalf("evil leaf accepted: %v", err)
	}

	// Subtable frame itself inside the pool: rejected.
	if _, err := f.s.HVCall(f.h, FnRegisterShared, uint64(f.id), uint64(poolBase)+0x2000); !errors.Is(err, ErrNotNormal) {
		t.Fatalf("secure-memory subtable accepted: %v", err)
	}

	// Nested evil: a pointer entry to a sub-sub-table whose leaf maps the
	// pool. Rejected recursively.
	l1 := uint64(platform.RAMBase + 0x0062_0000)
	l0 := uint64(platform.RAMBase + 0x0063_0000)
	ptr := (l0>>isa.PageShift)<<isa.PTEPPNShift | isa.PTEValid
	if err := f.m.RAM.WriteUint64(l1, ptr); err != nil {
		t.Fatal(err)
	}
	if err := f.m.RAM.WriteUint64(l0+8, pteEvil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.s.HVCall(f.h, FnRegisterShared, uint64(f.id), l1); !errors.Is(err, ErrOwnership) {
		t.Fatalf("nested evil accepted: %v", err)
	}
}

// Property 6b: with ValidateSharedOnEntry, a post-splice remap to secure
// memory is caught on the next entry and the window is unspliced.
func TestEntryRevalidationCatchesRemap(t *testing.T) {
	f := newFixture(t, Config{ValidateSharedOnEntry: true, SchedQuantum: 5000})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T1, 50000)
		p.Label("spin")
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "spin")
	}))
	sub := uint64(platform.RAMBase + 0x0060_0000)
	leafPA := uint64(platform.RAMBase + 0x0070_0000)
	pte := (leafPA>>isa.PageShift)<<isa.PTEPPNShift | isa.PTEValid |
		isa.PTERead | isa.PTEWrite | isa.PTEUser
	if err := f.m.RAM.WriteUint64(sub, pte); err != nil {
		t.Fatal(err)
	}
	if _, err := f.s.HVCall(f.h, FnRegisterShared, uint64(f.id), sub); err != nil {
		t.Fatal(err)
	}
	info := f.run()
	if info.Reason != ExitTimer {
		t.Fatalf("first run: %v", info.Reason)
	}
	if f.s.life.cvms[f.id].sharedSubtable != sub {
		t.Fatal("shared window lost after benign entry")
	}
	// Hostile remap between runs: point the leaf at the pool.
	pteEvil := (uint64(poolBase)>>isa.PageShift)<<isa.PTEPPNShift | isa.PTEValid |
		isa.PTERead | isa.PTEUser
	if err := f.m.RAM.WriteUint64(sub, pteEvil); err != nil {
		t.Fatal(err)
	}
	f.run() // next entry revalidates
	if f.s.life.cvms[f.id].sharedSubtable != 0 {
		t.Error("hostile remap survived entry revalidation")
	}
	if f.s.Stats.SharedChecks < 2 {
		t.Errorf("SharedChecks = %d", f.s.Stats.SharedChecks)
	}
}

// Property 7: copyToGuest refuses buffers whose frames the CVM does not
// own (prevents the SM being tricked into writing reports into foreign or
// shared memory).
func TestCopyToGuestOwnership(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) { p.NOP() }))
	c := f.s.life.cvms[f.id]
	// Forge a stage-2 leaf pointing at normal memory (as a compromised
	// path might) and confirm copyToGuest rejects it.
	b := &c.pt
	foreign := uint64(platform.RAMBase + 0x0075_0000)
	if err := b.Map(c.hgatpRoot, PrivateBase+0x40_0000, foreign,
		isa.PTERead|isa.PTEWrite|isa.PTEUser, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := f.s.copyToGuest(c, PrivateBase+0x40_0000, []byte("x")); !errors.Is(err, ErrOwnership) {
		t.Errorf("foreign-frame copy: %v", err)
	}
	// Shared-window GPAs are rejected outright.
	if err := f.s.copyToGuest(c, SharedBase, []byte("x")); !errors.Is(err, ErrBadArgs) {
		t.Errorf("shared-window copy: %v", err)
	}
}

// The IOPMP default posture: even a source with a granted window cannot
// exceed it, and exec-style DMA never passes.
func TestIOPMPWindowDiscipline(t *testing.T) {
	f := newFixture(t, Config{})
	if _, err := f.s.HVCall(f.h, FnGrantDMA, 9, platform.RAMBase+0x50_0000, 0x1000); err != nil {
		t.Fatal(err)
	}
	ck := func(addr, n uint64, acc pmp.AccessType) error {
		return f.m.IOPMP.Check(iopmp.SourceID(9), addr, n, acc)
	}
	if err := ck(platform.RAMBase+0x50_0000, 0x1000, pmp.AccessRead); err != nil {
		t.Errorf("in-window read: %v", err)
	}
	if err := ck(platform.RAMBase+0x50_0FF8, 16, pmp.AccessWrite); err == nil {
		t.Error("boundary-straddling DMA allowed")
	}
	if err := ck(platform.RAMBase+0x50_0000, 8, pmp.AccessExec); err == nil {
		t.Error("exec DMA allowed")
	}
}
