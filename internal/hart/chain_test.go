package hart

import (
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
	"zion/internal/ptw"
)

// Directed lockstep tests of the exact event horizon and same-page
// chaining (superblock.go, points 3 and 4 of the proof). Each compares the
// compiled tier against a reference hart with the fast path detached.

// sameFirstEvent runs fast and slow through Run until their first event
// and fails unless both report the same event at the same PC, Cycles and
// Instret.
func sameFirstEvent(t *testing.T, tag string, fast, slow *Hart, fc, sc Clock) Event {
	t.Helper()
	_, ef := fast.Run(fc, 100000)
	_, es := slow.Run(sc, 100000)
	if ef != es || fast.PC != slow.PC || fast.Cycles != slow.Cycles || fast.Instret != slow.Instret {
		t.Fatalf("%s: compiled tier %+v at pc=%#x cycle %d after %d instructions; reference %+v at pc=%#x cycle %d after %d",
			tag, ef, fast.PC, fast.Cycles, fast.Instret, es, slow.PC, slow.Cycles, slow.Instret)
	}
	return ef
}

// timerInterrupt is the cause a machine-timer deadline raises.
const timerInterrupt = isa.CauseInterruptBit | isa.IntMTimer

// A load whose data page the TLB does not hold retires through execute()
// and walks: three Sv39 steps of WalkStep, 54 cycles, more than the
// exact bound gives a memory op. A deadline swept across the walk must
// raise the timer interrupt at the same instruction, cycle and instret
// count as the reference interpreter, with the trace tier on and off.
// Two re-checks after the walk each return the loop to its boundary
// work: the horizon re-check and, because the walk inserts into the TLB,
// the TLB-generation one; without both the interrupt lands late.
func TestHorizonWalkingLoadSweep(t *testing.T) {
	const data = ramBase + 0x10000
	p := asm.New(ramBase)
	p.LIU(20, data)
	for i := 0; i < 30; i++ {
		p.ADDI(5, 5, 1)
	}
	p.Label("load")
	p.LD(6, 20, 0)
	for i := 0; i < 30; i++ {
		p.ADDI(5, 5, 1)
	}
	p.ECALL()
	loadPC, _ := p.LabelAddr("load")

	enter := func(h *Hart, c *fakeCLINT, deadline uint64, armed bool) {
		load(t, h, ramBase, p)
		enterSv39With(t, h, ramBase, func(b *ptw.Builder, root uint64) error {
			if err := b.Map(root, ramBase, ramBase, pteRWXAD, 0, false); err != nil {
				return err
			}
			return b.Map(root, data, data, pteRWXAD, 0, false)
		})
		h.SetCSR(isa.CSRMtvec, ramBase+0x2000)
		h.SetCSR(isa.CSRMie, 1<<isa.IntMTimer)
		c.mtimecmp, c.armed = deadline, armed
	}

	// The cycle count at which the load starts, on the reference.
	probe, _, pc, _ := newBatchPair(t)
	probe.DisableFastPath()
	enter(probe, pc, 0, false)
	for probe.PC != loadPC {
		if ev := probe.Step(); ev.Kind != EvNone {
			t.Fatalf("probe: %+v before the load", ev)
		}
	}
	start := probe.Cycles
	if ev := probe.Step(); ev.Kind != EvNone || probe.Cycles-start < 3*probe.Cost.WalkStep {
		t.Fatalf("probe: the load charged %d cycles (%+v), want a walk", probe.Cycles-start, ev)
	}

	var cutoffs, afterLoad uint64
	for _, traces := range []bool{true, false} {
		for dl := start - 10; dl < start+80; dl++ {
			fast, slow, fc, sc := newBatchPair(t)
			fast.SetTraces(traces)
			enter(fast, fc, dl, true)
			enter(slow, sc, dl, true)
			ev := sameFirstEvent(t, "walking load", fast, slow, fc, sc)
			if ev.Kind != EvTrap || ev.Trap.Cause != timerInterrupt {
				t.Fatalf("deadline %d: event %+v, want the timer interrupt", dl, ev)
			}
			if ev.Trap.PC == loadPC+4 {
				afterLoad++
			}
			cutoffs += fast.FastPathStats().HorizonCutoffs
		}
	}
	if afterLoad == 0 {
		t.Fatal("no deadline fell inside the walk")
	}
	if cutoffs == 0 {
		t.Fatal("no block entry was cut off at the horizon")
	}
}

// tightLoop emits an M-mode loop whose taken BNE closes every sixth
// instruction, iters times, then an ecall. iters 0 loops for ever.
func tightLoop(p *asm.Program, iters int64) {
	p.LI(6, iters)
	p.Label("loop")
	p.ADDI(7, 7, 1)
	p.XOR(8, 8, 7)
	p.ADD(9, 9, 8)
	p.SLLI(10, 9, 1)
	p.ADDI(5, 5, 1)
	p.BNE(5, 6, "loop")
	p.ECALL()
}

// A tight same-page loop chains every taken BNE to the loop head. A timer
// deadline swept across it must be delivered at the same boundary as
// per-step execution, and the chains must happen.
func TestHorizonLoopSweep(t *testing.T) {
	var chains, irqs uint64
	for dl := uint64(1); dl < 1200; dl += 13 {
		p := asm.New(ramBase)
		emitIRQProlog(p)
		tightLoop(p, 150)
		fast, slow, fc, sc := newBatchPair(t)
		load(t, fast, ramBase, p)
		load(t, slow, ramBase, p)
		fc.mtimecmp, fc.armed = dl, true
		sc.mtimecmp, sc.armed = dl, true
		batchLockstep(t, "loop", int(dl), fast, slow, fc, sc, isa.ExcEcallM, 0)
		irqs += fast.Reg(27)
		chains += fast.FastPathStats().Chains
	}
	if irqs == 0 {
		t.Fatal("sweep never delivered a timer interrupt")
	}
	if chains == 0 {
		t.Fatal("the loop never chained a side exit")
	}
}

// A side exit chains only to an aligned target on its own page whose slot
// has a pre-bound op. A JALR to a misaligned target, a JAL to the next
// page and a JAL to an ecall must leave the dispatch loop and match the
// reference; the same jumps to an aligned same-page ADDI chain.
func TestChainTargets(t *testing.T) {
	cases := []struct {
		name  string
		jump  func(p *asm.Program)
		chain bool
	}{
		{"jalr misaligned", func(p *asm.Program) {
			p.LA(5, "head")
			p.ADDI(5, 5, 2)
			p.JALR(0, 5, 0)
		}, false},
		{"jal next page", func(p *asm.Program) { p.J("next") }, false},
		{"jalr aligned", func(p *asm.Program) {
			p.LA(5, "head")
			p.JALR(0, 5, 0)
		}, true},
		{"jal same page", func(p *asm.Program) { p.J("head") }, true},
		{"jal to an execute() op", func(p *asm.Program) { p.J("stop") }, false},
	}
	// Page layout: an ADDI run ending in an ecall at head (+0x100), the
	// jump's run at start (+0x200), and another such run at next, the
	// first slot of the following page.
	pad := func(p *asm.Program, to uint64) {
		for p.PC() < to {
			p.NOP()
		}
	}
	for _, tc := range cases {
		p := asm.New(ramBase)
		pad(p, ramBase+0x100)
		p.Label("head")
		for i := 0; i < 4; i++ {
			p.ADDI(11, 11, 1)
		}
		p.Label("stop")
		p.ECALL()
		pad(p, ramBase+0x200)
		p.Label("start")
		p.ADDI(12, 12, 1)
		tc.jump(p)
		pad(p, ramBase+isa.PageSize)
		p.Label("next")
		for i := 0; i < 4; i++ {
			p.ADDI(13, 13, 1)
		}
		p.ECALL()
		start, _ := p.LabelAddr("start")
		fast, slow := newLockstepPair(t)
		for _, h := range []*Hart{fast, slow} {
			load(t, h, ramBase, p)
			h.PC = start
		}
		sameFirstEvent(t, tc.name, fast, slow, noTimer{}, noTimer{})
		if fast.X != slow.X {
			t.Errorf("%s: registers %#x, reference %#x", tc.name, fast.X, slow.X)
		}
		if got := fast.FastPathStats().Chains; (got != 0) != tc.chain {
			t.Errorf("%s: %d chains, want chaining %v", tc.name, got, tc.chain)
		}
	}
}

// Run(clock, k) on a chaining loop retires exactly k instructions and
// leaves the state the reference reaches in k steps, for k = 1..20. Every
// taken branch but a call's last instruction chains, and the fetch
// counters match the block tier's, which never chains.
func TestChainBudget(t *testing.T) {
	p := asm.New(ramBase)
	tightLoop(p, 0)
	fast, slow := newLockstepPair(t)
	block := newHart(t)
	block.SetTraces(false)
	for _, h := range []*Hart{fast, slow, block} {
		load(t, h, ramBase, p)
	}
	var wantChains uint64
	for k := uint64(1); k <= 20; k++ {
		before := fast.Instret
		n, ev := fast.Run(noTimer{}, k)
		if n != k || ev.Kind != EvNone || fast.Instret-before != k {
			t.Fatalf("Run(%d) = %d, %+v after %d retirements", k, n, ev, fast.Instret-before)
		}
		block.Run(noTimer{}, k)
		for j := uint64(1); j <= k; j++ {
			pc := slow.PC
			if n, _ := slow.Run(noTimer{}, 1); n != 1 {
				t.Fatalf("reference step %d of Run(%d) made no progress", j, k)
			}
			if slow.PC != pc+4 && j < k {
				wantChains++
			}
		}
		if fast.X != slow.X || fast.PC != slow.PC || fast.Cycles != slow.Cycles || fast.Instret != slow.Instret {
			t.Fatalf("Run(%d): pc=%#x cycles %d instret %d, reference pc=%#x cycles %d instret %d",
				k, fast.PC, fast.Cycles, fast.Instret, slow.PC, slow.Cycles, slow.Instret)
		}
	}
	st, bst := fast.FastPathStats(), block.FastPathStats()
	if st.Chains != wantChains || wantChains == 0 {
		t.Errorf("%d chains, want %d", st.Chains, wantChains)
	}
	if st.FetchHits != bst.FetchHits || st.FetchMisses != bst.FetchMisses {
		t.Errorf("fetch hits/misses %d/%d, block tier %d/%d", st.FetchHits, st.FetchMisses, bst.FetchHits, bst.FetchMisses)
	}
}

// A mid-block walk that re-inserts the executing page's own translation
// must end the block: later fetches hit the new TLB entry, so fetch
// accounting must re-resolve it (runBatch's TLB-generation re-check after
// an execute() instruction). With LRU replacement one access cannot evict
// the entry its own fetch just touched, so the test re-inserts instead:
// the code runs in a 2 MiB superpage whose leaf lacks D, so a store to
// another 4 KiB page of it hits the cached entry, fails its permission
// check and walks, and the walk inserts the page again, with D, into way 0
// of the same level-1 set. The reference then touches way 0 on every
// fetch; fetch accounting left on the old way would age the new entry
// instead, a later miss in the set would evict it, and the second store
// would walk where the reference hits.
func TestMidBlockWalkRefetchesOwnPage(t *testing.T) {
	const (
		codeVA  = ramBase          // level-1 set 0
		proVA   = ramBase + 2<<20  // level-1 set 1
		aliasPA = ramBase + 4<<20  // what every set-0 alias maps to
		dataVA  = codeVA + 0x10000 // in the code superpage, off the code page
		pteRWXA = pteRWXAD &^ isa.PTEDirty
	)
	alias := func(k int) uint64 { return codeVA + uint64(k)*32<<20 } // level-1 set 0

	// The prologue fills ways 0-2 of set 0 with aliases 1-3, then jumps
	// to the code superpage, whose fetch walk fills way 3.
	pro := asm.New(proVA)
	for k := 1; k <= 3; k++ {
		pro.LIU(20, alias(k))
		pro.LD(6, 20, 0)
	}
	pro.LIU(21, alias(2))
	pro.LIU(22, alias(3))
	pro.LIU(23, alias(4))
	pro.LIU(24, dataVA)
	pro.LIU(25, codeVA)
	pro.JALR(0, 25, 0)

	// One straight-line block.
	p := asm.New(codeVA)
	addis := func(n int) {
		for i := 0; i < n; i++ {
			p.ADDI(5, 5, 1)
		}
	}
	addis(8)
	p.SD(5, 24, 0) // walks: the cached leaf lacks D; re-inserts the page into way 0
	addis(8)
	p.LD(6, 21, 0) // aliases 2 and 3 hit: ways 1 and 2 are younger than
	p.LD(6, 22, 0) // the old entry in way 3, older than the fetches
	addis(4)
	p.LD(6, 23, 0) // alias 4 misses and evicts the set's LRU way
	addis(4)
	p.SD(5, 24, 8) // hits the page's D entry on the reference
	p.ECALL()

	run := func(h *Hart, c Clock) Event {
		load(t, h, proVA, pro)
		load(t, h, codeVA, p)
		enterSv39With(t, h, proVA, func(b *ptw.Builder, root uint64) error {
			if err := b.Map(root, codeVA, codeVA, pteRWXA, 1, false); err != nil {
				return err
			}
			if err := b.Map(root, proVA, proVA, pteRWXAD, 1, false); err != nil {
				return err
			}
			for k := 1; k <= 4; k++ {
				if err := b.Map(root, alias(k), aliasPA, pteRWXAD, 1, false); err != nil {
					return err
				}
			}
			return nil
		})
		for {
			if _, ev := h.Run(c, 1000); ev.Kind != EvNone {
				return ev
			}
		}
	}

	ref, _, rc, _ := newBatchPair(t)
	ref.DisableFastPath()
	if ev := run(ref, rc); ev.Kind != EvTrap || ev.Trap.Cause != isa.ExcEcallS {
		t.Fatalf("reference: %+v, want the ecall", ev)
	}
	var fetches [2]FastPathStats
	for i, traces := range []bool{false, true} {
		fast, _, fc, _ := newBatchPair(t)
		fast.SetTraces(traces)
		ev := run(fast, fc)
		if ev.Kind != EvTrap || ev.Trap.Cause != isa.ExcEcallS || fast.PC != ref.PC {
			t.Fatalf("traces %v: %+v at pc %#x, want the ecall at %#x", traces, ev, fast.PC, ref.PC)
		}
		if fast.Cycles != ref.Cycles || fast.Instret != ref.Instret {
			t.Errorf("traces %v: %d cycles, %d instructions; reference %d, %d",
				traces, fast.Cycles, fast.Instret, ref.Cycles, ref.Instret)
		}
		if fs, rs := fast.TLB.Stats(), ref.TLB.Stats(); fs != rs {
			t.Errorf("traces %v: TLB stats %+v, reference %+v", traces, fs, rs)
		}
		if fast.WalkStats != ref.WalkStats {
			t.Errorf("traces %v: walks %+v, reference %+v", traces, fast.WalkStats, ref.WalkStats)
		}
		// Every walk inserts into the TLB, so the fetch after it must
		// re-resolve its page: at least one fetch miss per walk.
		fetches[i] = fast.FastPathStats()
		if st := fetches[i]; st.FetchHits == 0 || st.FetchMisses < ref.WalkStats.Walks {
			t.Errorf("traces %v: %d fetch hits, %d fetch misses for %d walks",
				traces, st.FetchHits, st.FetchMisses, ref.WalkStats.Walks)
		}
	}
	if b, tr := fetches[0], fetches[1]; b.FetchHits != tr.FetchHits || b.FetchMisses != tr.FetchMisses {
		t.Errorf("fetch hits/misses: block tier %d/%d, trace tier %d/%d",
			b.FetchHits, b.FetchMisses, tr.FetchHits, tr.FetchMisses)
	}
}
