package platform

import (
	"sync/atomic"
	"testing"
	"time"

	"zion/internal/asm"
	"zion/internal/hart"
	"zion/internal/isa"
)

// computeProgram is a self-contained M-mode busy loop: count down from n,
// then ECALL to stop the run.
func computeProgram(n int64) []byte {
	p := asm.New(RAMBase)
	p.LI(asm.T0, n)
	p.Label("loop")
	p.ADDI(asm.T0, asm.T0, -1)
	p.BNE(asm.T0, asm.Zero, "loop")
	p.ECALL()
	return p.MustAssemble()
}

// loadPerHart writes each hart's program at a distinct RAM page and points
// the hart at it. The stopping MHandler returns false on ECALL.
func loadPerHart(t *testing.T, m *Machine, progs [][]byte) {
	t.Helper()
	for i, img := range progs {
		base := uint64(RAMBase) + uint64(i)*0x10000
		if err := m.RAM.Write(base, img); err != nil {
			t.Fatal(err)
		}
		m.Harts[i].PC = base
	}
	m.MHandler = TrapHandlerFunc(func(h *hart.Hart, tr hart.Trap) bool {
		return false
	})
}

func fingerprint(h *hart.Hart) (uint64, uint64) { return h.Cycles, h.Instret }

// runHartRunners builds RunHart-based runners for every hart.
func runHartRunners(m *Machine) []HartRunner {
	rs := make([]HartRunner, len(m.Harts))
	for i := range rs {
		rs[i] = func(h *hart.Hart) error {
			_, err := m.RunHart(h.ID, 1<<30)
			return err
		}
	}
	return rs
}

// TestParallelMatchesSequential runs independent compute loops on four
// harts three ways — sequentially, free-running parallel, and Ordered
// parallel — and requires bit-identical per-hart cycles and instret.
func TestParallelMatchesSequential(t *testing.T) {
	const nh = 4
	progs := make([][]byte, nh)
	for i := range progs {
		progs[i] = computeProgram(int64(5000 + 1000*i))
	}
	build := func() *Machine {
		m := New(nh, 16<<20)
		loadPerHart(t, m, progs)
		return m
	}

	seq := build()
	for i := 0; i < nh; i++ {
		if _, err := seq.RunHart(i, 1<<30); err != nil {
			t.Fatalf("sequential hart %d: %v", i, err)
		}
	}
	for _, cfg := range []EngineConfig{
		{Quantum: 777},
		{Quantum: 777, Ordered: true},
		{Quantum: DefaultQuantum},
	} {
		m := build()
		if err := m.RunParallel(cfg, runHartRunners(m)); err != nil {
			t.Fatalf("parallel %+v: %v", cfg, err)
		}
		for i := 0; i < nh; i++ {
			sc, si := fingerprint(seq.Harts[i])
			pc, pi := fingerprint(m.Harts[i])
			if sc != pc || si != pi {
				t.Errorf("cfg %+v hart %d: parallel (cycles=%d instret=%d) != sequential (cycles=%d instret=%d)",
					cfg, i, pc, pi, sc, si)
			}
		}
		if m.engine != nil || m.Harts[0].Yield != nil {
			t.Error("engine not torn down after RunParallel")
		}
	}
}

// ipiMachine builds the two-hart IPI scenario: hart 0 spins then rings
// hart 1's msip doorbell; hart 1 sleeps in WFI with the software
// interrupt enabled and traps to M on delivery. Without the parallel-WFI
// barrier participation this deadlocks: hart 1 would either exit its run
// loop ("idle forever") and strand hart 0 at the rendezvous, or never
// observe the doorbell. This is the idle-hart livelock regression test.
func ipiMachine(t *testing.T, spin int64) (*Machine, *uint64) {
	m := New(2, 16<<20)
	p0 := asm.New(RAMBase)
	p0.LI(asm.T0, spin)
	p0.Label("spin")
	p0.ADDI(asm.T0, asm.T0, -1)
	p0.BNE(asm.T0, asm.Zero, "spin")
	p0.LI(asm.T1, CLINTBase)
	p0.LI(asm.T2, 1)
	p0.SW(asm.T2, asm.T1, 4) // msip[1] = 1: IPI to hart 1
	p0.ECALL()

	p1 := asm.New(RAMBase + 0x10000)
	p1.WFI()
	p1.J("self") // not reached: the interrupt traps out of WFI
	p1.Label("self")

	loadPerHart(t, m, [][]byte{p0.MustAssemble(), p1.MustAssemble()})
	h1 := m.Harts[1]
	h1.SetCSR(isa.CSRMie, 1<<isa.IntMSoft)
	h1.SetCSR(isa.CSRMstatus, h1.CSR(isa.CSRMstatus)|isa.MstatusMIE)

	wake := new(uint64)
	m.MHandler = TrapHandlerFunc(func(h *hart.Hart, tr hart.Trap) bool {
		if h.ID == 1 && tr.Cause == isa.CauseInterruptBit|isa.IntMSoft {
			*wake = h.Cycles
		}
		return false
	})
	return m, wake
}

// TestIPIWakesIdleHart checks IPI delivery to a WFI-parked hart under the
// parallel engine, bounds its latency by the determinism contract (at
// most two quanta of simulated time after the send), and requires
// free-running and Ordered mode to agree bit-for-bit.
func TestIPIWakesIdleHart(t *testing.T) {
	const quantum = 512
	type outcome struct{ send, wake, c0, i0, c1, i1 uint64 }
	run := func(ordered bool) outcome {
		m, wake := ipiMachine(t, 3000)
		cfg := EngineConfig{Quantum: quantum, Ordered: ordered}
		if err := m.RunParallel(cfg, runHartRunners(m)); err != nil {
			t.Fatalf("ordered=%v: %v", ordered, err)
		}
		if *wake == 0 {
			t.Fatalf("ordered=%v: hart 1 never woke on the IPI", ordered)
		}
		o := outcome{send: m.Harts[0].Cycles, wake: *wake}
		o.c0, o.i0 = fingerprint(m.Harts[0])
		o.c1, o.i1 = fingerprint(m.Harts[1])
		return o
	}
	free := run(false)
	if free.wake > free.send+2*quantum {
		t.Errorf("IPI latency: sent by cycle %d, delivered at %d (> 2 quanta of %d)",
			free.send, free.wake, quantum)
	}
	ord := run(true)
	if free != ord {
		t.Errorf("ordered/free divergence: free=%+v ordered=%+v", free, ord)
	}
	// Rerun of the same mode must be bit-identical (fixed-seed determinism).
	if again := run(false); free != again {
		t.Errorf("free-mode rerun diverged: %+v vs %+v", free, again)
	}
}

// TestAllIdleHalts: every hart parks in WFI with nothing armed and nobody
// to ring its doorbell. The engine must detect the global quiescent state
// and halt instead of spinning the barrier forever.
func TestAllIdleHalts(t *testing.T) {
	m := New(3, 16<<20)
	progs := make([][]byte, 3)
	for i := range progs {
		p := asm.New(uint64(RAMBase) + uint64(i)*0x10000)
		p.WFI()
		p.ECALL() // not reached
		progs[i] = p.MustAssemble()
	}
	loadPerHart(t, m, progs)
	done := make(chan error, 1)
	go func() { done <- m.RunParallel(EngineConfig{Quantum: 256}, runHartRunners(m)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-timeout(t):
		t.Fatal("RunParallel did not halt on an all-idle machine")
	}
}

// TestParallelStress hammers shared machine state from four harts at a
// tiny quantum: every hart stores to its own word of one shared RAM page
// and rings every peer's msip doorbell (interrupts masked, so the bits
// just toggle) in a tight loop. The test exists for `go test -race`: it
// drives the bus deferral path, the engine inboxes, the atomic msip file,
// and the first-touch page materialization from four goroutines at once.
func TestParallelStress(t *testing.T) {
	const nh = 4
	m := New(nh, 16<<20)
	progs := make([][]byte, nh)
	const shared = uint64(RAMBase) + 0x200000
	for i := range progs {
		p := asm.New(uint64(RAMBase) + uint64(i)*0x10000)
		p.LI(asm.T0, 400) // iterations
		p.LI(asm.T1, int64(shared))
		p.LI(asm.T2, CLINTBase)
		p.Label("loop")
		// Store the counter to this hart's private word of the shared page.
		p.SD(asm.T0, asm.T1, int64(i*8))
		// Ring and clear every peer's doorbell.
		for j := 0; j < nh; j++ {
			if j == i {
				continue
			}
			p.LI(asm.T3, 1)
			p.SW(asm.T3, asm.T2, int64(4*j))
			p.SW(asm.Zero, asm.T2, int64(4*j))
		}
		p.ADDI(asm.T0, asm.T0, -1)
		p.BNE(asm.T0, asm.Zero, "loop")
		p.ECALL()
		progs[i] = p.MustAssemble()
	}
	loadPerHart(t, m, progs)
	var traps atomic.Int64
	m.MHandler = TrapHandlerFunc(func(h *hart.Hart, tr hart.Trap) bool {
		traps.Add(1)
		return false
	})
	if err := m.RunParallel(EngineConfig{Quantum: 128}, runHartRunners(m)); err != nil {
		t.Fatal(err)
	}
	if traps.Load() != nh {
		t.Errorf("traps = %d, want %d (one ECALL per hart)", traps.Load(), nh)
	}
	for i := 0; i < nh; i++ {
		v, err := m.RAM.ReadUint(shared+uint64(i*8), 8)
		if err != nil {
			t.Fatal(err)
		}
		if v != 1 {
			t.Errorf("hart %d final store = %d, want 1", i, v)
		}
	}
}

// phasedProgram alternates doorbell bursts with quiet compute: `rounds`
// iterations of (ring+clear every peer's msip `burst` times, then count
// down `quiet` iterations). Interrupts stay masked, so the doorbell bits
// just toggle and the hart's own cycle accounting is independent of
// delivery timing — the bursts exist to oscillate the adaptive quantum,
// not to perturb the fingerprint.
func phasedProgram(hartID, nh int, rounds, burst, quiet int64) []byte {
	p := asm.New(uint64(RAMBase) + uint64(hartID)*0x10000)
	p.LI(asm.T0, rounds)
	p.Label("outer")
	p.LI(asm.T1, burst)
	p.LI(asm.T2, CLINTBase)
	p.Label("burst")
	for j := 0; j < nh; j++ {
		if j == hartID {
			continue
		}
		p.LI(asm.T3, 1)
		p.SW(asm.T3, asm.T2, int64(4*j))
		p.SW(asm.Zero, asm.T2, int64(4*j))
	}
	p.ADDI(asm.T1, asm.T1, -1)
	p.BNE(asm.T1, asm.Zero, "burst")
	p.LI(asm.T4, quiet)
	p.Label("quiet")
	p.ADDI(asm.T4, asm.T4, -1)
	p.BNE(asm.T4, asm.Zero, "quiet")
	p.ADDI(asm.T0, asm.T0, -1)
	p.BNE(asm.T0, asm.Zero, "outer")
	p.ECALL()
	return p.MustAssemble()
}

// TestAdaptiveQuantumOscillationBitIdentity forces the adaptive resize
// rule to oscillate — doorbell bursts make epochs chatty enough to halve
// the quantum, quiet compute stretches make them silent enough to double
// it — and requires the run to stay bit-identical to the sequential
// reference anyway: the resize schedule is a pure function of simulated
// state, so the whole quantum trajectory (stats included) must reproduce
// exactly across reruns and across free-running vs Ordered release.
func TestAdaptiveQuantumOscillationBitIdentity(t *testing.T) {
	const nh = 4
	progs := make([][]byte, nh)
	for i := range progs {
		progs[i] = phasedProgram(i, nh, 6, 40, 4000)
	}
	build := func() *Machine {
		m := New(nh, 16<<20)
		loadPerHart(t, m, progs)
		return m
	}

	seq := build()
	for i := 0; i < nh; i++ {
		if _, err := seq.RunHart(i, 1<<30); err != nil {
			t.Fatalf("sequential hart %d: %v", i, err)
		}
	}

	cfg := EngineConfig{Quantum: 512, Adaptive: true, MinQuantum: 128, MaxQuantum: 8192}
	run := func(ordered bool) ([2 * nh]uint64, EngineStats) {
		m := build()
		c := cfg
		c.Ordered = ordered
		if err := m.RunParallel(c, runHartRunners(m)); err != nil {
			t.Fatalf("ordered=%v: %v", ordered, err)
		}
		var fp [2 * nh]uint64
		for i := 0; i < nh; i++ {
			fp[2*i], fp[2*i+1] = fingerprint(m.Harts[i])
		}
		return fp, m.EngineStats()
	}

	free, st := run(false)
	for i := 0; i < nh; i++ {
		sc, si := fingerprint(seq.Harts[i])
		if free[2*i] != sc || free[2*i+1] != si {
			t.Errorf("hart %d: adaptive parallel (cycles=%d instret=%d) != sequential (cycles=%d instret=%d)",
				i, free[2*i], free[2*i+1], sc, si)
		}
	}
	// The workload must actually exercise both directions of the rule.
	if st.QuantumGrows == 0 || st.QuantumShrinks == 0 {
		t.Fatalf("quantum never oscillated: %+v", st)
	}
	if st.MinQuantum >= cfg.Quantum || st.MaxQuantum <= cfg.Quantum {
		t.Errorf("quantum trajectory did not cross the start value both ways: %+v", st)
	}
	if st.CrossOps == 0 || st.MergedBatches == 0 || st.MergedBatches > st.CrossOps {
		t.Errorf("implausible batching counters: %+v", st)
	}

	// The adaptive schedule is simulated-state-deterministic: a rerun and
	// the Ordered reference interleaving must reproduce the fingerprints
	// AND the entire bookkeeping — every resize, every merge, every op.
	if again, st2 := run(false); again != free || st2 != st {
		t.Errorf("adaptive rerun diverged:\n  fp    %v vs %v\n  stats %+v vs %+v", again, free, st2, st)
	}
	if ord, st3 := run(true); ord != free || st3 != st {
		t.Errorf("ordered/free divergence:\n  fp    %v vs %v\n  stats %+v vs %+v", ord, free, st3, st)
	}
}

// TestFinishPostRaceDeterministic: hart 0 rings hart 1's doorbell on
// every iteration while hart 1 runs a short loop and finishes mid-epoch,
// so ops are posted to a hart that finishes in the posting epoch. Whether
// hart 1 has finished when hart 0 merges them is host scheduling; the
// engine's bookkeeping — including the adaptive resizes driven by the
// per-epoch op count — must not depend on it.
func TestFinishPostRaceDeterministic(t *testing.T) {
	p0 := asm.New(RAMBase)
	p0.LI(asm.T0, 200)
	p0.LI(asm.T2, CLINTBase)
	p0.LI(asm.T3, 1)
	p0.Label("loop")
	p0.SW(asm.T3, asm.T2, 4) // msip[1] = 1
	p0.SW(asm.Zero, asm.T2, 4)
	p0.ADDI(asm.T0, asm.T0, -1)
	p0.BNE(asm.T0, asm.Zero, "loop")
	p0.ECALL()
	progs := [][]byte{p0.MustAssemble(), computeProgram(300)}
	run := func(ordered bool) EngineStats {
		m := New(2, 16<<20)
		loadPerHart(t, m, progs)
		cfg := EngineConfig{Quantum: 2048, MinQuantum: 1024, Adaptive: true, Ordered: ordered}
		if err := m.RunParallel(cfg, runHartRunners(m)); err != nil {
			t.Fatalf("ordered=%v: %v", ordered, err)
		}
		return m.EngineStats()
	}
	ref := run(true)
	if ref.MergedBatches == 0 {
		t.Fatalf("hart 0 never posted: %+v", ref)
	}
	for i := 0; i < 20; i++ {
		if st := run(false); st != ref {
			t.Fatalf("rerun %d diverged from the Ordered reference:\n  got  %+v\n  want %+v", i, st, ref)
		}
	}
}

// timeout returns a channel that fires well before the test framework's
// own deadline, so barrier hangs fail with a useful message.
func timeout(t *testing.T) <-chan struct{} {
	t.Helper()
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		// ~10s of host time; the scenarios above finish in milliseconds.
		time.Sleep(10 * time.Second)
	}()
	return ch
}
