package bench

import (
	"fmt"

	"zion/internal/asm"
	"zion/internal/hv"
	"zion/internal/sm"
	"zion/internal/telemetry"
)

// mmioStub is a minimal emulated device for the E1 microbenchmark.
type mmioStub struct{ val uint64 }

func (d *mmioStub) GPARange() (uint64, uint64)              { return 0x1000_0000, 0x1000 }
func (d *mmioStub) MMIORead(off uint64, _ int) uint64       { return d.val + off }
func (d *mmioStub) MMIOWrite(off uint64, _ int, val uint64) { d.val = val }

// mmioLoopProgram loads from an emulated MMIO register n times.
func mmioLoopProgram(n int) []byte {
	p := asm.New(hv.GuestRAMBase)
	p.LI(asm.T0, 0x1000_0000)
	p.LI(asm.S2, int64(n))
	p.Label("loop")
	p.LD(asm.A0, asm.T0, 0)
	p.ADDI(asm.S2, asm.S2, -1)
	p.BNE(asm.S2, asm.Zero, "loop")
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// spinProgram busy-loops for roughly the given cycle budget.
func spinProgram(iters int64) []byte {
	p := asm.New(hv.GuestRAMBase)
	p.LI(asm.T1, iters)
	p.Label("spin")
	p.ADDI(asm.T1, asm.T1, -1)
	p.BNE(asm.T1, asm.Zero, "spin")
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// WSDist summarizes a world-switch latency distribution beyond its mean,
// pulled from the SM's entry/exit histograms.
type WSDist struct {
	P50, P99, Min, Max uint64
}

func wsDist(h *telemetry.Histogram) WSDist {
	return WSDist{P50: h.Quantile(0.50), P99: h.Quantile(0.99), Min: h.Min(), Max: h.Max()}
}

func (d WSDist) String() string {
	return fmt.Sprintf("p50=%d p99=%d min=%d max=%d", d.P50, d.P99, d.Min, d.Max)
}

// E1Result reproduces §V.B.1: world-switch cycles for MMIO-triggered
// entry/exit with and without the shared-vCPU mechanism.
type E1Result struct {
	EntryNoShared, EntryShared float64
	ExitNoShared, ExitShared   float64
	Iterations                 int

	EntrySharedDist, ExitSharedDist     WSDist
	EntryNoSharedDist, ExitNoSharedDist WSDist
}

// Rows renders the paper-style comparison.
func (r E1Result) Rows() []string {
	return []string{
		fmt.Sprintf("CVM entry  without shared vCPU: %8.0f cycles  [%v]", r.EntryNoShared, r.EntryNoSharedDist),
		fmt.Sprintf("CVM entry  with    shared vCPU: %8.0f cycles  (%+.1f%%)  [%v]", r.EntryShared, pct(r.EntryNoShared, r.EntryShared), r.EntrySharedDist),
		fmt.Sprintf("CVM exit   without shared vCPU: %8.0f cycles  [%v]", r.ExitNoShared, r.ExitNoSharedDist),
		fmt.Sprintf("CVM exit   with    shared vCPU: %8.0f cycles  (%+.1f%%)  [%v]", r.ExitShared, pct(r.ExitNoShared, r.ExitShared), r.ExitSharedDist),
	}
}

// RunE1 measures the shared-vCPU optimization over `iters` MMIO exits.
func RunE1(iters int) (E1Result, error) {
	res := E1Result{Iterations: iters}
	for _, disable := range []bool{true, false} {
		e := NewEnv(EnvConfig{SM: sm.Config{DisableSharedVCPU: disable}})
		vm, err := e.HV.CreateCVM(e.H, "e1", mmioLoopProgram(iters), hv.GuestRAMBase)
		if err != nil {
			return res, err
		}
		e.HV.AttachDevice(vm, &mmioStub{})
		if _, _, err := e.RunToCompletion(e.H, vm); err != nil {
			return res, err
		}
		st := e.SM.Stats
		entry, exit := st.Entry.Mean(), st.Exit.Mean()
		if disable {
			res.EntryNoShared, res.ExitNoShared = entry, exit
			res.EntryNoSharedDist, res.ExitNoSharedDist = wsDist(st.Entry), wsDist(st.Exit)
		} else {
			res.EntryShared, res.ExitShared = entry, exit
			res.EntrySharedDist, res.ExitSharedDist = wsDist(st.Entry), wsDist(st.Exit)
		}
	}
	return res, nil
}

// E2Result reproduces §V.B.2: short-path vs long-path world switches on
// timer-triggered exits (no vCPU state exchange).
type E2Result struct {
	EntryLong, EntryShort float64
	ExitLong, ExitShort   float64
	Iterations            int

	EntryShortDist, ExitShortDist WSDist
	EntryLongDist, ExitLongDist   WSDist
}

// Rows renders the paper-style comparison.
func (r E2Result) Rows() []string {
	return []string{
		fmt.Sprintf("CVM entry  long path : %8.0f cycles  [%v]", r.EntryLong, r.EntryLongDist),
		fmt.Sprintf("CVM entry  short path: %8.0f cycles  (%+.1f%%)  [%v]", r.EntryShort, pct(r.EntryLong, r.EntryShort), r.EntryShortDist),
		fmt.Sprintf("CVM exit   long path : %8.0f cycles  [%v]", r.ExitLong, r.ExitLongDist),
		fmt.Sprintf("CVM exit   short path: %8.0f cycles  (%+.1f%%)  [%v]", r.ExitShort, pct(r.ExitLong, r.ExitShort), r.ExitShortDist),
	}
}

// RunE2 measures the short-path optimization over `iters` timer exits.
func RunE2(iters int) (E2Result, error) {
	res := E2Result{Iterations: iters}
	for _, long := range []bool{true, false} {
		e := NewEnv(EnvConfig{SM: sm.Config{LongPath: long, SchedQuantum: 20_000}})
		// Spin long enough for ~iters quantum expirations.
		vm, err := e.HV.CreateCVM(e.H, "e2", spinProgram(int64(iters)*6_000), hv.GuestRAMBase)
		if err != nil {
			return res, err
		}
		if _, _, err := e.RunToCompletion(e.H, vm); err != nil {
			return res, err
		}
		st := e.SM.Stats
		entry, exit := st.Entry.Mean(), st.Exit.Mean()
		if long {
			res.EntryLong, res.ExitLong = entry, exit
			res.EntryLongDist, res.ExitLongDist = wsDist(st.Entry), wsDist(st.Exit)
		} else {
			res.EntryShort, res.ExitShort = entry, exit
			res.EntryShortDist, res.ExitShortDist = wsDist(st.Entry), wsDist(st.Exit)
		}
	}
	return res, nil
}

// E3Result reproduces §V.C: stage-2 page-fault handling time for a normal
// VM (the KVM path) and per allocation stage for a confidential VM.
type E3Result struct {
	NormalVM   float64
	Stage1     float64
	Stage2     float64
	Stage3     float64
	CVMAverage float64
	Faults     uint64
}

// Rows renders the paper-style comparison.
func (r E3Result) Rows() []string {
	return []string{
		fmt.Sprintf("normal VM (KVM path)      : %8.0f cycles", r.NormalVM),
		fmt.Sprintf("CVM stage-1 (page cache)  : %8.0f cycles", r.Stage1),
		fmt.Sprintf("CVM stage-2 (block unlink): %8.0f cycles", r.Stage2),
		fmt.Sprintf("CVM stage-3 (expansion)   : %8.0f cycles", r.Stage3),
		fmt.Sprintf("CVM average               : %8.0f cycles  (%+.1f%% vs normal)", r.CVMAverage, pct(r.NormalVM, r.CVMAverage)),
	}
}

// touchProgram stores to n fresh pages.
func touchProgram(n int) []byte {
	p := asm.New(hv.GuestRAMBase)
	p.LI(asm.T0, int64(hv.GuestRAMBase)+0x10_0000)
	p.LI(asm.T1, int64(n))
	p.Label("touch")
	p.SD(asm.T1, asm.T0, 0)
	p.LI(asm.T2, 4096)
	p.ADD(asm.T0, asm.T0, asm.T2)
	p.ADDI(asm.T1, asm.T1, -1)
	p.BNE(asm.T1, asm.Zero, "touch")
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// RunE3 measures page-fault handling across `pages` first touches.
func RunE3(pages int) (E3Result, error) {
	res := E3Result{}

	// Normal VM: KVM fault path.
	e := NewEnv(EnvConfig{})
	nvm, err := e.HV.CreateNormalVM("e3n", touchProgram(pages), hv.GuestRAMBase)
	if err != nil {
		return res, err
	}
	if _, _, err := e.RunToCompletion(e.H, nvm); err != nil {
		return res, err
	}
	res.NormalVM = float64(e.HV.S2FaultCycles) / float64(e.HV.S2FaultCount)

	// Confidential VM with a pool small enough to force stage-3 rounds.
	e2 := NewEnv(EnvConfig{PoolSize: 4 << 20})
	cvm, err := e2.HV.CreateCVM(e2.H, "e3c", touchProgram(pages), hv.GuestRAMBase)
	if err != nil {
		return res, err
	}
	if _, _, err := e2.RunToCompletion(e2.H, cvm); err != nil {
		return res, err
	}
	st := e2.SM.Stats
	avg := func(stage sm.AllocStage) float64 {
		if st.FaultStage[stage] == 0 {
			return 0
		}
		return float64(st.FaultCycles[stage]) / float64(st.FaultStage[stage])
	}
	res.Stage1 = avg(sm.StageCache)
	res.Stage2 = avg(sm.StageBlock)
	// Stage 3 spans the world switch: SM-side cost plus the exit, the
	// hypervisor's expansion assist, and the re-entry.
	entry, exit := st.Entry.Mean(), st.Exit.Mean()
	res.Stage3 = avg(sm.StageExpand) + exit + entry +
		float64(e2.H.Cost.HVExpandAssist)
	total := float64(st.FaultCycles[sm.StageCache]) + float64(st.FaultCycles[sm.StageBlock]) +
		res.Stage3*float64(st.FaultStage[sm.StageExpand])
	count := st.FaultStage[sm.StageCache] + st.FaultStage[sm.StageBlock] + st.FaultStage[sm.StageExpand]
	res.Faults = count
	res.CVMAverage = total / float64(count)
	return res, nil
}

// rv8TickQuantum arms the OS tick for macro benchmarks. The interval is
// the paper's 10 ms tick scaled by the same ~4x factor the workload
// scales shrink the run time, preserving the exits-per-unit-work ratio
// of the FPGA runs; see EXPERIMENTS.md.
func rv8TickQuantum() uint64 { return 220_000 }
