package bench

import (
	"fmt"
	"runtime"
	"time"

	"zion/internal/hart"
	"zion/internal/hv"
	"zion/internal/platform"
	"zion/internal/sm"
	"zion/internal/workloads"
)

// This file is the harness side of the parallel multi-hart engine: the
// sequential-vs-parallel lockstep fingerprints the determinism tests and
// the CI gate rely on, and the multi-hart host-throughput benchmark.
//
// The determinism contract (see internal/platform/engine.go): for a fixed
// seed, a workload's per-hart simulated Cycles, Instret, and trap mix are
// bit-identical whether the harts run sequentially on one goroutine or
// concurrently under the quantum-barrier engine — host scheduling may
// reorder cross-hart *service* work (CVM id assignment, frame allocation
// order) but never anything cycle-accounted.

// HartFingerprint is one hart's architecturally visible outcome: exactly
// the quantities the paper's tables are computed from.
type HartFingerprint struct {
	Cycles  uint64          `json:"cycles"`
	Instret uint64          `json:"instret"`
	Traps   []hart.TrapStat `json:"traps"`
}

// Fingerprint captures a hart's current (Cycles, Instret, trap mix).
func Fingerprint(h *hart.Hart) HartFingerprint {
	return HartFingerprint{Cycles: h.Cycles, Instret: h.Instret, Traps: h.TrapMix()}
}

// Equal reports bit-identity of two fingerprints.
func (f HartFingerprint) Equal(o HartFingerprint) bool {
	if f.Cycles != o.Cycles || f.Instret != o.Instret || len(f.Traps) != len(o.Traps) {
		return false
	}
	for i := range f.Traps {
		if f.Traps[i].Cause != o.Traps[i].Cause || f.Traps[i].Count != o.Traps[i].Count {
			return false
		}
	}
	return true
}

// String renders a fingerprint compactly for test failure messages.
func (f HartFingerprint) String() string {
	s := fmt.Sprintf("cycles=%d instret=%d traps={", f.Cycles, f.Instret)
	for i, t := range f.Traps {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", t.Name, t.Count)
	}
	return s + "}"
}

// runCVMOn drives a CVM to completion on an arbitrary hart (the per-hart
// generalisation of Env.RunCVMToCompletion, which is pinned to hart 0).
func (e *Env) runCVMOn(h *hart.Hart, vm *hv.VM, vcpu int) (uint64, error) {
	for {
		info, err := e.HV.RunCVM(h, vm, vcpu)
		if err != nil {
			return 0, err
		}
		switch info.Reason {
		case sm.ExitShutdown:
			return info.Data, nil
		case sm.ExitTimer:
			continue
		default:
			return 0, fmt.Errorf("bench: unexpected exit %v on hart %d", info.Reason, h.ID)
		}
	}
}

// cvmRunner builds the per-hart work of the lockstep and throughput
// harnesses: create one CVM of kernel k on this hart, run it to shutdown.
func (e *Env) cvmRunner(k workloads.Kernel, scale int) platform.HartRunner {
	img := workloads.Program(k, scale)
	return func(h *hart.Hart) error {
		vm, err := e.HV.CreateCVM(h, fmt.Sprintf("%s-h%d", k.Name, h.ID), img, hv.GuestRAMBase)
		if err != nil {
			return err
		}
		_, err = e.runCVMOn(h, vm, 0)
		return err
	}
}

// RunWorkloadCopies boots an n-hart stack and runs one private copy of
// kernel k per hart: sequentially (hart 0 to completion, then hart 1, …)
// when cfg is nil, or concurrently under the quantum-barrier engine
// otherwise. It returns each hart's fingerprint plus the host wall-clock
// seconds spent executing guests.
func RunWorkloadCopies(k workloads.Kernel, scale, n int, cfg *platform.EngineConfig) ([]HartFingerprint, float64, error) {
	fps, sec, _, err := runWorkloadCopiesStats(k, scale, n, cfg)
	return fps, sec, err
}

// runWorkloadCopiesStats is RunWorkloadCopies plus the engine's barrier
// bookkeeping (zero value for sequential runs) — the scaling rows
// record it.
func runWorkloadCopiesStats(k workloads.Kernel, scale, n int, cfg *platform.EngineConfig) ([]HartFingerprint, float64, platform.EngineStats, error) {
	e := NewEnv(EnvConfig{Harts: n, SM: sm.Config{SchedQuantum: rv8TickQuantum()}})
	runners := make([]platform.HartRunner, n)
	for i := 0; i < n; i++ {
		runners[i] = e.cvmRunner(k, scale)
	}
	t0 := time.Now()
	if cfg == nil {
		for i, r := range runners {
			if err := r(e.M.Harts[i]); err != nil {
				return nil, 0, platform.EngineStats{}, fmt.Errorf("bench: sequential hart %d: %w", i, err)
			}
		}
	} else {
		if err := e.M.RunParallel(*cfg, runners); err != nil {
			return nil, 0, platform.EngineStats{}, fmt.Errorf("bench: parallel run: %w", err)
		}
	}
	sec := time.Since(t0).Seconds()
	fps := make([]HartFingerprint, n)
	for i, h := range e.M.Harts {
		fps[i] = Fingerprint(h)
	}
	return fps, sec, e.M.EngineStats(), nil
}

// DefaultScalingFloor is the parallel speedup the 4-hart deterministic
// EngineBlock workload must reach on a host with at least as many cores
// as harts. RunParallelHost stamps it into the result so the committed
// baseline JSON carries the floor, and CheckHostRegression enforces the
// *baseline's* recorded floor — never this constant directly — so a
// stale binary can't silently move the gate (see the scaling gate in
// host.go). 2.5x at 4 harts leaves headroom below ideal linear scaling
// for barrier cost and shared-host noise on CI runners.
const DefaultScalingFloor = 2.5

// HartScalingRow is one point of the hart-count scaling sweep: the same
// per-hart workload at n harts, sequential vs parallel, plus the
// engine's barrier/adaptive-quantum bookkeeping for the parallel run.
type HartScalingRow struct {
	Harts          int     `json:"harts"`
	SeqSeconds     float64 `json:"seq_seconds"`
	ParSeconds     float64 `json:"par_seconds"`
	Speedup        float64 `json:"speedup"`
	Deterministic  bool    `json:"deterministic"`
	Epochs         uint64  `json:"epochs"`
	CrossOps       uint64  `json:"cross_ops"`
	QuantumGrows   uint64  `json:"quantum_grows"`
	QuantumShrinks uint64  `json:"quantum_shrinks"`
	FinalQuantum   uint64  `json:"final_quantum"`
}

// ParallelBenchConfig selects the engine configuration of the parallel
// host-throughput section (zionbench -quantum).
type ParallelBenchConfig struct {
	// Quantum fixes the barrier period in simulated cycles; 0 selects
	// adaptive sizing seeded at platform.DefaultQuantum.
	Quantum uint64
}

// engineConfig expands the bench-level selection into an EngineConfig.
func (bc ParallelBenchConfig) engineConfig() platform.EngineConfig {
	cfg := platform.EngineConfig{Quantum: bc.Quantum}
	if bc.Quantum == 0 {
		cfg.Adaptive = true
		cfg.Quantum = platform.DefaultQuantum
	}
	return cfg
}

// ParallelHostResult is the multi-hart host-throughput section of
// BENCH_host.json. Speedup is wall-clock sequential/parallel for the same
// n-hart workload; it approaches min(n, host cores) on an idle machine and
// 1.0 on a single-core host — which is why the CI gate activates the
// scaling floor only when the measuring host has at least Harts cores,
// and why HostCores is recorded alongside it. Scaling is the hart-count
// sweep (1, 2, 4, … up to Harts); the top-level fields are the sweep's
// last row plus the summed instruction/cycle fingerprints.
type ParallelHostResult struct {
	Workload      string  `json:"workload"`
	Harts         int     `json:"harts"`
	HostCores     int     `json:"host_cores"`
	Adaptive      bool    `json:"adaptive"`
	Quantum       uint64  `json:"quantum,omitempty"` // fixed quantum; 0 = adaptive
	Instructions  uint64  `json:"instructions"`
	Cycles        uint64  `json:"simulated_cycles"`
	SeqSeconds    float64 `json:"seq_seconds"`
	ParSeconds    float64 `json:"par_seconds"`
	SeqMIPS       float64 `json:"seq_mips"`
	ParMIPS       float64 `json:"par_mips"`
	Speedup       float64 `json:"speedup"`
	Deterministic bool    `json:"deterministic"`
	// ScalingFloor is the minimum Speedup required of a run on a host
	// with >= Harts cores. The committed
	// baseline's value is what the CI gate enforces.
	ScalingFloor float64          `json:"scaling_floor,omitempty"`
	Scaling      []HartScalingRow `json:"scaling,omitempty"`
	// Engine bookkeeping of the headline parallel run.
	Epochs         uint64 `json:"epochs,omitempty"`
	CrossOps       uint64 `json:"cross_ops,omitempty"`
	QuantumGrows   uint64 `json:"quantum_grows,omitempty"`
	QuantumShrinks uint64 `json:"quantum_shrinks,omitempty"`
	FinalQuantum   uint64 `json:"final_quantum,omitempty"`
}

// scalingHartCounts returns the sweep points: powers of two up to and
// including harts, plus harts itself when it is not a power of two.
func scalingHartCounts(harts int) []int {
	var ns []int
	for n := 1; n < harts; n *= 2 {
		ns = append(ns, n)
	}
	return append(ns, harts)
}

// RunParallelHost measures host throughput of the quantum-barrier engine
// on the aes workload across a hart-count sweep (one private workload
// copy per hart, sequential vs parallel at each point), and cross-checks
// the determinism contract while doing so: the per-hart fingerprints of
// both runs must be bit-identical or the benchmark errors.
func RunParallelHost(scaleDiv, harts int, bc ParallelBenchConfig) (ParallelHostResult, error) {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	if harts < 1 {
		harts = 4
	}
	var k workloads.Kernel
	for _, c := range workloads.RV8() {
		if c.Name == "aes" {
			k = c
		}
	}
	scale := k.DefaultScale * 8 / scaleDiv
	if scale < 8 {
		scale = 8
	}
	cfg := bc.engineConfig()
	res := ParallelHostResult{
		Workload:  k.Name,
		Harts:     harts,
		HostCores: runtime.NumCPU(),
		Adaptive:  cfg.Adaptive,
		Quantum:   bc.Quantum,
	}
	for _, n := range scalingHartCounts(harts) {
		seqFP, seqSec, _, err := runWorkloadCopiesStats(k, scale, n, nil)
		if err != nil {
			return res, err
		}
		parFP, parSec, st, err := runWorkloadCopiesStats(k, scale, n, &cfg)
		if err != nil {
			return res, err
		}
		row := HartScalingRow{
			Harts: n, SeqSeconds: seqSec, ParSeconds: parSec,
			Deterministic:  true,
			Epochs:         st.Epochs,
			CrossOps:       st.CrossOps,
			QuantumGrows:   st.QuantumGrows,
			QuantumShrinks: st.QuantumShrinks,
			FinalQuantum:   st.FinalQuantum,
		}
		var instr, cycles uint64
		for i := range seqFP {
			if !seqFP[i].Equal(parFP[i]) {
				row.Deterministic = false
				res.Scaling = append(res.Scaling, row)
				return res, fmt.Errorf("bench: %d harts, hart %d sequential/parallel divergence: %v vs %v",
					n, i, seqFP[i], parFP[i])
			}
			instr += seqFP[i].Instret
			cycles += seqFP[i].Cycles
		}
		if parSec > 0 {
			row.Speedup = seqSec / parSec
		}
		res.Scaling = append(res.Scaling, row)
		if n == harts {
			res.Instructions = instr
			res.Cycles = cycles
			res.SeqSeconds = seqSec
			res.ParSeconds = parSec
			res.Speedup = row.Speedup
			res.Deterministic = row.Deterministic
			res.Epochs = st.Epochs
			res.CrossOps = st.CrossOps
			res.QuantumGrows = st.QuantumGrows
			res.QuantumShrinks = st.QuantumShrinks
			res.FinalQuantum = st.FinalQuantum
			if seqSec > 0 {
				res.SeqMIPS = float64(instr) / seqSec / 1e6
			}
			if parSec > 0 {
				res.ParMIPS = float64(instr) / parSec / 1e6
			}
		}
	}
	res.ScalingFloor = DefaultScalingFloor
	return res, nil
}
