package bench

import (
	"fmt"
	"runtime"
	"slices"
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

// cvmRunner builds the per-hart work of the lockstep and throughput
// harnesses: create one CVM of kernel k on this hart, run it to shutdown.
func (e *Env) cvmRunner(k workloads.Kernel, scale int) platform.HartRunner {
	img := workloads.Program(k, scale)
	return func(h *hart.Hart) error {
		vm, err := e.HV.CreateCVM(h, fmt.Sprintf("%s-h%d", k.Name, h.ID), img, hv.GuestRAMBase)
		if err != nil {
			return err
		}
		_, _, err = e.RunToCompletion(h, vm)
		return err
	}
}

// RunWorkloadCopies boots an n-hart stack and runs one private copy of
// kernel k per hart: sequentially (hart 0 to completion, then hart 1, …)
// when cfg is nil, or concurrently under the quantum-barrier engine
// otherwise. It returns each hart's fingerprint plus the host wall-clock
// seconds spent executing guests.
func RunWorkloadCopies(k workloads.Kernel, scale, n int, cfg *platform.EngineConfig) ([]HartFingerprint, float64, error) {
	e := NewEnv(EnvConfig{Harts: n, SM: sm.Config{SchedQuantum: rv8TickQuantum()}})
	runners := make([]platform.HartRunner, n)
	for i := 0; i < n; i++ {
		runners[i] = e.cvmRunner(k, scale)
	}
	runtime.GC() // keep the boot's collection out of the timed region
	t0 := time.Now()
	if cfg == nil {
		for i, r := range runners {
			if err := r(e.M.Harts[i]); err != nil {
				return nil, 0, fmt.Errorf("bench: sequential hart %d: %w", i, err)
			}
		}
	} else {
		if err := e.M.RunParallel(*cfg, runners); err != nil {
			return nil, 0, fmt.Errorf("bench: parallel run: %w", err)
		}
	}
	sec := time.Since(t0).Seconds()
	fps := make([]HartFingerprint, n)
	for i, h := range e.M.Harts {
		fps[i] = Fingerprint(h)
	}
	return fps, sec, nil
}

// ParallelHarts is the largest machine of the multi-hart sweep.
const ParallelHarts = 4

// DefaultScalingFloor is the parallel speedup the 4-hart aes workload
// must reach under the adaptive quantum-barrier engine. It leaves
// headroom below ideal linear scaling for barrier cost and shared-host
// noise on CI runners. No host with 4 or more cores has recorded the
// 4-hart row yet, so the floor is unverified.
const DefaultScalingFloor = 2.5

// scalingHartCounts returns the sweep points: powers of two up to and
// including harts, plus harts itself when it is not a power of two.
func scalingHartCounts(harts int) []int {
	var ns []int
	for n := 1; n < harts; n *= 2 {
		ns = append(ns, n)
	}
	return append(ns, harts)
}

// sweepRow names a row of the sweep point at n harts.
func sweepRow(n int, metric string) string { return fmt.Sprintf("parallel.%dh.%s", n, metric) }

// coreBoundRows names the rows a host with the given core count does not
// measure: the speedup at n harts approaches min(n, cores), so it can
// neither prove nor disprove scaling past the host's cores.
func coreBoundRows(cores int) []string {
	var names []string
	for _, n := range scalingHartCounts(ParallelHarts) {
		if n > cores {
			names = append(names, sweepRow(n, "speedup"))
		}
	}
	return names
}

// parallelRows measures host throughput of the adaptive quantum-barrier
// engine on the aes workload across the hart-count sweep (one private
// workload copy per hart, sequential vs parallel at each point), and
// cross-checks the determinism contract while doing so: the per-hart
// fingerprints of both runs must be bit-identical or the benchmark
// errors. The summed fingerprints are exact rows at every point; the
// speedup row only where the host has the cores for it.
func parallelRows(scaleDiv int) ([]Row, error) {
	k, scale := hostAES(scaleDiv)
	cfg := platform.EngineConfig{Adaptive: true, Quantum: platform.DefaultQuantum}
	skip := coreBoundRows(runtime.NumCPU())
	var rows []Row
	for _, n := range scalingHartCounts(ParallelHarts) {
		var instr, cycles uint64
		vals, err := sampleRounds(func(add func(string, float64)) error {
			seqFP, seqSec, err := RunWorkloadCopies(k, scale, n, nil)
			if err != nil {
				return err
			}
			parFP, parSec, err := RunWorkloadCopies(k, scale, n, &cfg)
			if err != nil {
				return err
			}
			instr, cycles = 0, 0
			for i := range seqFP {
				if !seqFP[i].Equal(parFP[i]) {
					return fmt.Errorf("bench: %d harts, hart %d sequential/parallel divergence: %v vs %v",
						n, i, seqFP[i], parFP[i])
				}
				instr += seqFP[i].Instret
				cycles += seqFP[i].Cycles
			}
			add("speedup", seqSec/parSec)
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			exact(sweepRow(n, "instructions"), "platform", "instr", instr),
			exact(sweepRow(n, "cycles"), "platform", "cycles", cycles))
		if name := sweepRow(n, "speedup"); !slices.Contains(skip, name) {
			r := timed(name, "platform", "x", Higher, vals["speedup"])
			if n == ParallelHarts {
				r.Floor = DefaultScalingFloor
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}
