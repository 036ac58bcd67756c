// Package bench implements the experiment harness that regenerates every
// table and figure in the paper's evaluation (§V). Each experiment has a
// Run function returning a structured result with paper-style rows; the
// zionbench command and the repository's Go benchmarks are thin wrappers
// around them. The experiment-to-module map lives in DESIGN.md; the
// paper-vs-measured record lives in EXPERIMENTS.md.
package bench

import (
	"fmt"

	"zion/internal/hart"
	"zion/internal/hv"
	"zion/internal/isa"
	"zion/internal/platform"
	"zion/internal/sm"
	"zion/internal/telemetry"
)

// TickInterval models the guest OS timer tick: 100 Hz at the paper's
// 100 MHz clock = one tick per million cycles.
const TickInterval = 1_000_000

// Env is one freshly booted simulated stack.
type Env struct {
	M  *platform.Machine
	SM *sm.SM
	HV *hv.Hypervisor
	H  *hart.Hart

	// Tel is the machine's telemetry scope (nil unless SetTelemetry armed
	// a sink before NewEnv ran).
	Tel *telemetry.Scope
}

// benchSink, when non-nil, is shared by every Env NewEnv boots; each gets
// its own Scope (distinct PID) so their harts and CVM ids stay apart.
var benchSink *telemetry.Sink

// envEngine is the engine tier (see selectEngine) NewEnv puts every hart
// it boots on; "" leaves them on the default trace tier. Only the
// cross-tier bit-identity tests set it, around harness runs that boot
// their own environments.
var envEngine string

// telEnvs tracks the environments wired to benchSink, for FlushTelemetry.
var telEnvs []*Env

// SetTelemetry arms (or, with nil, disarms) telemetry for environments
// booted after this call. Experiments themselves never check the sink:
// every record site is nil-scope-safe.
func SetTelemetry(sink *telemetry.Sink) {
	benchSink = sink
	telEnvs = nil
}

// Envs returns the environments wired to the shared sink since the last
// SetTelemetry call. Monitor endpoints build per-hart progress reports
// from them; the slice only ever grows within one arming, so hart indices
// derived from it stay stable across updates.
func Envs() []*Env { return telEnvs }

// FlushTelemetry settles attribution at each wired hart's final cycle
// count — making per-CVM cells sum exactly to hart totals — and publishes
// end-of-run MMU/PMP gauges. Call once, after the experiments and before
// exporting.
func FlushTelemetry() {
	for _, e := range telEnvs {
		for _, h := range e.M.Harts {
			e.Tel.AttrFlush(h.ID, h.Cycles)
			ts := h.TLB.Stats()
			e.Tel.Gauge(fmt.Sprintf("hart%d/tlb_hits", h.ID)).Set(ts.Hits)
			e.Tel.Gauge(fmt.Sprintf("hart%d/tlb_misses", h.ID)).Set(ts.Misses)
			ps := h.PMP.Stats()
			e.Tel.Gauge(fmt.Sprintf("hart%d/pmp_checks", h.ID)).Set(ps.Checks)
			e.Tel.Gauge(fmt.Sprintf("hart%d/pmp_denied", h.ID)).Set(ps.Denied)
			e.Tel.Gauge(fmt.Sprintf("hart%d/ptw_walks", h.ID)).Set(h.WalkStats.Walks)
			e.Tel.Gauge(fmt.Sprintf("hart%d/ptw_steps", h.ID)).Set(h.WalkStats.Steps)
			e.Tel.Gauge(fmt.Sprintf("hart%d/cycles", h.ID)).Set(h.Cycles)
			// Fast-path engine counters: host-side observability only, no
			// effect on any simulated number.
			h.FlushDispatchHists()
			fs := h.FastPathStats()
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/fetch_hits", h.ID)).Set(fs.FetchHits)
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/fetch_misses", h.ID)).Set(fs.FetchMisses)
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/read_hits", h.ID)).Set(fs.ReadHits)
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/read_misses", h.ID)).Set(fs.ReadMisses)
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/write_hits", h.ID)).Set(fs.WriteHits)
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/write_misses", h.ID)).Set(fs.WriteMisses)
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/fills", h.ID)).Set(fs.Fills)
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/fill_fails", h.ID)).Set(fs.FillFails)
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/block_builds", h.ID)).Set(fs.BlockBuilds)
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/block_invals", h.ID)).Set(fs.BlockInvals)
			// Dispatch counters: superblock effectiveness, how often the
			// event horizon forced single-step pacing, how often a side
			// exit chained to a same-page target, and how much of the work
			// pre-bound ops retired.
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/sb/hits", h.ID)).Set(fs.SBHits)
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/sb/horizon_cutoffs", h.ID)).Set(fs.HorizonCutoffs)
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/sb/chains", h.ID)).Set(fs.Chains)
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/tc/ops", h.ID)).Set(fs.TCOps)
			e.Tel.Gauge(fmt.Sprintf("hart%d/fp/tc/bailouts", h.ID)).Set(fs.TCBailouts)
		}
		// Parallel-engine bookkeeping of the machine's latest RunParallel:
		// barrier counts and the adaptive-quantum trajectory. Zero epochs
		// means the machine never ran parallel — publish nothing.
		if st := e.M.EngineStats(); st.Epochs > 0 {
			e.Tel.PublishEngine(telemetry.EngineGauges{
				Epochs:         st.Epochs,
				CrossOps:       st.CrossOps,
				MergedBatches:  st.MergedBatches,
				QuantumGrows:   st.QuantumGrows,
				QuantumShrinks: st.QuantumShrinks,
				FinalQuantum:   st.FinalQuantum,
				MinQuantum:     st.MinQuantum,
				MaxQuantum:     st.MaxQuantum,
				Adaptive:       st.Adaptive,
			})
		}
	}
}

// EnvConfig tunes the stack for an experiment.
type EnvConfig struct {
	SM       sm.Config
	RAMSize  uint64
	PoolSize uint64
	// HVQuantum arms the normal-VM scheduler tick (0 = none).
	HVQuantum uint64
	// Harts is the hart count (0 = 1). Multi-hart environments drive the
	// extra harts through platform.RunParallel or per-hart run loops.
	Harts int
}

// NewEnv boots a stack: machine, Secure Monitor, hypervisor, one secure
// pool registration.
func NewEnv(cfg EnvConfig) *Env {
	if cfg.RAMSize == 0 {
		cfg.RAMSize = 512 << 20
	}
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 64 << 20
	}
	if cfg.Harts <= 0 {
		cfg.Harts = 1
	}
	m := platform.New(cfg.Harts, cfg.RAMSize)
	sc := benchSink.Scope()
	m.SetTelemetry(sc)
	if sc != nil && cfg.SM.Telemetry == nil {
		cfg.SM.Telemetry = sc
	}
	monitor, err := sm.New(m, cfg.SM)
	if err != nil {
		panic(fmt.Sprintf("bench: secure monitor installation failed: %v", err))
	}
	k := hv.New(m, monitor, platform.RAMBase+0x0100_0000, cfg.RAMSize-0x0200_0000)
	k.SchedQuantum = cfg.HVQuantum
	h := m.Harts[0]
	for _, hh := range m.Harts {
		hh.Mode = isa.ModeS
		selectEngine(hh, envEngine)
	}
	if sc != nil {
		k.SetTelemetry(sc)
		for _, hh := range m.Harts {
			// Per-tier dispatch-length distributions (no-op on slow-engine
			// harts; the engine's record sites are nil-guarded when the
			// plane is dark, preserving zero overhead when disabled).
			hh.SetDispatchHists(
				sc.Histogram(fmt.Sprintf("hart%d/fp/sb/dispatch_len", hh.ID)),
				sc.Histogram(fmt.Sprintf("hart%d/fp/tc/dispatch_len", hh.ID)),
			)
		}
	}
	if err := k.RegisterSecurePool(h, cfg.PoolSize); err != nil {
		panic(fmt.Sprintf("bench: pool registration failed: %v", err))
	}
	e := &Env{M: m, SM: monitor, HV: k, H: h, Tel: sc}
	if sc != nil {
		telEnvs = append(telEnvs, e)
	}
	return e
}

// RunToCompletion drives vCPU 0 of a VM of either kind on hart h until
// shutdown, tolerating quantum exits. It returns the wall cycles consumed
// and the guest's shutdown payload (self-measured benchmark cycles, when
// the image reports them).
func (e *Env) RunToCompletion(h *hart.Hart, vm *hv.VM) (wall, guestData uint64, err error) {
	start := h.Cycles
	for {
		info, err := e.HV.RunVCPU(h, vm, 0)
		if err != nil {
			return 0, 0, err
		}
		switch info.Reason {
		case sm.ExitShutdown:
			return h.Cycles - start, info.Data, nil
		case sm.ExitTimer:
			continue // rescheduled immediately (single runnable vCPU)
		default:
			return 0, 0, fmt.Errorf("bench: unexpected exit %v on hart %d", info.Reason, h.ID)
		}
	}
}

// pct returns the percentage change from base to v.
func pct(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return (v - base) / base * 100
}
