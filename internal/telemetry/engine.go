// Engine gauges: the parallel quantum-barrier engine's per-run
// bookkeeping, published under "engine/..." so the monitor endpoint and
// zionbench -metrics expose barrier behaviour next to the per-hart
// counters. The values come from the simulated domain (epoch counts,
// cross-hart op counts, the adaptive-quantum trajectory), so for a
// seeded deterministic run the gauge set is byte-stable across reruns.
package telemetry

// EngineGauges is the gauge set one RunParallel invocation publishes.
// The producing struct lives in internal/platform (which imports this
// package); the harness copies it field-for-field at flush time.
type EngineGauges struct {
	// Epochs is the number of quantum barriers crossed; CrossOps the
	// cross-hart operations delivered through them; MergedBatches the
	// outbox→inbox merge operations that carried those ops.
	Epochs        uint64
	CrossOps      uint64
	MergedBatches uint64
	// QuantumGrows/QuantumShrinks count adaptive resizes; Final/Min/Max
	// record the quantum trajectory over the run.
	QuantumGrows   uint64
	QuantumShrinks uint64
	FinalQuantum   uint64
	MinQuantum     uint64
	MaxQuantum     uint64
	// Adaptive records the engine configuration (exported as 0/1).
	Adaptive bool
}

// PublishEngine sets the "engine/..." gauges from one run's bookkeeping.
// Nil-scope safe like every Scope method: one nil check when the plane
// is dark.
func (sc *Scope) PublishEngine(g EngineGauges) {
	if sc == nil {
		return
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	sc.Gauge("engine/epochs").Set(g.Epochs)
	sc.Gauge("engine/cross_ops").Set(g.CrossOps)
	sc.Gauge("engine/merged_batches").Set(g.MergedBatches)
	sc.Gauge("engine/quantum_grows").Set(g.QuantumGrows)
	sc.Gauge("engine/quantum_shrinks").Set(g.QuantumShrinks)
	sc.Gauge("engine/quantum_final").Set(g.FinalQuantum)
	sc.Gauge("engine/quantum_min").Set(g.MinQuantum)
	sc.Gauge("engine/quantum_max").Set(g.MaxQuantum)
	sc.Gauge("engine/adaptive").Set(b2u(g.Adaptive))
}
