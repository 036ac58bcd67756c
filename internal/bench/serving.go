package bench

import (
	"fmt"

	"zion/internal/workloads"
)

// MinServingSpeedupFloor is the CheckHostRegression floor on the serving
// benchmark's data-plane speedup: the multi-queue, batched, coalesced
// configuration must move the same request stream in at most half the
// simulated cycles of the single-queue, depth-1, uncoalesced baseline.
// Cycle ratios are simulation-domain, so the floor is exact on any host.
const MinServingSpeedupFloor = 2.0

// ServingBenchConfig is the canonical optimized configuration the
// `serving.*` rows record: the full-scale run is 1M requests spread over 8 CVMs with
// two queues each, depth 16, coalescing every 16 completions.
func ServingBenchConfig(requests uint64) workloads.ServingConfig {
	return workloads.ServingConfig{
		CVMs:            8,
		Queues:          2,
		QueueSize:       64,
		Requests:        requests,
		Depth:           16,
		ReqBytes:        512,
		Coalesce:        16,
		CoalesceTimeout: 2_000_000,
		Seed:            42,
	}
}

// RunServingOnce boots a fresh stack and drives one serving run with the
// given configuration — the zionbench `serving` experiment entry point.
func RunServingOnce(cfg workloads.ServingConfig) (*workloads.ServingStats, error) {
	e := NewEnv(EnvConfig{})
	return workloads.RunServing(e.HV, e.H, e.Tel, cfg)
}

// servingFingerprint is the simulation-domain outcome of one serving
// run: bit-identical for a given configuration on any host.
func servingFingerprint(st *workloads.ServingStats) []Row {
	return []Row{
		exact("serving.cycles", "virtio", "cycles", st.Cycles),
		exact("serving.p50_cycles", "virtio", "cycles", st.P50),
		exact("serving.p99_cycles", "virtio", "cycles", st.P99),
		exact("serving.hist_count", "virtio", "count", st.Hist.Count()),
		exact("serving.hist_sum", "virtio", "cycles", st.Hist.Sum()),
		exact("serving.doorbell_exits", "virtio", "count", st.DoorbellExits),
		exact("serving.irq_ack_exits", "virtio", "count", st.IRQAckExits),
		exact("serving.irqs_fired", "virtio", "count", st.IRQsFired),
		exact("serving.irqs_suppressed", "virtio", "count", st.IRQsSuppressed),
	}
}

// CheckServingRerun applies the gate's exact rule to two runs of one
// serving configuration, naming every fingerprint row on which they
// differ.
func CheckServingRerun(a, b *workloads.ServingStats) error {
	_, err := CheckHostRegression(HostResult{Rows: servingFingerprint(a)}, HostResult{Rows: servingFingerprint(b)})
	return err
}

// servingRows measures the sustained-serving data plane: the optimized
// configuration once per round on a fresh stack (every rerun must
// reproduce the first run's fingerprint), then the single-queue
// unbatched baseline on the same seed and request stream. The request
// count (1M at full scale) never drops below 4000, so the coalescing and
// batching regimes stay exercised.
func servingRows(scaleDiv int) ([]Row, error) {
	requests := uint64(1_000_000) / uint64(max(scaleDiv, 1))
	cfg := ServingBenchConfig(max(requests, 4000))
	var first *workloads.ServingStats
	vals, err := sampleRounds(func(add func(string, float64)) error {
		st, err := RunServingOnce(cfg)
		if err != nil {
			return fmt.Errorf("serving optimized: %w", err)
		}
		if first == nil {
			first = st
		} else if err := CheckServingRerun(first, st); err != nil {
			return fmt.Errorf("serving rerun diverged: %w", err)
		}
		add("host_rps", float64(st.Requests)/st.HostSeconds)
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := cfg
	base.Queues, base.Depth, base.Coalesce = 1, 1, 1
	bst, err := RunServingOnce(base)
	if err != nil {
		return nil, fmt.Errorf("serving baseline: %w", err)
	}
	return append(servingFingerprint(first),
		exact("serving.baseline_cycles", "virtio", "cycles", bst.Cycles),
		Row{Name: "serving.speedup", Layer: "virtio", Unit: "x", Better: Higher,
			Median: float64(bst.Cycles) / float64(first.Cycles), N: 1, Floor: MinServingSpeedupFloor},
		timed("serving.host_rps", "virtio", "req/s", Higher, vals["host_rps"])), nil
}
