package bench

import (
	"strings"
	"testing"

	"zion/internal/telemetry"
	"zion/internal/workloads"
)

// Ledger rows in the shapes the producers emit.
func fingerprintRow(v uint64) Row { return exact("aes.cycles", "hart", "cycles", v) }
func mipsRow(v float64) Row {
	return Row{Name: "aes.trace_mips", Unit: "MIPS", Better: Higher, Median: v, N: 5}
}
func ratioRow(v float64) Row {
	return Row{Name: "aes.trace_speedup", Unit: "x", Better: Higher, Median: v, N: 5}
}
func tobRow(v float64) Row {
	return Row{Name: "aes.trace_over_block", Unit: "x", Better: Higher, Median: v, N: 5, Floor: MinTraceOverBlockFloor}
}
func overheadRow(v float64) Row {
	return Row{Name: "observability.overhead_pct", Unit: "%", Better: Lower, Median: v, N: 5, Floor: MaxObservabilityOverheadPct}
}
func scalingRow(v, floor float64) Row {
	return Row{Name: sweepRow(ParallelHarts, "speedup"), Unit: "x", Better: Higher, Median: v, N: 5, Floor: floor}
}

func onHost(cores int, rows ...Row) HostResult { return HostResult{HostCores: cores, Rows: rows} }

// gateCase is one CheckHostRegression scenario: the rows the error must
// name (nil = pass) and the rows reported as skipped for lack of cores.
type gateCase struct {
	name      string
	base, cur HostResult
	fail      []string
	skipped   []string
}

func runGateCases(t *testing.T, cases []gateCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			skipped, err := CheckHostRegression(tc.base, tc.cur)
			if strings.Join(skipped, ",") != strings.Join(tc.skipped, ",") {
				t.Errorf("skipped %v, want %v", skipped, tc.skipped)
			}
			if tc.fail == nil {
				if err != nil {
					t.Errorf("rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("passed, want failures on %v", tc.fail)
			}
			msg := err.Error()
			if got := strings.Count(msg, "\n") + 1; got != len(tc.fail) {
				t.Errorf("%d violations reported, want %d:\n%s", got, len(tc.fail), msg)
			}
			for _, name := range tc.fail {
				if !strings.Contains(msg, name) {
					t.Errorf("error does not name %s:\n%s", name, msg)
				}
			}
		})
	}
}

// TestHostGateRules drives CheckHostRegression through its three rules
// (exact, floor, 20% ratio bound) on rows of every kind.
func TestHostGateRules(t *testing.T) {
	runGateCases(t, []gateCase{
		{name: "exact row equal",
			base: onHost(4, fingerprintRow(5163770)), cur: onHost(4, fingerprintRow(5163770))},
		{name: "exact row diverged",
			base: onHost(4, fingerprintRow(5163770)), cur: onHost(4, fingerprintRow(5163771)),
			fail: []string{"aes.cycles"}},
		{name: "exact row new to the ledger",
			base: onHost(4), cur: onHost(4, fingerprintRow(1))},
		{name: "absolute rows are never gated",
			base: onHost(4, mipsRow(100)), cur: onHost(4, mipsRow(10))},
		{name: "higher row above its floor",
			base: onHost(4), cur: onHost(4, tobRow(1.6))},
		{name: "higher row below its floor",
			base: onHost(4, tobRow(2.3)), cur: onHost(4, tobRow(1.43)),
			fail: []string{"aes.trace_over_block"}},
		{name: "lower row under its floor",
			base: onHost(4), cur: onHost(4, overheadRow(2.9))},
		{name: "lower row over its floor",
			base: onHost(4, overheadRow(0.8)), cur: onHost(4, overheadRow(15.2)),
			fail: []string{"observability.overhead_pct"}},
		{name: "ratio within 20% of baseline",
			base: onHost(4, ratioRow(11.4)), cur: onHost(4, ratioRow(9.2))},
		{name: "ratio regressed more than 20%",
			base: onHost(4, ratioRow(11.4)), cur: onHost(4, ratioRow(7.2)),
			fail: []string{"aes.trace_speedup"}},
		{name: "ratio without a baseline row",
			base: onHost(4), cur: onHost(4, ratioRow(0.5))},
		{name: "baseline row not measured",
			base: onHost(4, ratioRow(11.4), fingerprintRow(5163770)), cur: onHost(4, ratioRow(11.4)),
			fail: []string{"aes.cycles"}},
		{name: "multi-row failure names every row",
			base: onHost(4, fingerprintRow(5163770), ratioRow(11.4), tobRow(2.3), overheadRow(0.8)),
			cur:  onHost(4, fingerprintRow(1), ratioRow(7.2), tobRow(1.43), overheadRow(15.2)),
			fail: []string{"aes.cycles", "aes.trace_speedup", "aes.trace_over_block", "observability.overhead_pct"}},
	})
}

// TestScalingFloorFromBaseline: the parallel-speedup floor the gate
// enforces comes from the fresh row, never from the baseline, and binds
// only where the producer emitted the row — a host with fewer cores than
// harts does not emit the sweep's speedup row, so it can neither pass nor
// fail its floor.
func TestScalingFloorFromBaseline(t *testing.T) {
	runGateCases(t, []gateCase{
		{name: "4-core run below the scaling floor",
			base: onHost(4, scalingRow(2.9, DefaultScalingFloor)), cur: onHost(4, scalingRow(1.3, DefaultScalingFloor)),
			fail: []string{"parallel.4h.speedup"}},
		{name: "4-core run clearing the scaling floor",
			base: onHost(4, scalingRow(2.9, DefaultScalingFloor)), cur: onHost(4, scalingRow(2.6, DefaultScalingFloor))},
		{name: "floorless baseline row does not lift the fresh row's floor",
			base: onHost(4, scalingRow(0.95, 0)), cur: onHost(4, scalingRow(1.1, DefaultScalingFloor)),
			fail: []string{"parallel.4h.speedup"}},
		{name: "host with fewer cores than harts skips the floor",
			base: onHost(4, scalingRow(2.9, DefaultScalingFloor)), cur: onHost(2),
			skipped: []string{"parallel.4h.speedup"}},
		{name: "1-core host skips every multi-hart speedup",
			base: onHost(2), cur: onHost(1),
			skipped: []string{"parallel.2h.speedup", "parallel.4h.speedup"}},
	})
}

// TestScalingGateRelativeCheck: a floored speedup row is judged by its
// floor, so a baseline recorded on a smaller host never anchors a real
// multi-core run, and a run that regressed past 20% also fails its floor.
func TestScalingGateRelativeCheck(t *testing.T) {
	runGateCases(t, []gateCase{
		{name: "within 20% of baseline and above the floor",
			base: onHost(4, scalingRow(2.9, DefaultScalingFloor)), cur: onHost(4, scalingRow(2.55, DefaultScalingFloor))},
		{name: ">20% regressed and below the floor",
			base: onHost(4, scalingRow(2.9, DefaultScalingFloor)), cur: onHost(4, scalingRow(2.9*0.75, DefaultScalingFloor)),
			fail: []string{"parallel.4h.speedup"}},
		{name: "baseline from a smaller host does not anchor the floor",
			base: onHost(1), cur: onHost(4, scalingRow(0.9, DefaultScalingFloor)),
			fail: []string{"parallel.4h.speedup"}},
	})
}

// TestCheckServingRerunCatchesP99: the serving rerun check compares the
// whole fingerprint, so a divergence in the latency tail alone fails it.
func TestCheckServingRerunCatchesP99(t *testing.T) {
	run := func(p99 uint64) *workloads.ServingStats {
		h := telemetry.NewHistogram()
		h.Observe(11772)
		return &workloads.ServingStats{Cycles: 128715744, P50: 11772, P99: p99, Hist: h,
			DoorbellExits: 7816, IRQAckExits: 7816, IRQsFired: 7816, IRQsSuppressed: 8}
	}
	if err := CheckServingRerun(run(18386), run(18386)); err != nil {
		t.Errorf("identical runs rejected: %v", err)
	}
	err := CheckServingRerun(run(18386), run(18387))
	if err == nil || !strings.Contains(err.Error(), "serving.p99_cycles") || strings.Contains(err.Error(), "\n") {
		t.Errorf("p99-only divergence not reported as exactly that row: %v", err)
	}
}
