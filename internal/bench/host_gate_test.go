package bench

import (
	"strings"
	"testing"
)

// gateBaseline builds a baseline HostResult whose parallel section was
// recorded on a 4-core host at the default scaling floor — the shape the
// multi-core CI lane commits.
func gateBaseline() HostResult {
	return HostResult{
		Parallel: &ParallelHostResult{
			Workload: "aes", Harts: 4, HostCores: 4,
			Adaptive: true,
			Speedup:  2.9, Deterministic: true,
			ScalingFloor: DefaultScalingFloor,
		},
	}
}

// TestScalingFloorFromBaseline: the absolute parallel-speedup floor the
// gate enforces is the one recorded in the baseline JSON, and it binds
// only when the measuring host has at least as many cores as harts — a
// 1-core container can neither pass nor fail a 4-hart scaling claim.
func TestScalingFloorFromBaseline(t *testing.T) {
	base := gateBaseline()

	// 4-core measurement below the recorded floor: rejected, naming it.
	cur := gateBaseline()
	cur.Parallel.Speedup = 1.3
	err := CheckHostRegression(base, cur)
	if err == nil || !strings.Contains(err.Error(), "floor") {
		t.Errorf("sub-floor 4-core run not rejected: %v", err)
	}

	// Same sub-floor number on a 1-core host: the floor must not bind.
	cur.Parallel.HostCores = 1
	if err := CheckHostRegression(base, cur); err != nil {
		t.Errorf("1-core run spuriously failed the 4-core floor: %v", err)
	}

	// 4-core measurement clearing the floor passes.
	cur = gateBaseline()
	cur.Parallel.Speedup = 2.6
	if err := CheckHostRegression(base, cur); err != nil {
		t.Errorf("above-floor run rejected: %v", err)
	}

	// A baseline without a recorded floor (predating this gate) imposes
	// no absolute requirement even on capable hosts.
	base.Parallel.ScalingFloor = 0
	base.Parallel.HostCores = 1 // and recorded on a 1-core host:
	base.Parallel.Speedup = 0.95
	cur = gateBaseline()
	cur.Parallel.Speedup = 1.1
	if err := CheckHostRegression(base, cur); err != nil {
		t.Errorf("floorless baseline enforced a floor: %v", err)
	}
}

// TestScalingGateRelativeCheck: the 20% relative regression check only
// compares measurements when both baseline and current were taken on
// hosts with enough cores — a baseline recorded in a 1-core container
// must never anchor the ratio for a real 4-core run.
func TestScalingGateRelativeCheck(t *testing.T) {
	base := gateBaseline()
	cur := gateBaseline()
	cur.Parallel.Speedup = 2.55 // above the 2.5 floor, within 20% of 2.9
	if err := CheckHostRegression(base, cur); err != nil {
		t.Errorf("within-20%% run rejected: %v", err)
	}
	cur.Parallel.Speedup = 2.9 * 0.75 // above nothing: 2.18 < floor and >20% below
	if err := CheckHostRegression(base, cur); err == nil {
		t.Error(">20%-regressed sub-floor run passed the gate")
	}

	// Baseline measured on 1 core: its 0.95x "speedup" is meaningless
	// for a 4-core run and must not trigger the relative check either
	// way — and with no recorded floor carried over, a modest 4-core
	// result passes.
	base.Parallel.HostCores = 1
	base.Parallel.Speedup = 0.95
	cur.Parallel.Speedup = 0.9 // below baseline*0.8? 0.9 > 0.76 anyway; floor applies though
	err := CheckHostRegression(base, cur)
	if err == nil || !strings.Contains(err.Error(), "floor") {
		t.Errorf("recorded floor ignored when baseline host was small: %v", err)
	}
}
