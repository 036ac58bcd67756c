package bench

import (
	"reflect"
	"testing"

	"zion/internal/telemetry"
)

// runBothWays executes run once per engine — compiled trace, superblock,
// per-instruction fast path, and pure slow path — and fails unless the
// results — every simulated cycle count, score, and percentage in the
// paper tables — are bit-identical across all four. This is the automated
// form of the PRs' core guarantee: each engine is an accelerator, never a
// semantic change.
func runBothWays[T any](t *testing.T, name string, run func() (T, error)) {
	t.Helper()
	var ref T
	for i, e := range engineGrid {
		var got T
		var err error
		onEngine(e, func() { got, err = run() })
		if err != nil {
			t.Fatalf("%s (%s): %v", name, e, err)
		}
		if i == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("%s: %s engine result differs from %s\n%s: %+v\n%s: %+v",
				name, engineGrid[0], e, engineGrid[0], ref, e, got)
		}
	}
}

// onEngine runs fn with every environment NewEnv boots on the named
// engine tier.
func onEngine(engine string, fn func()) {
	defer func(old string) { envEngine = old }(envEngine)
	envEngine = engine
	fn()
}

func TestFastPathBitIdenticalMicro(t *testing.T) {
	runBothWays(t, "E1", func() (E1Result, error) { return RunE1(50) })
	runBothWays(t, "E2", func() (E2Result, error) { return RunE2(50) })
	runBothWays(t, "E3", func() (E3Result, error) { return RunE3(256) })
}

func TestFastPathBitIdenticalMacro(t *testing.T) {
	runBothWays(t, "T1", func() (T1Result, error) { return RunT1(16) })
	runBothWays(t, "E4", func() (E4Result, error) { return RunE4(16) })
	runBothWays(t, "F3", func() (F3Result, error) { return RunF3(3) })
}

func TestFastPathBitIdenticalF4(t *testing.T) {
	if testing.Short() {
		t.Skip("F4 sweep is slow")
	}
	runBothWays(t, "F4", func() (F4Result, error) { return RunF4() })
}

// Arming the telemetry sink must not change a single simulated number:
// fast-path counters are exported as gauges, never fed back into cycles.
func TestFastPathTelemetryOffBitIdentity(t *testing.T) {
	run := func(armed bool) (E2Result, error) {
		if armed {
			SetTelemetry(telemetry.New(telemetry.Config{}))
		}
		defer SetTelemetry(nil)
		return RunE2(50)
	}
	on, err := run(true)
	if err != nil {
		t.Fatalf("telemetry on: %v", err)
	}
	FlushTelemetry() // exercises the fp gauge export path too
	off, err := run(false)
	if err != nil {
		t.Fatalf("telemetry off: %v", err)
	}
	if !reflect.DeepEqual(on, off) {
		t.Errorf("telemetry changed results\non:  %+v\noff: %+v", on, off)
	}
}

func TestFastPathBitIdenticalAblations(t *testing.T) {
	runBothWays(t, "A1", func() (A1Result, error) { return RunA1(16) })
	runBothWays(t, "A2", func() (A2Result, error) { return RunA2(100) })
	runBothWays(t, "A3", func() (A3Result, error) { return RunA3(500) })
	runBothWays(t, "A4", func() (A4Result, error) { return RunA4() })
}
