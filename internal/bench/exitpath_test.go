package bench

import (
	"reflect"
	"testing"

	"zion/internal/hv"
	"zion/internal/pmp"
	"zion/internal/ptw"
	"zion/internal/telemetry"
	"zion/internal/tlb"
)

// exitPathOutcome is everything a world-switch-heavy run leaves behind
// that an engine tier could disturb: the hart's fingerprint, its TLB, PMP
// and walk counters, the SM's summed entry and exit latencies, and the
// tail of the hart's flight ring (the trap and world-switch record).
type exitPathOutcome struct {
	Hart              HartFingerprint
	TLB               tlb.Stats
	PMP               pmp.Stats
	Walks             ptw.WalkStats
	Entries, Exits    uint64
	EntrySum, ExitSum uint64
	Flight            []telemetry.Event
}

// runExitPath boots a stack with cfg, runs one CVM of image to shutdown,
// and records its outcome; device, when non-nil, is attached first.
func runExitPath(t *testing.T, cfg EnvConfig, image []byte, device hv.EmuDevice) exitPathOutcome {
	t.Helper()
	e := NewEnv(cfg)
	vm, err := e.HV.CreateCVM(e.H, "exitpath", image, hv.GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	if device != nil {
		e.HV.AttachDevice(vm, device)
	}
	if _, _, err := e.RunToCompletion(e.H, vm); err != nil {
		t.Fatal(err)
	}
	st := e.SM.Stats
	return exitPathOutcome{
		Hart:     Fingerprint(e.H),
		TLB:      e.H.TLB.Stats(),
		PMP:      e.H.PMP.Stats(),
		Walks:    e.H.WalkStats,
		Entries:  st.Entry.Count(),
		Exits:    st.Exit.Count(),
		EntrySum: st.Entry.Sum(),
		ExitSum:  st.Exit.Sum(),
		Flight:   e.H.Flight.Tail(0),
	}
}

// TestExitPathLockstep runs the E1 MMIO-load loop and the E3 demand-fault
// loop on every engine tier and requires the same outcome from each: the
// world switch's CSR moves, the first fetch after entry and the PMP range
// cache are host-side shortcuts, never a change in what is simulated.
func TestExitPathLockstep(t *testing.T) {
	cases := []struct {
		name   string
		cfg    EnvConfig
		image  []byte
		device func() hv.EmuDevice
	}{
		{"E1-mmio", EnvConfig{}, mmioLoopProgram(200), func() hv.EmuDevice { return &mmioStub{} }},
		{"E3-faults", EnvConfig{PoolSize: 4 << 20}, touchProgram(1536), func() hv.EmuDevice { return nil }},
	}
	for _, c := range cases {
		var ref exitPathOutcome
		for i, engine := range engineGrid {
			var got exitPathOutcome
			onEngine(engine, func() { got = runExitPath(t, c.cfg, c.image, c.device()) })
			if got.Exits == 0 || len(got.Flight) == 0 {
				t.Fatalf("%s on %s: no exits or flight events recorded: %+v", c.name, engine, got)
			}
			if i == 0 {
				ref = got
				continue
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s: %s engine differs from %s\n%s: %+v\n%s: %+v",
					c.name, engine, engineGrid[0], engineGrid[0], ref, engine, got)
			}
		}
	}
}
