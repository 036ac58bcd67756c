package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"zion/internal/platform"
	"zion/internal/telemetry"
	"zion/internal/workloads"
)

// runE1Traced runs a small E1 under a fresh sink and returns the exported
// Chrome trace plus the sink for deeper inspection.
func runE1Traced(t *testing.T, iters int) ([]byte, *telemetry.Sink, E1Result) {
	t.Helper()
	sink := telemetry.New(telemetry.Config{})
	SetTelemetry(sink)
	defer SetTelemetry(nil)
	r, err := RunE1(iters)
	if err != nil {
		t.Fatal(err)
	}
	FlushTelemetry()
	var buf bytes.Buffer
	if err := sink.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sink, r
}

// TestSeededTraceDeterminism: the simulation is seeded and the trace clock
// is the simulated cycle counter, so two identical runs must export
// byte-identical Chrome traces.
func TestSeededTraceDeterminism(t *testing.T) {
	a, _, _ := runE1Traced(t, 20)
	b, _, _ := runE1Traced(t, 20)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-configuration runs exported different traces (%d vs %d bytes)", len(a), len(b))
	}
}

// TestAttributionSumsToHartTotals: after FlushTelemetry, every hart's
// attribution cells must sum exactly to its cycle counter — no cycle
// uncounted, none double-counted.
func TestAttributionSumsToHartTotals(t *testing.T) {
	sink := telemetry.New(telemetry.Config{})
	SetTelemetry(sink)
	defer SetTelemetry(nil)
	if _, err := RunE1(20); err != nil {
		t.Fatal(err)
	}
	envs := telEnvs // capture before any reset
	FlushTelemetry()

	rows, totals := sink.Attr.Rows()
	if len(totals) == 0 {
		t.Fatal("no attribution totals recorded")
	}
	type hk struct{ pid, hart int32 }
	sums := map[hk]uint64{}
	for _, r := range rows {
		sums[hk{r.PID, r.Hart}] += r.Total()
	}
	for _, tot := range totals {
		if got := sums[hk{tot.PID, tot.Hart}]; got != tot.Cycles {
			t.Errorf("p%d/h%d: attribution rows sum to %d, cursor total %d",
				tot.PID, tot.Hart, got, tot.Cycles)
		}
	}
	// The cursor totals themselves must equal the real hart cycle counters.
	for _, e := range envs {
		pid := e.Tel.PID()
		for _, h := range e.M.Harts {
			found := false
			for _, tot := range totals {
				if tot.PID == pid && tot.Hart == int32(h.ID) {
					found = true
					if tot.Cycles != h.Cycles {
						t.Errorf("p%d/h%d: attributed %d cycles, hart ran %d",
							pid, h.ID, tot.Cycles, h.Cycles)
					}
				}
			}
			if !found && h.Cycles > 0 {
				t.Errorf("p%d/h%d ran %d cycles but has no attribution total", pid, h.ID, h.Cycles)
			}
		}
	}
	// Guest cycles must actually be attributed to the CVM, not the host.
	var guest uint64
	for _, r := range rows {
		if r.CVM >= 0 {
			guest += r.Buckets[telemetry.AttrGuest]
		}
	}
	if guest == 0 {
		t.Error("no guest cycles attributed to any CVM")
	}
}

// TestTraceContainsWorldSwitchSpans: the exported trace must carry the SM
// world-switch span taxonomy with per-CVM labels.
func TestTraceContainsWorldSwitchSpans(t *testing.T) {
	raw, _, _ := runE1Traced(t, 20)
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Args struct {
				CVM int32 `json:"cvm"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	want := map[string]bool{"ws.entry": false, "ws.exit": false}
	for _, ev := range f.TraceEvents {
		if _, ok := want[ev.Name]; ok && ev.Cat == "sm" && ev.Ph == "X" && ev.Args.CVM >= 0 {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("no %q span with a CVM label in the trace", name)
		}
	}
}

// TestTelemetryOffBitIdentical: arming telemetry must not perturb the
// simulation — cycle-domain results with the sink on and off are
// bit-identical, proving record sites never advance simulated time. The
// armed cases cover the whole observability plane: tracing only, tracing
// with the sampling profiler at zero period (armed but never due), and
// profiler actively sampling at the default period.
func TestTelemetryOffBitIdentical(t *testing.T) {
	SetTelemetry(nil)
	off, err := RunE1(20)
	if err != nil {
		t.Fatal(err)
	}
	_, _, on := runE1Traced(t, 20)
	if off != on {
		t.Errorf("telemetry changed benchmark results:\noff: %+v\non:  %+v", off, on)
	}
	for _, tc := range []struct {
		name   string
		period uint64
	}{
		{"profiler-armed-zero-sampling", 0},
		{"profiler-sampling-default-period", telemetry.DefaultProfilePeriod},
	} {
		sink := telemetry.New(telemetry.Config{ProfilePeriod: tc.period})
		SetTelemetry(sink)
		armed, err := RunE1(20)
		SetTelemetry(nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if off != armed {
			t.Errorf("%s changed benchmark results:\noff:   %+v\narmed: %+v", tc.name, off, armed)
		}
	}
}

// TestProfilerArmedEngineBitIdentity: the sampling profiler must not
// perturb any of the three engines — cycle and instret fingerprints with
// sampling armed are identical to the unarmed run, per engine.
func TestProfilerArmedEngineBitIdentity(t *testing.T) {
	var k workloads.Kernel
	for _, c := range workloads.RV8() {
		if c.Name == "aes" {
			k = c
		}
	}
	const scale = 64
	for _, engine := range []string{EngineSlow, EngineFast, EngineBlock} {
		SetTelemetry(nil)
		base, err := runHostOnce(k, scale, engine)
		if err != nil {
			t.Fatalf("%s unarmed: %v", engine, err)
		}
		// An aggressive period exercises the sample hook on every engine's
		// hot loop far more often than the default would.
		sink := telemetry.New(telemetry.Config{ProfilePeriod: 512})
		SetTelemetry(sink)
		armed, err := runHostOnce(k, scale, engine)
		SetTelemetry(nil)
		if err != nil {
			t.Fatalf("%s armed: %v", engine, err)
		}
		if base.cycles != armed.cycles || base.instr != armed.instr {
			t.Errorf("%s: profiler perturbed the run: cycles %d->%d instret %d->%d",
				engine, base.cycles, armed.cycles, base.instr, armed.instr)
		}
		if len(sink.ProfileMatrix()) == 0 {
			t.Errorf("%s: armed run collected no samples", engine)
		}
	}
}

// TestProfileMatrixSumsToAttribution: after FlushTelemetry the profiler's
// per-hart matrix total must equal the attribution cursor's HartTotal
// exactly — both tables are flushed to the same cycle, so the identity is
// exact, not approximate.
func TestProfileMatrixSumsToAttribution(t *testing.T) {
	sink := telemetry.New(telemetry.Config{ProfilePeriod: telemetry.DefaultProfilePeriod})
	SetTelemetry(sink)
	defer SetTelemetry(nil)
	if _, err := RunE1(20); err != nil {
		t.Fatal(err)
	}
	FlushTelemetry()

	_, totals := sink.Attr.Rows()
	type hk struct{ pid, hart int32 }
	attr := map[hk]uint64{}
	for _, tot := range totals {
		attr[hk{tot.PID, tot.Hart}] = tot.Cycles
	}
	mat := map[hk]uint64{}
	for _, c := range sink.ProfileMatrix() {
		mat[hk{c.PID, c.Hart}] += c.Cycles
	}
	if len(mat) == 0 {
		t.Fatal("no profile matrix cells collected")
	}
	for k, m := range mat {
		if a := attr[k]; a != m {
			t.Errorf("p%d/h%d: profile matrix sums to %d, attribution total %d", k.pid, k.hart, m, a)
		}
	}
}

// TestFoldedProfileSeededDeterminism: two identical seeded runs export
// byte-identical folded profiles — sampling is cycle-driven, so the
// profile is as deterministic as the simulation itself.
func TestFoldedProfileSeededDeterminism(t *testing.T) {
	run := func() []byte {
		sink := telemetry.New(telemetry.Config{ProfilePeriod: telemetry.DefaultProfilePeriod})
		SetTelemetry(sink)
		defer SetTelemetry(nil)
		if _, err := RunE1(20); err != nil {
			t.Fatal(err)
		}
		FlushTelemetry()
		var buf bytes.Buffer
		sink.ExportFoldedProfile(&buf)
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty folded profile")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-configuration runs exported different folded profiles (%d vs %d bytes)", len(a), len(b))
	}
}

// TestMicroRowsReportPercentiles: world-switch rows must surface the
// distribution, not just the mean.
func TestMicroRowsReportPercentiles(t *testing.T) {
	_, _, r := runE1Traced(t, 20)
	if r.EntrySharedDist.P99 == 0 || r.EntrySharedDist.P50 == 0 {
		t.Errorf("entry distribution empty: %+v", r.EntrySharedDist)
	}
	if r.EntrySharedDist.P50 > r.EntrySharedDist.P99 {
		t.Errorf("p50 %d > p99 %d", r.EntrySharedDist.P50, r.EntrySharedDist.P99)
	}
	if r.EntrySharedDist.Min > r.EntrySharedDist.P50 || r.EntrySharedDist.P99 > r.EntrySharedDist.Max {
		t.Errorf("distribution out of order: %+v", r.EntrySharedDist)
	}
}

// TestParallelEventsStayOnTheirHart: two aes CVMs run on two harts under
// the parallel engine with telemetry armed. Each CVM's "sm" records sit on
// the trace stream of the hart that ran it (found from its ws.entry
// spans), its world switches sit on that hart's flight ring, and two runs
// in Ordered mode export byte-identical Chrome traces. Free-running mode
// hands out CVM ids in the order the host schedules the two creations
// (TestConcurrentCVMCreation races them on purpose), so its exports may
// swap the ids between runs.
func TestParallelEventsStayOnTheirHart(t *testing.T) {
	var k workloads.Kernel
	for _, c := range workloads.RV8() {
		if c.Name == "aes" {
			k = c
		}
	}
	run := func(ordered bool) []byte {
		sink := telemetry.New(telemetry.Config{})
		SetTelemetry(sink)
		defer SetTelemetry(nil)
		if _, _, err := RunWorkloadCopies(k, 4, 2, &platform.EngineConfig{Quantum: 4096, Ordered: ordered}); err != nil {
			t.Fatal(err)
		}
		envs := Envs()
		if len(envs) != 1 {
			t.Fatalf("%d environments armed, want 1", len(envs))
		}
		e := envs[0]
		FlushTelemetry()

		recs := sink.Tracer.Snapshot()
		hartOf := map[int32]int32{}
		for _, r := range recs {
			if r.Cat != "sm" || r.Name != "ws.entry" {
				continue
			}
			if h, ok := hartOf[r.CVM]; ok && h != r.TID {
				t.Fatalf("cvm %d entered on harts %d and %d", r.CVM, h, r.TID)
			}
			hartOf[r.CVM] = r.TID
		}
		var harts []int32
		for _, h := range hartOf {
			harts = append(harts, h)
		}
		if len(harts) != 2 || harts[0] == harts[1] {
			t.Fatalf("ws.entry spans place the CVMs on harts %v, want two CVMs on two harts", hartOf)
		}
		for _, r := range recs {
			if !strings.HasPrefix(r.Cat, "sm") || r.CVM == telemetry.NoCVM {
				continue
			}
			if want := hartOf[r.CVM]; r.TID != want {
				t.Errorf("%s/%s of cvm %d at cycle %d is on tid %d, the cvm ran on hart %d",
					r.Cat, r.Name, r.CVM, r.Cycle, r.TID, want)
			}
		}

		switches := map[int32]int{}
		for i := 0; i < e.M.Flight.Harts(); i++ {
			for _, ev := range e.M.Flight.Tail(i, 0) {
				if ev.Kind != telemetry.FlightWorldEnter && ev.Kind != telemetry.FlightWorldExit {
					continue
				}
				switches[int32(ev.CVM)]++
				if want := hartOf[int32(ev.CVM)]; int32(i) != want || ev.Hart != i {
					t.Errorf("%v of cvm %d is on hart %d's flight ring, the cvm ran on hart %d",
						ev.Kind, ev.CVM, i, want)
				}
			}
		}
		for cvm := range hartOf {
			if switches[cvm] == 0 {
				t.Errorf("no world switch of cvm %d on any flight ring", cvm)
			}
		}

		var buf bytes.Buffer
		if err := sink.ExportChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	run(false)
	if a, b := run(true), run(true); !bytes.Equal(a, b) {
		t.Errorf("two Ordered runs exported different traces (%d vs %d bytes)", len(a), len(b))
	}
}
