package bench

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"zion/internal/hart"
	"zion/internal/hv"
	"zion/internal/sm"
	"zion/internal/telemetry"
	"zion/internal/workloads"
)

// Row is one entry of the host benchmark ledger (BENCH_host*.json).
// Timed rows hold the median and inter-quartile spread of Rounds
// interleaved samples; simulation-domain rows (Better == Exact) hold a
// single fingerprint value that must reproduce bit for bit on any host.
type Row struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Median float64 `json:"median"`
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
	// Floor, when set, is the absolute bound the median must clear on
	// the Better side. The code that produces the row stamps it.
	Floor float64 `json:"floor,omitempty"`
}

// Row.Better values.
const (
	Higher = "higher"
	Lower  = "lower"
	Exact  = "exact"
)

// HostResult is the payload of BENCH_host.json: the measuring host's
// stamp and the ledger rows.
type HostResult struct {
	HostCores  int    `json:"host_cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Rows       []Row  `json:"rows"`
}

// Rounds is how many interleaved rounds every timed measurement takes.
const Rounds = 5

// ratioBound is how far below its baseline median (above, for a Lower
// row) a ratio row without a floor may fall.
const ratioBound = 0.2

// MinTraceOverBlockFloor is the floor on the trace tier's per-workload
// speedup over the superblock engine. The measured full-scale ratios
// (BENCH_host.json) leave clear headroom over it.
const MinTraceOverBlockFloor = 1.5

// MaxObservabilityOverheadPct is the host-throughput budget of the armed
// observability plane on the superblock engine, the tier it was
// calibrated on.
const MaxObservabilityOverheadPct = 3.0

// Format renders the ledger as a table.
func (r HostResult) Format() []string {
	out := []string{
		fmt.Sprintf("host: %d cores, GOMAXPROCS %d, %s; timed rows are the median and inter-quartile spread of %d rounds",
			r.HostCores, r.GOMAXPROCS, r.GoVersion, Rounds),
		fmt.Sprintf("%-34s %-9s %16s %10s %-7s %s", "row", "layer", "median", "spread", "unit", "floor"),
	}
	for _, row := range r.Rows {
		floor := ""
		if row.Floor != 0 {
			floor = fmt.Sprintf("%.2f", row.Floor)
		}
		out = append(out, fmt.Sprintf("%-34s %-9s %16.2f %10.2f %-7s %s",
			row.Name, row.Layer, row.Median, row.Spread, row.Unit, floor))
	}
	return out
}

// CheckHostRegression gates a fresh measurement against the committed
// baseline of the same scale, matching rows by name:
//
//   - Exact rows (simulated instructions, cycles, latency and exit
//     counts) must equal the baseline. Drift means the simulation changed
//     behaviour: a correctness failure, not a perf one.
//   - A row with a Floor must have its median on the Better side of it.
//   - A ratio row (unit "x") without a floor must stay within 20% of the
//     baseline median. Both arms of a ratio are timed in one process,
//     interleaved, so ratios port across hosts where absolute seconds,
//     MIPS and req/s (recorded, never gated) do not.
//
// A baseline row missing from the measurement is a violation unless
// this host has too few cores to measure it; those rows are returned as
// skipped. The error names every violating row.
func CheckHostRegression(baseline, current HostResult) (skipped []string, err error) {
	skipped = coreBoundRows(current.HostCores)
	base := make(map[string]Row, len(baseline.Rows))
	for _, b := range baseline.Rows {
		base[b.Name] = b
	}
	cur := make(map[string]bool, len(current.Rows))
	var errs []error
	for _, r := range current.Rows {
		cur[r.Name] = true
		b, ok := base[r.Name]
		switch {
		case r.Better == Exact:
			if ok && r.Median != b.Median {
				errs = append(errs, fmt.Errorf("%s: %.0f %s, baseline %.0f: simulation fingerprint diverged",
					r.Name, r.Median, r.Unit, b.Median))
			}
		case r.Floor != 0:
			if worse(r.Better, r.Median, r.Floor) {
				errs = append(errs, fmt.Errorf("%s: %.2f%s (spread %.2f) beyond the %.2f%s floor",
					r.Name, r.Median, r.Unit, r.Spread, r.Floor, r.Unit))
			}
		case r.Unit == "x" && ok:
			limit := b.Median * (1 - ratioBound)
			if r.Better == Lower {
				limit = b.Median * (1 + ratioBound)
			}
			if worse(r.Better, r.Median, limit) {
				errs = append(errs, fmt.Errorf("%s: %.2fx (spread %.2f) regressed >20%% from baseline %.2fx",
					r.Name, r.Median, r.Spread, b.Median))
			}
		}
	}
	for _, b := range baseline.Rows {
		if !cur[b.Name] && !slices.Contains(skipped, b.Name) {
			errs = append(errs, fmt.Errorf("%s: in the baseline but not measured", b.Name))
		}
	}
	return skipped, errors.Join(errs...)
}

// worse reports whether v lies on the wrong side of limit for better.
func worse(better string, v, limit float64) bool {
	if better == Lower {
		return v > limit
	}
	return v < limit
}

// sampleRounds runs round Rounds times. Each call times every arm of a
// comparison once, so the arms interleave and share whatever else the
// host is doing; round reports one value per metric through add. The
// result holds each metric's per-round values.
func sampleRounds(round func(add func(metric string, v float64)) error) (map[string][]float64, error) {
	vals := map[string][]float64{}
	add := func(metric string, v float64) { vals[metric] = append(vals[metric], v) }
	for i := 0; i < Rounds; i++ {
		if err := round(add); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// quartiles returns the median of xs and its inter-quartile distance,
// quartiles interpolated between closest ranks.
func quartiles(xs []float64) (median, spread float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	q := func(p float64) float64 {
		i := p * float64(len(s)-1)
		lo := int(i)
		if lo == len(s)-1 {
			return s[lo]
		}
		return s[lo] + (i-float64(lo))*(s[lo+1]-s[lo])
	}
	return q(0.5), q(0.75) - q(0.25)
}

// timed summarises per-round samples as a row.
func timed(name, layer, unit, better string, xs []float64) Row {
	median, spread := quartiles(xs)
	return Row{Name: name, Layer: layer, Unit: unit, Better: better, Median: median, Spread: spread, N: len(xs)}
}

// exact records a simulation-domain fingerprint value.
func exact(name, layer, unit string, v uint64) Row {
	return Row{Name: name, Layer: layer, Unit: unit, Better: Exact, Median: float64(v), N: 1}
}

type hostSample struct {
	instr   uint64
	cycles  uint64
	seconds float64
	fp      hart.FastPathStats // engine counters at completion (zero for slow)
}

// Engine names accepted by runHostOnce.
const (
	EngineSlow  = "slow"  // pure interpreter
	EngineFast  = "fast"  // per-instruction fast path (PR 3)
	EngineBlock = "block" // superblock dispatch with event-horizon batching (PR 5)
	EngineTrace = "trace" // compiled-trace dispatch on top of superblocks (PR 8)
)

// runHostOnce boots a fresh stack with the selected engine and drives the
// kernel to completion inside a CVM, timing only the guest run.
func runHostOnce(k workloads.Kernel, scale int, engine string) (hostSample, error) {
	oldFP, oldSB, oldTC := hart.DefaultFastPath, hart.DefaultSuperblocks, hart.DefaultTraces
	hart.DefaultFastPath = engine != EngineSlow
	hart.DefaultSuperblocks = engine == EngineBlock || engine == EngineTrace
	hart.DefaultTraces = engine == EngineTrace
	defer func() {
		hart.DefaultFastPath, hart.DefaultSuperblocks, hart.DefaultTraces = oldFP, oldSB, oldTC
	}()

	e := NewEnv(EnvConfig{SM: sm.Config{SchedQuantum: rv8TickQuantum()}})
	img := workloads.Program(k, scale)
	cvm, err := e.HV.CreateCVM(e.H, k.Name, img, hv.GuestRAMBase)
	if err != nil {
		return hostSample{}, err
	}
	i0 := e.H.Instret
	// Finish collecting now: a cycle the boot's allocations start (the
	// armed observability sink's rings especially) otherwise runs on
	// into the timed region of whichever arm triggered it.
	runtime.GC()
	t0 := time.Now()
	if _, _, err := e.RunCVMToCompletion(cvm); err != nil {
		return hostSample{}, err
	}
	return hostSample{
		instr:   e.H.Instret - i0,
		cycles:  e.H.Cycles,
		seconds: time.Since(t0).Seconds(),
		fp:      e.H.FastPathStats(),
	}, nil
}

// hostAES returns the T1 aes kernel and its host-benchmark scale: the
// paper-table scale retires only ~3.5M instructions, so it is stretched
// 8x to amortise one-time work (stage-2 demand faults, page decodes).
func hostAES(scaleDiv int) (workloads.Kernel, int) {
	for _, k := range workloads.RV8() {
		if k.Name == "aes" {
			return k, hostScale(k.DefaultScale*8, scaleDiv)
		}
	}
	panic("bench: RV8 suite has no aes kernel")
}

// hostScale divides a workload scale like the other experiments
// (scaleDiv 1 = full paper scale), never below 8.
func hostScale(scale, scaleDiv int) int {
	return max(scale/max(scaleDiv, 1), 8)
}

// RunHost measures the host benchmark ledger at 1/scaleDiv scale: the
// engine tiers, trace amortization, the observability plane, the
// multi-hart sweep and the serving data plane. Each producer errors on
// any simulated divergence between the arms it compares — the
// bit-identity guarantee, enforced where the numbers are produced.
func RunHost(scaleDiv int) (HostResult, error) {
	res := HostResult{HostCores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	for _, part := range []func(int) ([]Row, error){engineRows, observabilityRows, parallelRows, servingRows} {
		rows, err := part(scaleDiv)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// hostEngines is the order a round times the engines in.
var hostEngines = []string{EngineTrace, EngineBlock, EngineFast, EngineSlow}

// engineRows times the T1 aes and E4 CoreMark CVM drivers under all four
// engines, and records whether trace compilation pays for itself: the
// ops each compiled page retires must clear the break-even of its
// one-time compile cost against the per-op saving over the superblock
// engine, or the workloads compile pages they never amortize.
func engineRows(scaleDiv int) ([]Row, error) {
	aes, aesScale := hostAES(scaleDiv)
	cm := workloads.Coremark()
	kernels := []struct {
		workloads.Kernel
		scale int
	}{{aes, aesScale}, {cm, hostScale(cm.DefaultScale, scaleDiv)}}

	var rows []Row
	var compiled, traceOps uint64
	var savedSeconds float64
	for _, k := range kernels {
		var ref *hostSample
		var tc hart.FastPathStats
		vals, err := sampleRounds(func(add func(string, float64)) error {
			secs := map[string]float64{}
			for _, engine := range hostEngines {
				s, err := runHostOnce(k.Kernel, k.scale, engine)
				if err != nil {
					return fmt.Errorf("%s %s: %w", k.Name, engine, err)
				}
				if ref == nil {
					ref = &s
				} else if s.cycles != ref.cycles || s.instr != ref.instr {
					return fmt.Errorf("%s: %s engine diverged: cycles %d vs %d, instret %d vs %d",
						k.Name, engine, s.cycles, ref.cycles, s.instr, ref.instr)
				}
				if engine == EngineTrace {
					tc = s.fp
				}
				secs[engine] = s.seconds
				add(engine+"_mips", float64(s.instr)/s.seconds/1e6)
			}
			add("fast_speedup", secs[EngineSlow]/secs[EngineFast])
			add("block_speedup", secs[EngineSlow]/secs[EngineBlock])
			add("trace_speedup", secs[EngineSlow]/secs[EngineTrace])
			add("trace_over_block", secs[EngineBlock]/secs[EngineTrace])
			add("saved_seconds", secs[EngineBlock]-secs[EngineTrace])
			return nil
		})
		if err != nil {
			return nil, err
		}
		p := k.Name + "."
		rows = append(rows,
			exact(p+"instructions", "hart", "instr", ref.instr),
			exact(p+"cycles", "hart", "cycles", ref.cycles))
		for _, engine := range hostEngines {
			rows = append(rows, timed(p+engine+"_mips", "hart", "MIPS", Higher, vals[engine+"_mips"]))
		}
		for _, m := range []string{"fast_speedup", "block_speedup", "trace_speedup"} {
			rows = append(rows, timed(p+m, "hart", "x", Higher, vals[m]))
		}
		tob := timed(p+"trace_over_block", "hart", "x", Higher, vals["trace_over_block"])
		tob.Floor = MinTraceOverBlockFloor
		rows = append(rows, tob)
		compiled += tc.TCCompiles
		traceOps += tc.TCOps
		saved, _ := quartiles(vals["saved_seconds"])
		savedSeconds += saved
	}
	if compiled > 0 {
		amort := Row{Name: "trace.ops_per_compiled_page", Layer: "hart", Unit: "ops", Better: Higher,
			Median: float64(traceOps) / float64(compiled), N: 1}
		if savedNsPerOp := savedSeconds * 1e9 / float64(traceOps); savedNsPerOp > 0 {
			amort.Floor = hart.TraceCompileCost(256) / savedNsPerOp
		}
		rows = append(rows, amort)
	}
	return rows, nil
}

// observabilityRows measures what arming the observability plane — the
// cycle-domain sampling profiler at its default period, attribution and
// the flight recorder, which ride along whenever a sink is armed — costs
// in host throughput on the seeded aes run, and re-proves that an armed
// run is bit-identical to an unarmed one.
func observabilityRows(scaleDiv int) ([]Row, error) {
	k, scale := hostAES(scaleDiv)
	// The measurement flips the shared bench sink; restore the caller's
	// arming (zionbench may be exporting a trace or profile of the run).
	savedSink, savedEnvs := benchSink, telEnvs
	defer func() { benchSink, telEnvs = savedSink, savedEnvs }()
	vals, err := sampleRounds(func(add func(string, float64)) error {
		SetTelemetry(nil)
		off, err := runHostOnce(k, scale, EngineBlock)
		if err != nil {
			return fmt.Errorf("observability off: %w", err)
		}
		SetTelemetry(telemetry.New(telemetry.Config{ProfilePeriod: telemetry.DefaultProfilePeriod}))
		armed, err := runHostOnce(k, scale, EngineBlock)
		SetTelemetry(nil)
		if err != nil {
			return fmt.Errorf("observability armed: %w", err)
		}
		if armed.cycles != off.cycles || armed.instr != off.instr {
			return fmt.Errorf("observability-armed run diverged: cycles %d vs %d, instret %d vs %d",
				armed.cycles, off.cycles, armed.instr, off.instr)
		}
		// Positive = armed is slower.
		add("overhead_pct", (1-off.seconds/armed.seconds)*100)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r := timed("observability.overhead_pct", "telemetry", "%", Lower, vals["overhead_pct"])
	r.Floor = MaxObservabilityOverheadPct
	return []Row{r}, nil
}
