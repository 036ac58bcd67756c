// Command benchmark measures the host cost of simulating ZION: five
// workloads, each exercising different layers of the simulator, with
// end-to-end metrics from untraced runs and per-layer metrics from a
// traced run. See README.md for the workloads, metrics and protocol.
//
// One run:   benchmark --workload cpu --seed 42 --seconds 20 --trace 0
// A suite:   benchmark [--workload cpu,exits] [--runs 5] [--json FILE]
//
// A single run prints a report and, as its last line, one JSON object
// with the keys correct, attempted, failed and metrics. A suite runs each
// selected workload --runs times untraced and once traced, each run in a
// fresh child process, one after another, and summarises them.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, each timing the median
// over the run's rounds scaled to refSpeed. host_ops_per_s counts the
// workload's own unit of work: simulated instructions (cpu, parallel),
// MMIO exits (exits), stage-2 faults (faults) or requests (serving).
var endToEnd = []metricDef{
	{"host_ops_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run.
var perLayer = append([]metricDef{
	{"hart.ns_per_instr", "ns", "lower"},
	{"hart.trace_ops_frac", "frac", "higher"},
	{"hart.trace_bailouts", "count", "lower"},
	{"hart.horizon_cutoffs", "count", "lower"},
	{"hart.fetch_hit_rate", "frac", "higher"},
	{"hart.trace_ns_per_instr", "ns", "lower"},
	{"hart.block_ns_per_instr", "ns", "lower"},
	{"hart.fast_ns_per_instr", "ns", "lower"},
	{"hart.slow_ns_per_instr", "ns", "lower"},
	{"hart.trace_compile_ns_per_page", "ns", "lower"},
	{"isa.decode_ns", "ns", "lower"},
	{"mem.read_ns", "ns", "lower"},
	{"mem.write_ns", "ns", "lower"},
	{"mem.copy_ns_per_kib", "ns", "lower"},
	{"tlb.lookups", "count", "lower"},
	{"tlb.hit_rate", "frac", "higher"},
	{"tlb.lookup_ns", "ns", "lower"},
	{"ptw.walks", "count", "lower"},
	{"ptw.steps_per_walk", "count", "lower"},
	{"ptw.walk_ns", "ns", "lower"},
	{"pmp.checks", "count", "lower"},
	{"pmp.check_ns", "ns", "lower"},
	{"sm.exits", "count", "lower"},
	{"sm.gate_calls", "count", "lower"},
	{"sm.host_ns_per_exit", "ns", "lower"},
	{"sm.faults", "count", "lower"},
	{"sm.host_ns_per_fault", "ns", "lower"},
	{"sm.destroy_us", "us", "lower"},
	{"sm.destroy_us.tail", "us", "lower"},
	{"sm.destroy_us.n", "count", "higher"},
	{"hv.mmio_exits", "count", "lower"},
	{"hv.create_cvm_us", "us", "lower"},
	{"hv.create_cvm_us.tail", "us", "lower"},
	{"hv.create_cvm_us.n", "count", "higher"},
	{"hv.run_cvm_us", "us", "lower"},
	{"hv.run_cvm_us.tail", "us", "lower"},
	{"hv.run_cvm_us.n", "count", "higher"},
	{"virtio.doorbells_per_req", "count", "lower"},
	{"virtio.irqs_per_req", "count", "lower"},
	{"virtio.pump_ns_per_req", "ns", "lower"},
	{"guest.pool_hwm", "count", "lower"},
	{"guest.bounce_ns", "ns", "lower"},
	{"telemetry.observe_ns", "ns", "lower"},
	{"telemetry.profiler_overhead_pct", "%", "lower"},
	{"platform.epochs", "count", "lower"},
	{"platform.cross_ops", "count", "lower"},
	{"platform.par_over_seq", "ratio", "lower"},
	{"platform.barrier_us_per_epoch", "us", "lower"},
	{"go.alloc_bytes_per_op", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_cpu_frac", "frac", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.profile_samples", "count", "higher"},
	{"host.raw_ops_per_s", "1/s", "higher"},
	{"host.probe_steps_per_s", "1/s", "higher"},
}, cpuShareDefs()...)

func cpuShareDefs() []metricDef {
	var d []metricDef
	for _, l := range profileLayers {
		d = append(d, metricDef{l + ".cpu_share", "frac", "lower"})
	}
	return d
}

// metric and result are the JSON a single run prints last.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	out     string // directory for spans and profiles ("" = write none)
	sz      sizes
	layers  layerScale
}

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workloads (default: all)")
		seed    = flag.Uint64("seed", 42, "seed of the serving request mix")
		seconds = flag.Float64("seconds", 20, "seconds each run measures")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		runs    = flag.Int("runs", 0, "untraced runs per workload in a suite (default 5; a single named workload without --runs is one run)")
		jsonOut = flag.String("json", "", "suite: write every result to this file")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for span and profile files")
	)
	flag.Parse()
	ws, err := selectWorkloads(*names)
	if err == nil && (*trace < 0 || *trace > 1 || !(*seconds > 0)) {
		err = errors.New("--trace must be 0 or 1 and --seconds positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *outDir, sz: standardSizes, layers: 1}
	if len(ws) == 1 && *runs == 0 {
		os.Exit(single(ws[0], o))
	}
	if *runs <= 0 {
		*runs = 5
	}
	if err := suite(ws, o, *runs, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func selectWorkloads(names string) ([]workload, error) {
	all := allWorkloads()
	if names == "" {
		return all, nil
	}
	var ws []workload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.name == n {
				ws = append(ws, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return ws, nil
}

// stamp describes the host and build the numbers come from.
func stamp() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"host_cores": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
	}
}

// single performs one run, prints its report and result, and returns the
// process exit code.
func single(w workload, o options) int {
	st := stamp()
	fmt.Printf("zion benchmark: workload %s, seed %d, %g s, trace %v\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Printf("host: %d cores, GOMAXPROCS %d, %s, commit %s; %d hart(s)\n",
		st["host_cores"], st["gomaxprocs"], st["go_version"], st["commit"], w.harts)
	fmt.Printf("why: %s\n", w.why)
	res, report, err := run(w, o)
	for _, l := range report {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", jerr)
		return 1
	}
	fmt.Println(string(b))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// measure runs rounds of w until seconds have passed (at least one),
// checking each round's fingerprint against the recorded one, or against
// the first round's where none is recorded for these sizes and seed.
// Every round follows a speed probe and starts from a collected heap, so
// no round pays for the garbage of the probe or the round before, and
// from a reset peak resident set, so the round's own peak can be read.
func measure(w workload, c *runCtx, seconds float64) ([]round, error) {
	ref, haveRef := reference(w, c)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var rounds []round
	for len(rounds) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		speed := probeSpeed()
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return rounds, err
		}
		g0 := readGo()
		sp := c.tr.beginRound()
		r, err := w.round(c)
		c.tr.endRound(sp)
		if err == nil {
			r.rss, err = peakRSSMB()
		}
		if err != nil {
			return rounds, fmt.Errorf("%s round %d: %w", w.name, len(rounds)+1, err)
		}
		r.rt = readGo().sub(g0)
		r.speed = speed
		if !haveRef {
			ref, haveRef = r.fp, true
		}
		if r.fp != ref {
			return rounds, fmt.Errorf("%s round %d: fingerprint %+v, want %+v", w.name, len(rounds)+1, r.fp, ref)
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

// rate is the round's ops per host second as measured.
func (r round) rate() float64 { return div(float64(r.ops), r.work.Seconds()) }

// refRate and refSetup scale the round's rate and set-up time to
// refSpeed by the probe taken just before the round.
func (r round) refRate() float64  { return r.rate() * refSpeed / r.speed }
func (r round) refSetup() float64 { return r.setup.Seconds() * r.speed / refSpeed }

// each returns f of every round.
func each(rounds []round, f func(round) float64) []float64 {
	v := make([]float64, len(rounds))
	for i, r := range rounds {
		v[i] = f(r)
	}
	return v
}

// run performs one run of w and returns its result and report lines.
func run(w workload, o options) (result, []string, error) {
	c := &runCtx{sz: o.sz, seed: o.seed, sums: map[string]uint64{}}
	res := result{Metrics: map[string]metric{}}
	fail := func(rounds []round, err error) (result, []string, error) {
		res.Attempted += len(rounds) + 1
		res.Failed++
		return res, nil, err
	}
	if !o.trace {
		rounds, err := measure(w, c, o.seconds)
		if err != nil {
			return fail(rounds, err)
		}
		vals := map[string]float64{
			"host_ops_per_s": median(each(rounds, round.refRate)),
			"setup_s":        median(each(rounds, round.refSetup)),
			"peak_rss_mb":    median(each(rounds, func(r round) float64 { return r.rss })),
		}
		res.Attempted = len(rounds)
		report := roundReport(w, rounds)
		report = append(report, fmt.Sprintf("%-32s %14.6g %s", w.alias, vals["host_ops_per_s"]*w.aliasScale, w.aliasUnit))
		gm := goMetrics(rounds)
		for _, k := range []string{"go.alloc_bytes_per_op", "go.gc_cycles", "go.gc_cpu_frac"} {
			report = append(report, fmt.Sprintf("%-32s %14.6g", k, gm[k]))
		}
		return complete(res, report, endToEnd, vals)
	}

	// Traced run: untraced rounds first (the baseline of trace.overhead_pct
	// and the source of the go.* rows), then traced rounds under spans and
	// a CPU profile, then the isolated layer drivers.
	plain, err := measure(w, c, o.seconds/2)
	if err != nil {
		return fail(plain, err)
	}
	vals := goMetrics(plain)
	vals["host.raw_ops_per_s"] = median(each(plain, round.rate))
	vals["host.probe_steps_per_s"] = median(each(plain, func(r round) float64 { return r.speed }))
	res.Attempted = len(plain)
	vals["platform.par_over_seq"] = 0
	if w.name == "parallel" {
		if vals["platform.par_over_seq"], err = parOverSeq(c, plain); err != nil {
			return fail(nil, err)
		}
	}
	c.tr = newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fail(nil, err)
	}
	traced, err := measure(w, c, o.seconds/2)
	pprof.StopCPUProfile()
	res.Attempted += len(traced)
	if err != nil {
		return fail(nil, err)
	}
	shares, samples, err := profileShares(prof.Bytes())
	if err != nil {
		return fail(nil, err)
	}
	for l, v := range shares {
		vals[l+".cpu_share"] = v
	}
	vals["trace.profile_samples"] = float64(samples)
	vals["trace.overhead_pct"] = (median(each(plain, round.refRate))/median(each(traced, round.refRate)) - 1) * 100
	for k, v := range traced[len(traced)-1].counts {
		vals[k] = v
	}
	spans, notes := spanMetrics(c.tr, traced)
	for k, v := range spans {
		vals[k] = v
	}
	ld, err := layerDrivers(o.layers)
	if err != nil {
		return fail(nil, err)
	}
	for k, v := range ld {
		vals[k] = v
	}
	if err := writeTraceFiles(o.out, w.name, c.tr, prof.Bytes()); err != nil {
		return fail(nil, err)
	}
	report := append(roundReport(w, traced), notes...)
	report = append(report, fmt.Sprintf("profile: %d samples, %.1f%% charged to named layers",
		samples, (1-shares["other"])*100))
	return complete(res, report, perLayer, vals)
}

// complete copies the values of defs into res and marks it correct when
// every one was measured as a finite number.
func complete(res result, report []string, defs []metricDef, vals map[string]float64) (result, []string, error) {
	report = append(report, fillMetrics(&res, defs, vals)...)
	if err := checkMetrics(res, defs); err != nil {
		res.Failed++
		return res, report, err
	}
	res.Correct = true
	return res, report, nil
}

// parOverSeq compares the fastest parallel round with the fastest of
// three runs of the same runners one after another.
func parOverSeq(c *runCtx, par []round) (float64, error) {
	var seq time.Duration
	for i := 0; i < 3; i++ {
		d, fp, err := sequentialParallel(c)
		if err == nil && fp != par[0].fp {
			err = fmt.Errorf("sequential run fingerprint %+v, parallel %+v", fp, par[0].fp)
		}
		if err != nil {
			return 0, err
		}
		if seq == 0 || d < seq {
			seq = d
		}
	}
	fastest := par[0].work
	for _, r := range par {
		fastest = min(fastest, r.work)
	}
	return fastest.Seconds() / seq.Seconds(), nil
}

// roundReport summarises the rounds of one phase.
func roundReport(w workload, rounds []round) []string {
	ref, raw := each(rounds, round.refRate), each(rounds, round.rate)
	speed := each(rounds, func(r round) float64 { return r.speed })
	fp, _ := json.Marshal(rounds[0].fp)
	return []string{
		fmt.Sprintf("%d rounds of %d %ss each, %ss/s at the reference speed: median %.6g, q1 %.6g, q3 %.6g",
			len(rounds), rounds[0].ops, w.op, w.op, median(ref), quantile(ref, 0.25), quantile(ref, 0.75)),
		fmt.Sprintf("as measured: median %.6g %ss/s; speed probe median %.4g steps/s (reference %.4g)",
			median(raw), w.op, median(speed), float64(refSpeed)),
		"fingerprint " + string(fp),
	}
}

// fillMetrics copies the values of defs into res and returns report lines.
func fillMetrics(res *result, defs []metricDef, vals map[string]float64) []string {
	var lines []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		lines = append(lines, fmt.Sprintf("%-32s %14.6g %s", d.name, v, d.unit))
	}
	return lines
}

// checkMetrics reports a metric the run did not produce or could not
// express as a finite number.
func checkMetrics(res result, defs []metricDef) error {
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	return nil
}

// resetPeakRSS sets the process's peak resident set (VmHWM) back to its
// current resident set. The peak of a whole run is the rare round in which
// the garbage collector finished late, and it moved by 10% between runs;
// the median of the rounds' own peaks moved by 1%.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err == nil {
		_, err = f.Write([]byte("5"))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// writeTraceFiles writes the spans and the CPU profile of a traced run.
func writeTraceFiles(dir, name string, tr *tracer, profile []byte) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tr.mu.Lock()
	b, err := json.Marshal(tr.spans)
	tr.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".spans.json"), b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".cpu.pprof"), profile, 0o644)
}

// summary is the spread of one metric over a suite's runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// suite runs each workload in fresh child processes, one at a time:
// runs untraced, then one traced.
func suite(ws []workload, o options, runs int, jsonPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	type record struct {
		Workload string `json:"workload"`
		Trace    bool   `json:"trace"`
		Result   result `json:"result"`
	}
	var records []record
	summaries := map[string]map[string]summary{}
	failed := 0
	for _, w := range ws {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i <= runs; i++ {
			trace, traceFlag := i == runs, "0"
			if trace {
				traceFlag = "1"
			}
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", traceFlag, "-out", o.out)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			res, perr := lastResult(stdout.Bytes())
			records = append(records, record{Workload: w.name, Trace: trace, Result: res})
			if runErr != nil || perr != nil || !res.Correct {
				failed++
				fmt.Printf("%s run %d: FAILED (%v %v)\n%s", w.name, i+1, runErr, perr, stdout.String())
				continue
			}
			var parts []string
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.name]; ok {
					values[d.name] = append(values[d.name], m.Value)
					units[d.name] = m.Unit
					parts = append(parts, fmt.Sprintf("%s=%.6g", d.name, m.Value))
				}
			}
			if trace {
				for k, m := range res.Metrics {
					values[k] = append(values[k], m.Value)
					units[k] = m.Unit
				}
				parts = append(parts, fmt.Sprintf("%d per-layer metrics", len(res.Metrics)))
			}
			fmt.Printf("%-8s run %d/%d trace=%v: %s\n", w.name, i+1, runs+1, trace, strings.Join(parts, " "))
		}
		sums := map[string]summary{}
		for k, v := range values {
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			sums[k] = summary{Median: median(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
				Min: s[0], Max: s[len(s)-1], N: len(s), Unit: units[k]}
		}
		summaries[w.name] = sums
		for _, d := range endToEnd {
			if s, ok := sums[d.name]; ok {
				fmt.Printf("%-8s %-16s median %-12.6g q1 %-12.6g q3 %-12.6g min %-12.6g max %-12.6g n %d %s\n",
					w.name, d.name, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N, s.Unit)
			}
		}
	}
	total := time.Since(start).Seconds()
	fmt.Printf("suite: %d workloads x %d runs in %.0f s, %d failed\n", len(ws), runs+1, total, failed)
	if jsonPath != "" {
		doc := map[string]any{
			"stamp": stamp(), "seed": o.seed, "seconds": o.seconds, "runs": runs,
			"total_seconds": total, "failed": failed, "summary": summaries, "results": records,
		}
		b, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}

// lastResult parses the result JSON a run prints as its last line.
func lastResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
