// Command zionbench regenerates every table and figure of the paper's
// evaluation (§V) plus the design ablations. Experiments are selected
// with -e (comma-separated ids) and default to the full set.
//
//	e1  §V.B.1  shared-vCPU world-switch optimization
//	e2  §V.B.2  short-path vs long-path world switch
//	e3  §V.C    stage-2 page-fault handling per allocation stage
//	t1  Table I RV8 suite, normal VM vs confidential VM
//	e4  §V.D    CoreMark-like score
//	f3  Fig. 3  Redis-like throughput and latency
//	f4  Fig. 4  IOZone-like sequential I/O sweep
//	a1  ablation: concurrency vs region-based isolation
//	a2  ablation: split page table vs synchronized sharing
//	a3  ablation: hierarchical allocator stage distribution
//	a4  ablation: shared-subtable entry revalidation cost
//	fi  robustness: seeded fault-injection campaign sweep
//	fic robustness: compartment-compromise campaign (blast radius)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"zion/internal/bench"
	"zion/internal/faultinject"
	"zion/internal/monitor"
	"zion/internal/telemetry"
	"zion/internal/workloads"
)

// experiments is the authoritative -e vocabulary, in run order.
var experiments = []struct{ ID, Desc string }{
	{"e1", "§V.B.1 shared-vCPU world-switch optimization"},
	{"e2", "§V.B.2 short-path vs long-path world switch"},
	{"e3", "§V.C stage-2 page-fault handling per allocation stage"},
	{"t1", "Table I RV8 suite, normal VM vs confidential VM"},
	{"e4", "§V.D CoreMark-like score"},
	{"f3", "Fig. 3 Redis-like throughput and latency"},
	{"f4", "Fig. 4 IOZone-like sequential I/O sweep"},
	{"a1", "ablation: concurrency vs region-based isolation"},
	{"a2", "ablation: split page table vs synchronized sharing"},
	{"a3", "ablation: hierarchical allocator stage distribution"},
	{"a4", "ablation: shared-subtable entry revalidation cost"},
	{"fi", "robustness: seeded fault-injection campaign sweep"},
	{"fic", "robustness: compartment-compromise campaign (blast radius)"},
	{"serving", "sustained serving: multi-queue batched virtio data plane"},
}

// experimentIDs returns the vocabulary in run order.
func experimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	return ids
}

// parseExperiments expands a -e selection into the set of experiment ids
// to run. "micro" is an alias for e1,e2,e3; unknown names error with the
// full vocabulary so the message doubles as discovery.
func parseExperiments(sel string) (map[string]bool, error) {
	valid := map[string]bool{}
	for _, e := range experiments {
		valid[e.ID] = true
	}
	want := map[string]bool{}
	for _, e := range strings.Split(sel, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if e == "micro" {
			want["e1"], want["e2"], want["e3"] = true, true, true
			continue
		}
		if !valid[e] {
			return nil, fmt.Errorf("unknown experiment %q\nvalid experiments: %s (plus 'micro' = e1,e2,e3; 'list' prints descriptions)",
				e, strings.Join(experimentIDs(), ", "))
		}
		want[e] = true
	}
	return want, nil
}

// listExperiments prints the vocabulary with one-line descriptions
// (the -e list mode).
func listExperiments(w io.Writer) {
	for _, e := range experiments {
		fmt.Fprintf(w, "%-5s %s\n", e.ID, e.Desc)
	}
	fmt.Fprintln(w, "micro alias for e1,e2,e3")
}

func main() {
	sel := flag.String("e", "e1,e2,e3,t1,e4,f3,f4,a1,a2,a3,a4,fi,fic,serving", "experiments to run ('micro' = e1,e2,e3; 'list' prints them)")
	scaleDiv := flag.Int("scalediv", 1, "divide workload scales (faster, less precise)")
	requests := flag.Int("requests", 200, "redis requests per operation")
	fiSeeds := flag.Int("fiseeds", 5, "fault-injection campaigns (one seed each)")
	fiFaults := flag.Int("fifaults", 500, "faults per fault-injection campaign")
	ficSeed := flag.Int64("ficseed", 1, "compartment-compromise campaign seed")
	ficScenarios := flag.String("ficscenarios", "", "comma-separated compromise scenarios (default: the full matrix)")
	ficReport := flag.String("ficreport", "", "write the compromise-campaign report (post-mortems included) as JSON to FILE")
	servRequests := flag.Uint64("servrequests", 100_000, "serving: total requests across all CVMs")
	servCVMs := flag.Int("servcvms", 8, "serving: concurrent CVMs")
	servQueues := flag.Int("servqueues", 2, "serving: virtio-blk queues per CVM")
	servDepth := flag.Int("servdepth", 16, "serving: outstanding requests per queue")
	servCoalesce := flag.Int("servcoalesce", 16, "serving: interrupt coalescing threshold (1 = IRQ per notify)")
	servSeed := flag.Uint64("servseed", 42, "serving: load-generator seed")
	servHist := flag.String("servhist", "", "serving: write the latency histogram (config, stats, buckets) as JSON to FILE")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file (open in Perfetto)")
	timelineOut := flag.String("timeline", "", "write a plain-text cycle timeline file ('-' = stdout)")
	metrics := flag.Bool("metrics", false, "dump the telemetry metrics registry after the run")
	traceCap := flag.Int("tracecap", 0, "trace ring capacity in events (0 = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a Go CPU profile of the simulator itself")
	memprofile := flag.String("memprofile", "", "write a Go heap profile of the simulator itself")
	hostbench := flag.String("hostbench", "", "measure host MIPS fast vs slow path and write a JSON report to FILE")
	hostdiv := flag.Int("hostdiv", 1, "divide host-bench workload scales (faster, noisier)")
	hostharts := flag.Int("hostharts", 4, "harts for the parallel host-throughput section (0 = skip)")
	quantum := flag.Uint64("quantum", 0, "fixed barrier quantum in simulated cycles for the parallel section (0 = adaptive)")
	hostgate := flag.String("hostgate", "", "gate the fresh host benchmark against baseline JSON FILE; exit nonzero on fingerprint drift or >20% speedup regression")
	profileOut := flag.String("profile", "", "arm the cycle-domain sampling profiler and write folded stacks to FILE (flamegraph/speedscope input)")
	profPeriod := flag.Uint64("profperiod", telemetry.DefaultProfilePeriod, "profiler sampling period in simulated cycles")
	metricsOut := flag.String("metricsout", "", "write the /metrics Prometheus text body to FILE after the run (CI artifact)")
	monitorAddr := flag.String("monitor", "", "serve the live monitor endpoint on ADDR (e.g. :8080; snapshots after each experiment)")
	flag.Parse()

	if strings.TrimSpace(*sel) == "list" {
		listExperiments(os.Stdout)
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	// Simulated-stack observability: one sink shared by every environment
	// the selected experiments boot. The profiler and the monitor endpoint
	// both need a sink; -profile/-monitor arm cycle-domain sampling.
	var sink *telemetry.Sink
	if *traceOut != "" || *timelineOut != "" || *metrics ||
		*profileOut != "" || *metricsOut != "" || *monitorAddr != "" {
		cfg := telemetry.Config{TraceEvents: *traceCap}
		if *profileOut != "" || *monitorAddr != "" {
			cfg.ProfilePeriod = *profPeriod
		}
		sink = telemetry.New(cfg)
		bench.SetTelemetry(sink)
	}

	want, err := parseExperiments(*sel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zionbench: %v\n", err)
		fmt.Fprintln(os.Stderr, "usage: zionbench -e e1,t1,fi [flags]; run with -h for all flags")
		os.Exit(2)
	}
	fail := func(id string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
		os.Exit(1)
	}

	// The monitor endpoint snapshots between experiments — each boundary is
	// a consistent point (no experiment mid-flight), so scrapes observe
	// settled cross-environment state.
	var mon *monitor.Server
	if *monitorAddr != "" || *metricsOut != "" {
		mon = monitor.New(sink, nil) // flight rings are per-machine; see zionvm -monitor
	}
	updateMonitor := func(done bool) {
		if mon == nil {
			return
		}
		var progress []monitor.HartProgress
		id := 0
		for _, e := range bench.Envs() {
			for _, h := range e.M.Harts {
				progress = append(progress, monitor.HartProgress{Hart: id, Cycles: h.Cycles, Done: done})
				id++
			}
		}
		mon.Update(progress)
	}
	if *monitorAddr != "" {
		addr, err := mon.Serve(*monitorAddr)
		if err != nil {
			fail("monitor", err)
		}
		defer mon.Close()
		fmt.Printf("monitor endpoint on http://%s (/metrics /profile /flight /healthz)\n", addr)
	}
	section := func(id, title string) {
		updateMonitor(false)
		fmt.Printf("\n=== %s — %s ===\n", id, title)
	}

	if want["e1"] {
		section("E1", "§V.B.1 shared-vCPU optimization (paper: entry 5293->4191, exit 3267->2524)")
		r, err := bench.RunE1(200)
		if err != nil {
			fail("e1", err)
		}
		for _, l := range r.Rows() {
			fmt.Println(l)
		}
	}
	if want["e2"] {
		section("E2", "§V.B.2 short-path CVM mode (paper: entry 7282->4028, exit 5384->2406)")
		r, err := bench.RunE2(200)
		if err != nil {
			fail("e2", err)
		}
		for _, l := range r.Rows() {
			fmt.Println(l)
		}
	}
	if want["e3"] {
		section("E3", "§V.C stage-2 page faults (paper: normal 39607; CVM 31103/34729/57152, avg 31449)")
		r, err := bench.RunE3(1536)
		if err != nil {
			fail("e3", err)
		}
		for _, l := range r.Rows() {
			fmt.Println(l)
		}
	}
	if want["t1"] {
		section("T1", "Table I: RV8 benchmarks (paper: avg +2.59%)")
		r, err := bench.RunT1(*scaleDiv)
		if err != nil {
			fail("t1", err)
		}
		for _, l := range r.Format() {
			fmt.Println(l)
		}
	}
	if want["e4"] {
		section("E4", "§V.D CoreMark (paper: 2047.6 vs 1992.3, -2.77%)")
		r, err := bench.RunE4(*scaleDiv)
		if err != nil {
			fail("e4", err)
		}
		for _, l := range r.Rows() {
			fmt.Println(l)
		}
	}
	if want["f3"] {
		section("F3", "Fig. 3: Redis-like (paper: throughput -5.3%, latency +4%)")
		r, err := bench.RunF3(*requests)
		if err != nil {
			fail("f3", err)
		}
		for _, l := range r.Format() {
			fmt.Println(l)
		}
	}
	if want["f4"] {
		section("F4", "Fig. 4: IOZone-like sweep (paper: <5% small files, up to 20% large)")
		r, err := bench.RunF4()
		if err != nil {
			fail("f4", err)
		}
		for _, l := range r.Format() {
			fmt.Println(l)
		}
	}
	if want["a1"] {
		section("A1", "ablation: concurrent-enclave scalability")
		r, err := bench.RunA1(64)
		if err != nil {
			fail("a1", err)
		}
		for _, l := range r.Rows() {
			fmt.Println(l)
		}
	}
	if want["a2"] {
		section("A2", "ablation: shared-memory update cost")
		r, err := bench.RunA2(1000)
		if err != nil {
			fail("a2", err)
		}
		for _, l := range r.Rows() {
			fmt.Println(l)
		}
	}
	if want["a4"] {
		section("A4", "ablation: shared-subtable entry revalidation cost")
		r, err := bench.RunA4()
		if err != nil {
			fail("a4", err)
		}
		for _, l := range r.Format() {
			fmt.Println(l)
		}
	}
	if want["a3"] {
		section("A3", "ablation: hierarchical allocator stage distribution")
		r, err := bench.RunA3(4000)
		if err != nil {
			fail("a3", err)
		}
		for _, l := range r.Rows() {
			fmt.Println(l)
		}
	}
	if want["fi"] {
		section("FI", "robustness: seeded fault-injection campaigns")
		fmt.Printf("%-6s %-8s %-8s %-8s %-8s %-12s %-8s %-8s %s\n",
			"seed", "faults", "denied", "masked", "detect", "quarantine", "breach", "leaked", "survived")
		survived := 0
		for seed := 0; seed < *fiSeeds; seed++ {
			r, err := faultinject.Run(faultinject.CampaignConfig{
				Seed: int64(seed), Faults: *fiFaults,
				Telemetry: sink.Scope(),
			})
			if err != nil {
				fail("fi", err)
			}
			if r.Survived() {
				survived++
			}
			fmt.Printf("%-6d %-8d %-8d %-8d %-8d %-12d %-8d %-8d %v\n",
				r.Seed, r.Faults,
				r.Outcomes[faultinject.OutcomeDenied],
				r.Outcomes[faultinject.OutcomeMasked],
				r.Outcomes[faultinject.OutcomeDetected],
				r.Outcomes[faultinject.OutcomeQuarantined],
				r.Outcomes[faultinject.OutcomeBreach]+r.Outcomes[faultinject.OutcomeMissed],
				r.LeakedBlocks, r.Survived())
		}
		fmt.Printf("survived %d/%d campaigns\n", survived, *fiSeeds)
		if survived != *fiSeeds {
			fail("fi", fmt.Errorf("%d campaigns not survived", *fiSeeds-survived))
		}
	}
	if want["fic"] {
		section("FIC", "robustness: compartment-compromise campaign (blast-radius contract)")
		cfg := faultinject.CompromiseConfig{Seed: *ficSeed, Telemetry: sink.Scope()}
		if *ficScenarios != "" {
			for _, name := range strings.Split(*ficScenarios, ",") {
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				sc, ok := faultinject.ScenarioByName(name)
				if !ok {
					var names []string
					for _, s := range faultinject.CompromiseScenarios() {
						names = append(names, s.Name)
					}
					fail("fic", fmt.Errorf("unknown scenario %q (valid: %s)",
						name, strings.Join(names, ", ")))
				}
				cfg.Scenarios = append(cfg.Scenarios, sc)
			}
		}
		rep, err := faultinject.RunCompromise(cfg)
		if err != nil {
			fail("fic", err)
		}
		fmt.Println(rep)
		if *ficReport != "" {
			// The report file is the CI post-mortem artifact: every scenario
			// verdict plus the quarantined compartment's post-mortem record,
			// flattened to plain strings so it marshals losslessly.
			if err := writeCompromiseReport(*ficReport, rep); err != nil {
				fail("fic", err)
			}
			fmt.Printf("wrote compromise report to %s\n", *ficReport)
		}
		if !rep.Survived() {
			fail("fic", fmt.Errorf("compromise campaign not survived"))
		}
	}

	if want["serving"] {
		section("SERVING", "sustained serving: multi-queue, batched, coalesced virtio data plane")
		cfg := bench.ServingBenchConfig(*servRequests)
		cfg.CVMs = *servCVMs
		cfg.Queues = *servQueues
		cfg.Depth = *servDepth
		cfg.Coalesce = *servCoalesce
		cfg.Seed = *servSeed
		st, err := bench.RunServingOnce(cfg)
		if err != nil {
			fail("serving", err)
		}
		// Rerun on a fresh stack: the serving fingerprint (cycles, exits,
		// latency histogram) must be bit-identical for the same seed.
		st2, err := bench.RunServingOnce(cfg)
		if err != nil {
			fail("serving", err)
		}
		if st.Cycles != st2.Cycles || st.Hist.Count() != st2.Hist.Count() ||
			st.Hist.Sum() != st2.Hist.Sum() ||
			st.DoorbellExits != st2.DoorbellExits || st.IRQAckExits != st2.IRQAckExits {
			fail("serving", fmt.Errorf("non-deterministic rerun: cycles %d vs %d, hist (%d,%d) vs (%d,%d)",
				st.Cycles, st2.Cycles, st.Hist.Count(), st.Hist.Sum(), st2.Hist.Count(), st2.Hist.Sum()))
		}
		fmt.Printf("%d requests (%d reads, %d writes) x%d CVMs x%d queues, depth %d, coalesce %d, seed %d\n",
			st.Requests, st.Reads, st.Writes, cfg.CVMs, cfg.Queues, cfg.Depth, cfg.Coalesce, cfg.Seed)
		fmt.Printf("%d simulated cycles, %.0f host req/s; deterministic rerun OK\n",
			st.Cycles, float64(st.Requests)/st.HostSeconds)
		fmt.Printf("latency cycles: p50 %d, p99 %d, mean %.0f (min %d, max %d)\n",
			st.P50, st.P99, st.Mean, st.Hist.Min(), st.Hist.Max())
		fmt.Printf("%d doorbell exits, %d IRQ-ack exits; %d IRQs fired, %d suppressed; pool HWM %d/%d slots\n",
			st.DoorbellExits, st.IRQAckExits, st.IRQsFired, st.IRQsSuppressed, st.PoolHWM, st.PoolSlots)
		if *servHist != "" {
			artifact := struct {
				Config    workloads.ServingConfig `json:"config"`
				Stats     *workloads.ServingStats `json:"stats"`
				Quantiles map[string]uint64       `json:"quantiles_cycles"`
				Buckets   []telemetry.HistBucket  `json:"latency_buckets"`
			}{
				Config: cfg,
				Stats:  st,
				Quantiles: map[string]uint64{
					"p10": st.Hist.Quantile(0.10), "p25": st.Hist.Quantile(0.25),
					"p50": st.P50, "p75": st.Hist.Quantile(0.75),
					"p90": st.Hist.Quantile(0.90), "p95": st.Hist.Quantile(0.95),
					"p99": st.P99, "p999": st.Hist.Quantile(0.999),
				},
				Buckets: st.Hist.Export(),
			}
			data, err := json.MarshalIndent(artifact, "", "  ")
			if err != nil {
				fail("serving", err)
			}
			if err := os.WriteFile(*servHist, append(data, '\n'), 0o644); err != nil {
				fail("serving", err)
			}
			fmt.Printf("wrote latency histogram to %s\n", *servHist)
		}
	}

	if *hostbench != "" || *hostgate != "" {
		section("HOST", "host-side throughput: compiled traces vs superblock vs per-instruction fast path vs pure interpreter")
		r, err := bench.RunHost(*hostdiv)
		if err != nil {
			fail("host", err)
		}
		if *hostharts > 0 {
			// The multi-hart section doubles as a determinism check: it
			// errors out unless the parallel run's per-hart fingerprints
			// are bit-identical to the sequential reference.
			p, err := bench.RunParallelHost(*hostdiv, *hostharts, bench.ParallelBenchConfig{Quantum: *quantum})
			if err != nil {
				fail("host", err)
			}
			r.Parallel = &p
		}
		for _, l := range r.Format() {
			fmt.Println(l)
		}
		if *hostbench != "" {
			data, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				fail("host", err)
			}
			if err := os.WriteFile(*hostbench, append(data, '\n'), 0o644); err != nil {
				fail("host", err)
			}
			fmt.Printf("wrote host benchmark to %s\n", *hostbench)
		}
		if *hostgate != "" {
			data, err := os.ReadFile(*hostgate)
			if err != nil {
				fail("hostgate", err)
			}
			var baseline bench.HostResult
			if err := json.Unmarshal(data, &baseline); err != nil {
				fail("hostgate", err)
			}
			if err := bench.CheckHostRegression(baseline, r); err != nil {
				fail("hostgate", err)
			}
			fmt.Printf("host gate passed against %s\n", *hostgate)
		}
	}

	if sink != nil {
		// Settle attribution so per-CVM cells sum exactly to hart totals
		// (this also flushes each hart's profiler cursor to the same cycle).
		bench.FlushTelemetry()
		updateMonitor(true)
		if *profileOut != "" {
			f, err := os.Create(*profileOut)
			if err != nil {
				fail("profile", err)
			}
			sink.ExportFoldedProfile(f)
			if err := f.Close(); err != nil {
				fail("profile", err)
			}
			fmt.Printf("wrote folded profile to %s (flamegraph.pl / speedscope input)\n", *profileOut)
		}
		if *metricsOut != "" {
			if err := os.WriteFile(*metricsOut, mon.Metrics(), 0o644); err != nil {
				fail("metricsout", err)
			}
			fmt.Printf("wrote metrics snapshot to %s\n", *metricsOut)
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fail("trace", err)
			}
			if err := sink.ExportChromeTrace(f); err != nil {
				fail("trace", err)
			}
			if err := f.Close(); err != nil {
				fail("trace", err)
			}
			fmt.Printf("\nwrote Chrome trace to %s (open at https://ui.perfetto.dev)\n", *traceOut)
		}
		if *timelineOut != "" {
			w := os.Stdout
			if *timelineOut != "-" {
				f, err := os.Create(*timelineOut)
				if err != nil {
					fail("timeline", err)
				}
				defer f.Close()
				w = f
			}
			if err := sink.ExportTimeline(w); err != nil {
				fail("timeline", err)
			}
		}
		if *metrics {
			fmt.Println("\n=== telemetry metrics ===")
			sink.Registry.Dump(os.Stdout)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail("memprofile", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail("memprofile", err)
		}
	}
}

// ficPostMortem is the JSON view of a quarantined compartment's
// post-mortem record: errors and typed enums flattened to strings so the
// CI artifact is lossless and greppable.
type ficPostMortem struct {
	Compartment string
	Cause       string
	Op          string
	Cycle       uint64
	Hart        int
	Epoch       uint64
	Salvage     string `json:",omitempty"`
	// Flight is the faulting hart's flight-recorder tail: the last
	// high-level events (traps, gates, world switches) before quarantine.
	Flight []string `json:",omitempty"`
}

// ficResult is the JSON view of one compromise-scenario verdict.
type ficResult struct {
	Scenario         string
	Class            string
	Target           string
	OK               bool
	Detail           string `json:",omitempty"`
	Quarantined      bool
	BitIdentical     bool
	GateDenied       uint64
	LeakedBlocks     int
	SurvivorFindings []string       `json:",omitempty"`
	PostMortem       *ficPostMortem `json:",omitempty"`
}

// writeCompromiseReport serializes a compromise campaign as JSON — the
// post-mortem artifact CI uploads when a blast-radius assertion fails.
func writeCompromiseReport(path string, rep *faultinject.CompromiseReport) error {
	type ficReportJSON struct {
		Seed     int64
		Survived bool
		Results  []ficResult
	}
	out := ficReportJSON{Seed: rep.Seed, Survived: rep.Survived()}
	for _, res := range rep.Results {
		r := ficResult{
			Scenario:     res.Scenario,
			Class:        res.Class.String(),
			Target:       res.Target.String(),
			OK:           res.OK,
			Detail:       res.Detail,
			Quarantined:  res.Quarantined,
			BitIdentical: res.BitIdentical,
			GateDenied:   res.GateDenied,
			LeakedBlocks: res.LeakedBlocks,
		}
		for _, f := range res.SurvivorFindings {
			r.SurvivorFindings = append(r.SurvivorFindings, f.String())
		}
		if pm := res.PostMortem; pm != nil {
			r.PostMortem = &ficPostMortem{
				Compartment: pm.Compartment.String(),
				Op:          pm.Op,
				Cycle:       pm.Cycle,
				Hart:        pm.Hart,
				Epoch:       pm.Epoch,
				Salvage:     pm.Salvage,
				Flight:      pm.Flight,
			}
			if pm.Cause != nil {
				r.PostMortem.Cause = pm.Cause.Error()
			}
		}
		out.Results = append(out.Results, r)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
