package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// tinySizes keeps every round to milliseconds.
var tinySizes = sizes{AESScale: 800, CoremarkScale: 36, Loads: 2000, CVMs: 3, Pages: 64, Requests: 4000}

func TestWorkloadsRepeatTheirFingerprints(t *testing.T) {
	for _, w := range allWorkloads() {
		var fps [2]fingerprint
		for i := range fps {
			r, err := w.round(&runCtx{sz: tinySizes, seed: 42, sums: map[string]uint64{}})
			if err != nil {
				t.Fatalf("%s round %d: %v", w.name, i, err)
			}
			if r.harts > runtime.NumCPU() || r.harts != w.harts {
				t.Errorf("%s booted %d harts, declares %d, host has %d CPUs", w.name, r.harts, w.harts, runtime.NumCPU())
			}
			fps[i] = r.fp
		}
		if fps[0] != fps[1] {
			t.Errorf("%s: fingerprints differ between two rounds: %+v vs %+v", w.name, fps[0], fps[1])
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metrics and workloads the
// benchmark reports are exactly the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	ws := allWorkloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, got, w.name, w.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, c := range []struct {
		kind string
		max  int
		json []def
		defs []metricDef
	}{{"end_to_end", 16, spec.EndToEnd, endToEnd}, {"per_layer", 128, spec.PerLayer, perLayer}} {
		if len(c.defs) > c.max || len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d (at most %d)", c.kind, len(c.json), len(c.defs), c.max)
		}
		for i, d := range c.defs {
			if got := (def{d.name, d.unit, d.better}); c.json[i] != got {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", c.kind, i, c.json[i], got)
			}
			if !name.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: bad or repeated metric name %q", c.kind, d.name)
			}
			seen[d.name] = true
		}
	}
}

// TestRunsReportEveryMetric makes one tiny untraced and one tiny traced
// run of every workload; run fails unless it reports exactly the declared
// metrics, each a finite number.
func TestRunsReportEveryMetric(t *testing.T) {
	for _, w := range allWorkloads() {
		for _, trace := range []bool{false, true} {
			o := options{seed: 42, seconds: 1e-3, trace: trace, sz: tinySizes, layers: 0.01}
			res, _, err := run(w, o)
			if err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %+v, %v", w.name, trace, res, err)
			}
		}
	}
}

// TestQuantileMatchesPython checks quantile against values Python's
// statistics.quantiles(v, n=4) and statistics.median print for the same
// inputs, including its extrapolation below the smallest of two values.
func TestQuantileMatchesPython(t *testing.T) {
	for _, c := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3, 10, 7, 8, 6, 9}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{2, 9, 4}, 2, 4, 9},
	} {
		q1, med, q3 := quantile(c.v, 0.25), median(c.v), quantile(c.v, 0.75)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("%v: quartiles %g %g %g, Python gives %g %g %g", c.v, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"zion/internal/hart.(*fastPath).runBatch": "hart",
		"zion/internal/sm.(*SM).HVCall.func1":     "sm",
		"zion/internal/asm.(*Program).LI":         "other",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"main.run":            "other",
		"main.probeSpeed":     probeLayer,
		"sync.(*Mutex).Lock":  "",
		"crypto/sha256.block": "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}
