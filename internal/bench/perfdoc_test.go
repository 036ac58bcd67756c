package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestPerfDocMatchesBenchJSON: the host-MIPS table in docs/PERF.md quotes
// the committed BENCH_host.json, so regenerating one without the other
// fails here instead of leaving the doc to drift.
func TestPerfDocMatchesBenchJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_host.json")
	if err != nil {
		t.Fatal(err)
	}
	var r HostResult
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../docs/PERF.md")
	if err != nil {
		t.Fatal(err)
	}
	// Rows look like "| aes | 8.92 | 34.46 | 45.70 | 103.96 | 11.65× | 2.28× |".
	table := map[string]string{}
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 9 {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		table[cells[1]] = strings.Join(cells[2:8], " ")
	}
	if len(r.Rows) == 0 {
		t.Fatal("BENCH_host.json has no workload rows")
	}
	for _, w := range r.Rows {
		want := fmt.Sprintf("%.2f %.2f %.2f %.2f %.2f× %.2f×",
			w.SlowMIPS, w.FastMIPS, w.BlockMIPS, w.TraceMIPS, w.TraceSpeedup, w.TraceOverBlock)
		if got, ok := table[w.Name]; !ok {
			t.Errorf("docs/PERF.md has no MIPS row for %s", w.Name)
		} else if got != want {
			t.Errorf("docs/PERF.md row %s reads %q, BENCH_host.json gives %q", w.Name, got, want)
		}
	}
}
