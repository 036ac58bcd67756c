package faultinject

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden post-mortem tails under testdata/")

// TestPostMortemFlightGolden pins the flight-recorder tail of every
// post-mortem that the seed-1 compromise campaign (make smoke-compromise)
// takes with telemetry off. A change to how events are recorded or
// rendered must leave these tails byte-identical; regenerate the file
// with -update only when the simulated history itself is meant to change.
func TestPostMortemFlightGolden(t *testing.T) {
	rep, err := RunCompromise(CompromiseConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, res := range rep.Results {
		if res.PostMortem == nil {
			continue
		}
		b.WriteString("# " + res.Scenario + "\n")
		for _, line := range res.PostMortem.Flight {
			b.WriteString(line + "\n")
		}
	}
	golden := filepath.Join("testdata", "postmortem_flight_seed1.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("post-mortem flight tails differ from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
