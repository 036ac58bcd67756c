// Command zioninspect boots the platform, runs a short confidential
// workload, and dumps the security-relevant machine state: the PMP plan
// in both worlds, secure-pool occupancy, the CVM's stage-2 layout,
// TLB statistics, the Secure Monitor's event counters and each hart's
// flight-recorder ring — a debugging view of everything ZION's isolation
// is built from. It always runs the cross-layer invariant auditor last
// and exits non-zero on any finding, so it doubles as a scriptable
// post-run integrity check.
package main

import (
	"flag"
	"fmt"
	"os"

	"zion"
	"zion/internal/pmp"
	"zion/internal/telemetry"
	"zion/internal/workloads"
)

func main() {
	metrics := flag.Bool("metrics", false, "dump the telemetry metrics registry after the probe run")
	flag.Parse()

	var cfg zion.Config
	if *metrics {
		cfg.Telemetry = telemetry.New(telemetry.Config{})
	}
	sys, err := zion.NewSystem(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zioninspect:", err)
		os.Exit(1)
	}
	k := workloads.RV8()[0] // aes probe
	img := workloads.Program(k, 64)
	vm, err := sys.CreateConfidentialVM("probe", img, zion.GuestRAMBase)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zioninspect:", err)
		os.Exit(1)
	}
	meas, _ := sys.Measurement(vm)
	if _, err := sys.Run(vm); err != nil {
		fmt.Fprintln(os.Stderr, "zioninspect:", err)
		os.Exit(1)
	}

	h := sys.Machine.Harts[0]

	fmt.Println("=== PMP plan (hart 0, Normal mode) ===")
	for _, i := range h.PMP.ActiveEntries() {
		cfg := h.PMP.Cfg(i)
		perm := ""
		for _, f := range []struct {
			bit  uint8
			name string
		}{{pmp.PermR, "R"}, {pmp.PermW, "W"}, {pmp.PermX, "X"}} {
			if cfg&f.bit != 0 {
				perm += f.name
			} else {
				perm += "-"
			}
		}
		mode := [4]string{"OFF", "TOR", "NA4", "NAPOT"}[(cfg>>3)&3]
		role := ""
		switch {
		case i <= 7:
			role = "secure pool (closed to Normal mode)"
		case i == 13:
			role = "MMIO window"
		case i == 14:
			role = "RAM background rule"
		}
		fmt.Printf("  entry %2d: %-5s perm=%s addr=%#x  %s\n", i, mode, perm, h.PMP.Addr(i), role)
	}

	fmt.Println("\n=== Secure pool ===")
	fmt.Printf("  free blocks: %d (256 KiB each)\n", sys.Monitor.PoolFreeBlocks())

	fmt.Println("\n=== Secure Monitor counters ===")
	st := sys.Monitor.Stats
	fmt.Printf("  world switches: %d entries, %d exits\n", st.Entries, st.Exits)
	fmt.Printf("  page faults:    stage1=%d stage2=%d stage3=%d\n",
		st.FaultStage[1], st.FaultStage[2], st.FaultStage[3])
	fmt.Printf("  entry cycles:   mean=%.0f p50=%d p99=%d\n",
		st.Entry.Mean(), st.Entry.Quantile(0.50), st.Entry.Quantile(0.99))
	fmt.Printf("  exit cycles:    mean=%.0f p50=%d p99=%d\n",
		st.Exit.Mean(), st.Exit.Quantile(0.50), st.Exit.Quantile(0.99))
	fmt.Printf("  tamper events:  %d\n", st.TamperDetected)

	fmt.Println("\n=== TLB (hart 0) ===")
	ts := h.TLB.Stats()
	fmt.Printf("  hits=%d misses=%d flushes=%d entries-flushed=%d\n",
		ts.Hits, ts.Misses, ts.Flushes, ts.FlushedEnt)

	fmt.Println("\n=== Flight recorder (oldest first) ===")
	sys.Machine.Flight.Dump(os.Stdout)

	fmt.Println("\n=== Probe CVM ===")
	fmt.Printf("  measurement: %x\n", meas)
	fmt.Printf("  exits:       %v\n", vm.Exits())
	fmt.Println("  trap mix (by cause, ascending):")
	for _, ts := range h.TrapMix() {
		fmt.Printf("    cause %2d %-24s %d\n", ts.Cause, ts.Name, ts.Count)
	}

	if *metrics {
		sys.FlushTelemetry()
		fmt.Println("\n=== Telemetry metrics ===")
		cfg.Telemetry.Registry.Dump(os.Stdout)
	}

	// The auditor re-derives the isolation invariants (PMP plan, pool
	// ownership, stage-2 mappings) from live state; any finding means the
	// layers disagree, so scripts must see a failure, not just text.
	fmt.Println("\n=== Cross-layer invariant audit ===")
	findings := sys.Monitor.Audit()
	if len(findings) == 0 {
		fmt.Println("  clean: all cross-layer invariants hold")
		return
	}
	for _, f := range findings {
		fmt.Printf("  FINDING: %s\n", f)
	}
	fmt.Fprintf(os.Stderr, "zioninspect: %d invariant finding(s)\n", len(findings))
	os.Exit(1)
}
