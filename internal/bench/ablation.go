package bench

import (
	"errors"
	"fmt"

	"zion/internal/asm"
	"zion/internal/baseline"
	"zion/internal/hv"
	"zion/internal/sm"
)

// A1Result is the scalability ablation: how many concurrent enclaves each
// isolation design supports (the design-comparison claim of §I/§IV.C).
type A1Result struct {
	RegionMax     int
	ZionReached   int
	ZionTarget    int
	RegionFragPct float64
}

// Rows renders the comparison.
func (r A1Result) Rows() []string {
	return []string{
		fmt.Sprintf("region-based (CURE/VirTEE-style) max concurrent enclaves: %d (PMP-entry bound)", r.RegionMax),
		fmt.Sprintf("ZION concurrent CVMs reached: %d of %d attempted (page-granular, no PMP bound)", r.ZionReached, r.ZionTarget),
		fmt.Sprintf("region free-space fragmentation after churn: %.0f%%", r.RegionFragPct),
	}
}

// RunA1 drives both designs to their concurrency limits.
func RunA1(zionTarget int) (A1Result, error) {
	res := A1Result{ZionTarget: zionTarget}

	// Region-based: create until the PMP wall.
	rm := baseline.NewRegionMonitor(0x9000_0000, 1<<30)
	var ids []int
	for {
		id, err := rm.CreateEnclave(16 << 20)
		if err != nil {
			if !errors.Is(err, baseline.ErrNoPMPEntry) && !errors.Is(err, baseline.ErrNoContiguous) {
				return res, err
			}
			break
		}
		ids = append(ids, id)
	}
	res.RegionMax = len(ids)
	// Churn half of them to measure fragmentation.
	for i := 0; i < len(ids); i += 2 {
		_ = rm.DestroyEnclave(ids[i])
	}
	res.RegionFragPct = rm.FragmentationRatio() * 100

	// ZION: create-and-run many CVMs concurrently (all stay live).
	e := NewEnv(EnvConfig{RAMSize: 1 << 30, PoolSize: 256 << 20})
	img := tinyProgram()
	var vms []*hv.VM
	for i := 0; i < zionTarget; i++ {
		vm, err := e.HV.CreateCVM(e.H, fmt.Sprintf("cvm%d", i), img, hv.GuestRAMBase)
		if err != nil {
			break
		}
		vms = append(vms, vm)
	}
	for _, vm := range vms {
		if _, _, err := e.RunToCompletion(e.H, vm); err != nil {
			return res, err
		}
		res.ZionReached++
	}
	return res, nil
}

func tinyProgram() []byte {
	p := asm.New(hv.GuestRAMBase)
	p.LI(asm.S0, 1)
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// A2Result is the shared-memory ablation (§IV.E design claim): cycles for
// N shared-mapping updates under the synchronized design vs the split
// page table.
type A2Result struct {
	Updates     int
	SyncCycles  uint64
	SplitCycles uint64
}

// Rows renders the comparison.
func (r A2Result) Rows() []string {
	speedup := float64(r.SyncCycles) / float64(r.SplitCycles)
	return []string{
		fmt.Sprintf("synchronized sharing: %d updates in %d cycles", r.Updates, r.SyncCycles),
		fmt.Sprintf("split page table    : %d updates in %d cycles (%.1fx faster)", r.Updates, r.SplitCycles, speedup),
	}
}

// RunA2 measures both sharing designs.
func RunA2(updates int) (A2Result, error) {
	res := A2Result{Updates: updates}
	e := NewEnv(EnvConfig{})
	syncM := &baseline.SyncSharedMapper{}
	start := e.H.Cycles
	for i := 0; i < updates; i++ {
		syncM.MapUpdate(e.H)
	}
	res.SyncCycles = e.H.Cycles - start

	splitM := &baseline.SplitSharedMapper{}
	start = e.H.Cycles
	for i := 0; i < updates; i++ {
		splitM.MapUpdate(e.H)
	}
	res.SplitCycles = e.H.Cycles - start
	return res, nil
}

// A3Result is the hierarchical-allocator ablation (§IV.D design claim):
// stage hit ratios and per-stage costs under a fault storm.
type A3Result struct {
	Stage1, Stage2, Stage3 uint64
	Stage1Pct              float64
	Stage1Cyc, Stage2Cyc   float64
}

// Rows renders the distribution.
func (r A3Result) Rows() []string {
	return []string{
		fmt.Sprintf("stage-1 (page cache) : %6d faults (%.1f%%), %6.0f cycles each", r.Stage1, r.Stage1Pct, r.Stage1Cyc),
		fmt.Sprintf("stage-2 (block list) : %6d faults, %6.0f cycles each", r.Stage2, r.Stage2Cyc),
		fmt.Sprintf("stage-3 (expansion)  : %6d faults", r.Stage3),
	}
}

// RunA3 runs a fault storm and reports the stage distribution.
func RunA3(pages int) (A3Result, error) {
	e := NewEnv(EnvConfig{PoolSize: 8 << 20})
	vm, err := e.HV.CreateCVM(e.H, "a3", touchProgram(pages), hv.GuestRAMBase)
	if err != nil {
		return A3Result{}, err
	}
	if _, _, err := e.RunToCompletion(e.H, vm); err != nil {
		return A3Result{}, err
	}
	st := e.SM.Stats
	res := A3Result{
		Stage1: st.FaultStage[sm.StageCache],
		Stage2: st.FaultStage[sm.StageBlock],
		Stage3: st.FaultStage[sm.StageExpand],
	}
	total := res.Stage1 + res.Stage2 + res.Stage3
	if total > 0 {
		res.Stage1Pct = float64(res.Stage1) / float64(total) * 100
	}
	if res.Stage1 > 0 {
		res.Stage1Cyc = float64(st.FaultCycles[sm.StageCache]) / float64(res.Stage1)
	}
	if res.Stage2 > 0 {
		res.Stage2Cyc = float64(st.FaultCycles[sm.StageBlock]) / float64(res.Stage2)
	}
	return res, nil
}

// A4Result quantifies the §IV.E hardening cost: world-switch entry cycles
// with and without per-entry revalidation of the hypervisor's shared
// subtable, as a function of the mapped shared-window size.
type A4Result struct {
	Rows []A4Row
}

// A4Row is one shared-window size point.
type A4Row struct {
	SharedPages  int
	EntryPlain   float64
	EntryChecked float64
}

// Format renders the sweep.
func (r A4Result) Format() []string {
	out := []string{"shared pages   entry (no check)   entry (revalidated)   overhead"}
	for _, row := range r.Rows {
		out = append(out, fmt.Sprintf("%12d %18.0f %21.0f %+9.1f%%",
			row.SharedPages, row.EntryPlain, row.EntryChecked,
			pct(row.EntryPlain, row.EntryChecked)))
	}
	return out
}

// RunA4 measures entry latency across shared-window sizes for both
// configurations.
func RunA4() (A4Result, error) {
	res := A4Result{}
	for _, pages := range []int{0, 4, 16, 64} {
		row := A4Row{SharedPages: pages}
		for _, validate := range []bool{false, true} {
			e := NewEnv(EnvConfig{SM: sm.Config{
				ValidateSharedOnEntry: validate,
				SchedQuantum:          20_000,
			}})
			vm, err := e.HV.CreateCVM(e.H, "a4", spinProgram(200_000), hv.GuestRAMBase)
			if err != nil {
				return res, err
			}
			if pages > 0 {
				if err := e.HV.SetupSharedWindow(e.H, vm); err != nil {
					return res, err
				}
				for i := 0; i < pages; i++ {
					if _, err := e.HV.MapShared(e.H, vm, sm.SharedBase+uint64(i)*4096); err != nil {
						return res, err
					}
				}
			}
			if _, _, err := e.RunToCompletion(e.H, vm); err != nil {
				return res, err
			}
			st := e.SM.Stats
			entry := st.Entry.Mean()
			if validate {
				row.EntryChecked = entry
			} else {
				row.EntryPlain = entry
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
