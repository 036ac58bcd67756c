package main

import (
	"fmt"
	"runtime"
	"time"

	"zion/internal/asm"
	"zion/internal/hart"
	"zion/internal/hv"
	"zion/internal/isa"
	"zion/internal/platform"
	"zion/internal/sm"
	"zion/internal/workloads"
)

// Every round boots its own stack through the layers' public constructors
// (platform.New, sm.New, hv.New, RegisterSecurePool, CreateCVM), so what
// the benchmark measures does not depend on the experiment harness in
// internal/bench.

const (
	ramSize     = 512 << 20
	poolSize    = 64 << 20
	faultPool   = 4 << 20 // small enough that the first CVM forces one pool expansion
	tickQuantum = 220_000 // the guest OS tick the paper's macro benchmarks use
	stubBase    = 0x1000_0000
	touchBase   = hv.GuestRAMBase + 0x10_0000
)

// sizes is the fixed work of one round of each workload.
type sizes struct {
	AESScale      int    // cpu and parallel: aes scale (8000 is aes x1)
	CoremarkScale int    // cpu: CoreMark scale (3600 is CoreMark x1)
	Loads         int    // exits: MMIO loads by one CVM
	CVMs          int    // faults: CVMs created, run and destroyed in sequence
	Pages         int    // faults: pages each CVM first-touches
	Requests      uint64 // serving: block requests
}

// standardSizes makes each round take about a tenth of a host second on
// a 2-core x86 host, so a run holds over a hundred rounds to pick the
// fastest from. The fingerprints below are recorded at these sizes.
var standardSizes = sizes{
	AESScale:      8000,
	CoremarkScale: 3600 / 16,
	Loads:         20_000,
	CVMs:          8,
	Pages:         1536,
	Requests:      100_000,
}

// fingerprint is a round's simulated outcome. It depends only on the
// sizes and, for serving, the seed; any host-side change that moves it
// changed what the simulator computes.
type fingerprint struct {
	Cycles  uint64 `json:"cycles"`
	Instret uint64 `json:"instret"`
	Ops     uint64 `json:"ops"`
	P50     uint64 `json:"p50,omitempty"`
	P99     uint64 `json:"p99,omitempty"`
	HistSum uint64 `json:"hist_sum,omitempty"`
}

// recordedFingerprints holds each workload's fingerprint at standardSizes,
// for serving at seed 42 and for parallel summed over two harts.
var recordedFingerprints = map[string]fingerprint{
	"cpu":      {Cycles: 10724079, Instret: 7347353, Ops: 7347353},
	"exits":    {Cycles: 168670907, Instret: 60006, Ops: 20001},
	"faults":   {Cycles: 393935235, Instret: 73809, Ops: 12289},
	"serving":  {Cycles: 103012272, Ops: 100000, P50: 15504, P99: 18386, HistSum: 1410242634},
	"parallel": {Cycles: 10327038, Instret: 7060074, Ops: 7060074},
}

// reference returns the fingerprint every round of w must match, if one
// is recorded for this run's sizes, seed and hart count.
func reference(w workload, c *runCtx) (fingerprint, bool) {
	fp, ok := recordedFingerprints[w.name]
	ok = ok && c.sz == standardSizes &&
		(w.name != "serving" || c.seed == 42) && (w.name != "parallel" || w.harts == 2)
	return fp, ok
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	op   string // what one unit of host_ops_per_s counts
	// alias names host_ops_per_s the way the paper-facing docs do, with
	// the factor that converts it.
	alias      string
	aliasScale float64
	aliasUnit  string
	harts      int
	round      func(c *runCtx) (round, error)
}

func allWorkloads() []workload {
	return []workload{
		{name: "cpu", why: "T1 aes then E4 CoreMark in their own CVMs on one hart: hart dispatch dominates while SM, HV and virtio stay nearly idle",
			op: "instruction", alias: "host_mips", aliasScale: 1e-6, aliasUnit: "MIPS", harts: 1, round: cpuRound},
		{name: "exits", why: "E1 shape: one CVM loads from a stub MMIO device, so SM world switch, compartment gates and HV MMIO emulation do the work",
			op: "exit", alias: "host_exits_per_s", aliasScale: 1, aliasUnit: "1/s", harts: 1, round: exitsRound},
		{name: "faults", why: "E3 shape: CVMs in sequence first-touch pages and are destroyed, so SM allocation, walks, TLB misses and create/destroy do the work",
			op: "fault", alias: "host_faults_per_s", aliasScale: 1, aliasUnit: "1/s", harts: 1, round: faultsRound},
		{name: "serving", why: "S1 closed-loop serving over virtio, seeded mix: descriptor pump, bounce pool and GuestMem copies, no guest instructions",
			op: "request", alias: "host_rps", aliasScale: 1, aliasUnit: "1/s", harts: 1, round: servingRound},
		{name: "parallel", why: "the cpu aes work on two harts under RunParallel; against cpu it isolates the quantum-barrier engine",
			op: "instruction", alias: "host_mips", aliasScale: 1e-6, aliasUnit: "MIPS", harts: parallelHarts(), round: parallelRound},
	}
}

// parallelHarts is the hart count of the parallel workload: two, but never
// more goroutine-harts than the host has CPUs.
func parallelHarts() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// runCtx is what a round needs besides its stack.
type runCtx struct {
	sz   sizes
	seed uint64
	tr   *tracer // nil when tracing is off
	sums map[string]uint64
}

// checksum returns the kernel's expected result from its Go mirror,
// computed once per scale.
func (c *runCtx) checksum(k workloads.Kernel, scale int) uint64 {
	key := fmt.Sprintf("%s/%d", k.Name, scale)
	v, ok := c.sums[key]
	if !ok {
		v = k.Mirror(scale)
		c.sums[key] = v
	}
	return v
}

// round is one batch of a workload's fixed work.
type round struct {
	setup   time.Duration // boot, image assembly, CVM and device creation
	work    time.Duration // from the first guest instruction to the end
	ops     uint64        // units of host_ops_per_s done in work
	instret uint64        // guest instructions retired in work
	fp      fingerprint
	counts  map[string]float64 // per-layer counts read after the round
	harts   int                // harts the round booted
	rt      goSample           // Go runtime activity during the round
	speed   float64            // the speed probe's steps per second just before the round
	rss     float64            // the process's peak resident set during the round, MiB
}

// stack is one freshly booted simulated machine.
type stack struct {
	m  *platform.Machine
	sm *sm.SM
	hv *hv.Hypervisor
}

func boot(harts int, cfg sm.Config, pool uint64) (*stack, error) {
	m := platform.New(harts, ramSize)
	mon, err := sm.New(m, cfg)
	if err != nil {
		return nil, fmt.Errorf("boot: secure monitor: %w", err)
	}
	k := hv.New(m, mon, platform.RAMBase+0x0100_0000, ramSize-0x0200_0000)
	for _, h := range m.Harts {
		h.Mode = isa.ModeS
	}
	if err := k.RegisterSecurePool(m.Harts[0], pool); err != nil {
		return nil, fmt.Errorf("boot: secure pool: %w", err)
	}
	return &stack{m: m, sm: mon, hv: k}, nil
}

func (s *stack) createCVM(tr *tracer, h *hart.Hart, name string, img []byte) (*hv.VM, error) {
	sp := tr.begin("create_cvm")
	vm, err := s.hv.CreateCVM(h, name, img, hv.GuestRAMBase)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", name, err)
	}
	return vm, nil
}

// runToShutdown drives vCPU 0 until the guest shuts down, resuming after
// timer exits. Any other exit fails the round.
func (s *stack) runToShutdown(tr *tracer, h *hart.Hart, vm *hv.VM) (sm.ExitInfo, error) {
	for {
		sp := tr.begin("run_cvm")
		info, err := s.hv.RunCVM(h, vm, 0)
		tr.end(sp)
		if err != nil {
			return info, fmt.Errorf("run %s: %w", vm.Name, err)
		}
		switch info.Reason {
		case sm.ExitShutdown:
			return info, nil
		case sm.ExitTimer:
		default:
			return info, fmt.Errorf("run %s: exit %v before shutdown", vm.Name, info.Reason)
		}
	}
}

func (s *stack) destroy(tr *tracer, h *hart.Hart, vm *hv.VM) error {
	sp := tr.begin("destroy")
	_, err := s.sm.HVCall(h, sm.FnDestroy, uint64(vm.CVMID))
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("destroy %s: %w", vm.Name, err)
	}
	return nil
}

func (s *stack) instret() (n uint64) {
	for _, h := range s.m.Harts {
		n += h.Instret
	}
	return n
}

// counts reads the per-layer counts of a finished round from the layers'
// public statistics, summed over harts. The virtio and guest rows stay 0
// except on serving, which fills them from its own statistics.
func (s *stack) counts() map[string]float64 {
	var fp hart.FastPathStats
	var instret, tlbHits, tlbMisses, walks, steps, pmpChecks uint64
	for _, h := range s.m.Harts {
		f := h.FastPathStats()
		fp.TCOps += f.TCOps
		fp.TCBailouts += f.TCBailouts
		fp.HorizonCutoffs += f.HorizonCutoffs
		fp.FetchHits += f.FetchHits
		fp.FetchMisses += f.FetchMisses
		instret += h.Instret
		ts := h.TLB.Stats()
		tlbHits += ts.Hits
		tlbMisses += ts.Misses
		walks += h.WalkStats.Walks
		steps += h.WalkStats.Steps
		pmpChecks += h.PMP.Stats().Checks
	}
	var mmio uint64
	for _, vm := range s.hv.VMs {
		mmio += vm.Exits["mmio"]
	}
	st := &s.sm.Stats
	es := s.m.EngineStats()
	return map[string]float64{
		"hart.trace_ops_frac":      ratio(fp.TCOps, instret),
		"hart.trace_bailouts":      float64(fp.TCBailouts),
		"hart.horizon_cutoffs":     float64(fp.HorizonCutoffs),
		"hart.fetch_hit_rate":      ratio(fp.FetchHits, fp.FetchHits+fp.FetchMisses),
		"tlb.lookups":              float64(tlbHits + tlbMisses),
		"tlb.hit_rate":             ratio(tlbHits, tlbHits+tlbMisses),
		"ptw.walks":                float64(walks),
		"ptw.steps_per_walk":       ratio(steps, walks),
		"pmp.checks":               float64(pmpChecks),
		"sm.exits":                 float64(st.Exits),
		"sm.gate_calls":            float64(st.GateCalls),
		"sm.faults":                float64(smFaults(s.sm)),
		"hv.mmio_exits":            float64(mmio),
		"virtio.doorbells_per_req": 0,
		"virtio.irqs_per_req":      0,
		"guest.pool_hwm":           0,
		"platform.epochs":          float64(es.Epochs),
		"platform.cross_ops":       float64(es.CrossOps),
	}
}

// smFaults is the number of stage-2 faults the SM served, over all
// allocation stages.
func smFaults(s *sm.SM) uint64 {
	st := &s.Stats
	return st.FaultStage[sm.StageCache] + st.FaultStage[sm.StageBlock] + st.FaultStage[sm.StageExpand]
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func kernel(name string) workloads.Kernel {
	for _, k := range workloads.RV8() {
		if k.Name == name {
			return k
		}
	}
	panic("benchmark: no RV8 kernel " + name)
}

// cpuRound runs aes then CoreMark, each in its own CVM.
func cpuRound(c *runCtx) (round, error) {
	t0 := time.Now()
	s, err := boot(1, sm.Config{SchedQuantum: tickQuantum}, poolSize)
	if err != nil {
		return round{}, err
	}
	h := s.m.Harts[0]
	jobs := []struct {
		k     workloads.Kernel
		scale int
	}{{kernel("aes"), c.sz.AESScale}, {workloads.Coremark(), c.sz.CoremarkScale}}
	vms := make([]*hv.VM, len(jobs))
	for i, j := range jobs {
		if vms[i], err = s.createCVM(c.tr, h, j.k.Name, workloads.Program(j.k, j.scale)); err != nil {
			return round{}, err
		}
	}
	r := round{setup: time.Since(t0)}
	want := make([]uint64, len(jobs))
	for i, j := range jobs {
		want[i] = c.checksum(j.k, j.scale)
	}
	t1 := time.Now()
	for i, vm := range vms {
		info, err := s.runToShutdown(c.tr, h, vm)
		if err != nil {
			return r, err
		}
		if info.Data2 != want[i] {
			return r, fmt.Errorf("%s checksum %#x, want %#x", jobs[i].k.Name, info.Data2, want[i])
		}
	}
	r.work = time.Since(t1)
	r.instret = h.Instret
	r.ops = h.Instret
	r.fp = fingerprint{Cycles: h.Cycles, Instret: h.Instret, Ops: h.Instret}
	r.counts, r.harts = s.counts(), len(s.m.Harts)
	return r, nil
}

// mmioStub is an emulated device whose every read returns the number of
// reads so far, so the guest's last loaded value proves every load
// reached it.
type mmioStub struct{ reads uint64 }

func (d *mmioStub) GPARange() (uint64, uint64) { return stubBase, 0x1000 }
func (d *mmioStub) MMIORead(uint64, int) uint64 {
	d.reads++
	return d.reads
}
func (d *mmioStub) MMIOWrite(uint64, int, uint64) {}

// mmioLoopProgram loads n times from the stub and shuts down with the
// last loaded value in a0.
func mmioLoopProgram(n int) []byte {
	p := asm.New(hv.GuestRAMBase)
	p.LI(asm.T0, stubBase)
	p.LI(asm.S2, int64(n))
	p.Label("loop")
	p.LD(asm.A0, asm.T0, 0)
	p.ADDI(asm.S2, asm.S2, -1)
	p.BNE(asm.S2, asm.Zero, "loop")
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// exitsRound uses the paper-default SM configuration (shared vCPU, short
// path) and no scheduler tick, so every exit is an MMIO exit.
func exitsRound(c *runCtx) (round, error) {
	t0 := time.Now()
	s, err := boot(1, sm.Config{}, poolSize)
	if err != nil {
		return round{}, err
	}
	h := s.m.Harts[0]
	vm, err := s.createCVM(c.tr, h, "exits", mmioLoopProgram(c.sz.Loads))
	if err != nil {
		return round{}, err
	}
	stub := &mmioStub{}
	s.hv.AttachDevice(vm, stub)
	r := round{setup: time.Since(t0)}
	t1 := time.Now()
	info, err := s.runToShutdown(c.tr, h, vm)
	if err != nil {
		return r, err
	}
	r.work = time.Since(t1)
	n := uint64(c.sz.Loads)
	if stub.reads != n || info.Data != n || vm.Exits["mmio"] != n {
		return r, fmt.Errorf("exits: %d device reads, %d MMIO exits, last value %d; want %d each",
			stub.reads, vm.Exits["mmio"], info.Data, n)
	}
	r.instret = h.Instret
	r.ops = s.sm.Stats.Exits
	r.fp = fingerprint{Cycles: h.Cycles, Instret: h.Instret, Ops: r.ops}
	r.counts, r.harts = s.counts(), len(s.m.Harts)
	return r, nil
}

// shutdownProgram only shuts the guest down.
func shutdownProgram() []byte {
	p := asm.New(hv.GuestRAMBase)
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// touchProgram stores to n fresh pages, one stage-2 fault each.
func touchProgram(n int) []byte {
	p := asm.New(hv.GuestRAMBase)
	p.LI(asm.T0, int64(touchBase))
	p.LI(asm.T1, int64(n))
	p.Label("touch")
	p.SD(asm.T1, asm.T0, 0)
	p.LI(asm.T2, isa.PageSize)
	p.ADD(asm.T0, asm.T0, asm.T2)
	p.ADDI(asm.T1, asm.T1, -1)
	p.BNE(asm.T1, asm.Zero, "touch")
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// faultsRound creates, runs and destroys CVMs one after another on a
// small initial pool. Creation of all but the first CVM is part of the
// measured work: create/destroy is what this workload exercises.
func faultsRound(c *runCtx) (round, error) {
	t0 := time.Now()
	s, err := boot(1, sm.Config{}, faultPool)
	if err != nil {
		return round{}, err
	}
	h := s.m.Harts[0]
	img := touchProgram(c.sz.Pages)
	vm, err := s.createCVM(c.tr, h, "faults0", img)
	if err != nil {
		return round{}, err
	}
	r := round{setup: time.Since(t0)}
	t1 := time.Now()
	for i := 0; i < c.sz.CVMs; i++ {
		if i > 0 {
			if vm, err = s.createCVM(c.tr, h, fmt.Sprintf("faults%d", i), img); err != nil {
				return r, err
			}
		}
		if _, err := s.runToShutdown(c.tr, h, vm); err != nil {
			return r, err
		}
		if err := s.destroy(c.tr, h, vm); err != nil {
			return r, err
		}
	}
	r.work = time.Since(t1)
	if free, total := s.sm.PoolFreeBlocks(), s.sm.PoolTotalBlocks(); free != total {
		return r, fmt.Errorf("faults: %d of %d pool blocks free after destroying every CVM", free, total)
	}
	r.instret = h.Instret
	r.ops = smFaults(s.sm)
	if min := uint64(c.sz.CVMs * c.sz.Pages); r.ops < min {
		return r, fmt.Errorf("faults: %d stage-2 faults, want at least %d", r.ops, min)
	}
	r.fp = fingerprint{Cycles: h.Cycles, Instret: h.Instret, Ops: r.ops}
	r.counts, r.harts = s.counts(), len(s.m.Harts)
	return r, nil
}

// servingConfig is the S1 row: 8 CVMs x 2 queues, depth 16, 512 B
// requests, interrupts coalesced by 16.
func servingConfig(requests, seed uint64) workloads.ServingConfig {
	return workloads.ServingConfig{
		CVMs:            8,
		Queues:          2,
		QueueSize:       64,
		Requests:        requests,
		Depth:           16,
		ReqBytes:        512,
		Coalesce:        16,
		CoalesceTimeout: 2_000_000,
		Seed:            seed,
	}
}

// servingRound takes the serving loop's time from RunServing's own
// HostSeconds, which starts after its eight CVMs and devices exist; the
// rest of the call (creating them, 8 MiB of disk each) counts as set-up.
func servingRound(c *runCtx) (round, error) {
	t0 := time.Now()
	s, err := boot(1, sm.Config{}, poolSize)
	if err != nil {
		return round{}, err
	}
	h := s.m.Harts[0]
	cfg := servingConfig(c.sz.Requests, c.seed)
	sp := c.tr.begin("run_serving")
	st, err := workloads.RunServing(s.hv, h, nil, cfg)
	c.tr.end(sp)
	if err != nil {
		return round{}, fmt.Errorf("serving: %w", err)
	}
	work := time.Duration(st.HostSeconds * float64(time.Second))
	r := round{setup: time.Since(t0) - work, work: work}
	n := cfg.Requests
	if st.Requests != n || st.Reads+st.Writes != n || st.BytesMoved != n*uint64(cfg.ReqBytes) || st.Hist.Count() != n {
		return r, fmt.Errorf("serving: %d requests (%d reads, %d writes, %d B, %d latencies), want %d",
			st.Requests, st.Reads, st.Writes, st.BytesMoved, st.Hist.Count(), n)
	}
	r.ops = st.Requests
	r.fp = fingerprint{Cycles: st.Cycles, Ops: st.Requests, P50: st.P50, P99: st.P99, HistSum: st.Hist.Sum()}
	r.counts, r.harts = s.counts(), len(s.m.Harts)
	r.counts["virtio.doorbells_per_req"] = ratio(st.DoorbellExits, st.Requests)
	r.counts["virtio.irqs_per_req"] = ratio(st.IRQsFired, st.Requests)
	r.counts["guest.pool_hwm"] = float64(st.PoolHWM)
	return r, nil
}

// parallelSetup boots a stack with one aes CVM per hart and returns the
// runners that drive them to shutdown, each checking its checksum.
func parallelSetup(c *runCtx) (*stack, []platform.HartRunner, error) {
	n := parallelHarts()
	s, err := boot(n, sm.Config{SchedQuantum: tickQuantum}, poolSize)
	if err != nil {
		return nil, nil, err
	}
	aes := kernel("aes")
	img := workloads.Program(aes, c.sz.AESScale)
	want := c.checksum(aes, c.sz.AESScale)
	runners := make([]platform.HartRunner, n)
	for i, h := range s.m.Harts {
		vm, err := s.createCVM(c.tr, h, fmt.Sprintf("aes-h%d", i), img)
		if err != nil {
			return nil, nil, err
		}
		runners[i] = func(h *hart.Hart) error {
			info, err := s.runToShutdown(c.tr, h, vm)
			if err != nil {
				return err
			}
			if info.Data2 != want {
				return fmt.Errorf("hart %d: aes checksum %#x, want %#x", h.ID, info.Data2, want)
			}
			return nil
		}
	}
	return s, runners, nil
}

// hartsFingerprint sums the fingerprints of all harts. Every hart runs
// the same aes CVM, so each must retire the same instructions.
func hartsFingerprint(s *stack) (fingerprint, error) {
	var fp fingerprint
	for _, h := range s.m.Harts {
		if h0 := s.m.Harts[0]; h.Instret != h0.Instret {
			return fp, fmt.Errorf("parallel: hart %d retired %d instructions, hart 0 %d", h.ID, h.Instret, h0.Instret)
		}
		fp.Cycles += h.Cycles
		fp.Instret += h.Instret
	}
	fp.Ops = fp.Instret
	return fp, nil
}

func parallelRound(c *runCtx) (round, error) {
	t0 := time.Now()
	s, runners, err := parallelSetup(c)
	if err != nil {
		return round{}, err
	}
	r := round{setup: time.Since(t0)}
	t1 := time.Now()
	sp := c.tr.begin("run_parallel")
	err = s.m.RunParallel(platform.EngineConfig{Quantum: platform.DefaultQuantum, Adaptive: true}, runners)
	c.tr.end(sp)
	if err != nil {
		return r, fmt.Errorf("parallel: %w", err)
	}
	r.work = time.Since(t1)
	r.instret = s.instret()
	r.ops = r.instret
	if r.fp, err = hartsFingerprint(s); err != nil {
		return r, err
	}
	r.counts, r.harts = s.counts(), len(s.m.Harts)
	return r, nil
}

// sequentialParallel runs the parallel workload's runners one after
// another on the calling goroutine and returns the time they took and the
// fingerprint, for platform.par_over_seq.
func sequentialParallel(c *runCtx) (time.Duration, fingerprint, error) {
	s, runners, err := parallelSetup(c)
	if err != nil {
		return 0, fingerprint{}, err
	}
	t0 := time.Now()
	for i, run := range runners {
		if err := run(s.m.Harts[i]); err != nil {
			return 0, fingerprint{}, fmt.Errorf("sequential: %w", err)
		}
	}
	d := time.Since(t0)
	fp, err := hartsFingerprint(s)
	return d, fp, err
}
