package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"zion/internal/guest"
	"zion/internal/hart"
	"zion/internal/hv"
	"zion/internal/isa"
	"zion/internal/mem"
	"zion/internal/platform"
	"zion/internal/pmp"
	"zion/internal/ptw"
	"zion/internal/sm"
	"zion/internal/telemetry"
	"zion/internal/tlb"
	"zion/internal/virtio"
	"zion/internal/workloads"
)

// The isolated layer drivers time one public function at a time, in a
// loop, on inputs shaped like the workloads. Each warms up before timing
// and checks its own result; a driver whose check fails returns an error
// and the run fails with it, so no unchecked number is ever reported.

// layerScale multiplies every driver's iteration count; 1 is the
// benchmark's setting, tests use less.
type layerScale float64

func (s layerScale) n(base int) int {
	if n := int(float64(base) * float64(s)); n > 0 {
		return n
	}
	return 1
}

// nsPerOp times fn over n calls after n/10 warm-up calls.
func nsPerOp(n int, fn func(i int) error) (float64, error) {
	for i := 0; i < n/10+1; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}

// layerDrivers runs every isolated driver and returns its metrics.
func layerDrivers(s layerScale) (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range []func(layerScale) (map[string]float64, error){
		tierDriver, traceCompileDriver, decodeDriver, memDriver, tlbDriver, walkDriver,
		pmpDriver, pumpDriver, observeDriver, profilerDriver, barrierDriver,
	} {
		m, err := d(s)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] = v
		}
	}
	return out, nil
}

// tierRun boots a stack, sets the execution tier on its hart and runs one
// aes CVM to shutdown. It returns the run time and the hart.
func tierRun(scale int, tier func(*hart.Hart), cfg sm.Config) (time.Duration, *hart.Hart, error) {
	s, err := boot(1, cfg, poolSize)
	if err != nil {
		return 0, nil, err
	}
	h := s.m.Harts[0]
	tier(h)
	aes := kernel("aes")
	vm, err := s.createCVM(nil, h, "aes", workloads.Program(aes, scale))
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	info, err := s.runToShutdown(nil, h, vm)
	d := time.Since(t0)
	if err != nil {
		return 0, nil, err
	}
	if want := aes.Mirror(scale); info.Data2 != want {
		return 0, nil, fmt.Errorf("aes checksum %#x, want %#x", info.Data2, want)
	}
	return d, h, nil
}

// tierDriver times aes under each execution tier and checks that all four
// end in the same simulated state.
func tierDriver(s layerScale) (map[string]float64, error) {
	scale := s.n(4000)
	tiers := []struct {
		metric string
		set    func(*hart.Hart)
	}{
		{"hart.trace_ns_per_instr", func(*hart.Hart) {}},
		{"hart.block_ns_per_instr", func(h *hart.Hart) { h.SetTraces(false) }},
		{"hart.fast_ns_per_instr", func(h *hart.Hart) { h.SetSuperblocks(false) }},
		{"hart.slow_ns_per_instr", func(h *hart.Hart) { h.DisableFastPath() }},
	}
	out := map[string]float64{}
	var ref *hart.Hart
	cfg := sm.Config{SchedQuantum: tickQuantum}
	for _, t := range tiers {
		if _, _, err := tierRun(scale/8+1, t.set, cfg); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", t.metric, err)
		}
		d, h, err := tierRun(scale, t.set, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.metric, err)
		}
		if ref == nil {
			ref = h
		} else if h.Cycles != ref.Cycles || h.Instret != ref.Instret {
			return nil, fmt.Errorf("%s: %d cycles / %d instructions, trace tier %d / %d",
				t.metric, h.Cycles, h.Instret, ref.Cycles, ref.Instret)
		}
		out[t.metric] = float64(d.Nanoseconds()) / float64(h.Instret)
	}
	return out, nil
}

func traceCompileDriver(s layerScale) (map[string]float64, error) {
	hart.TraceCompileCost(s.n(32))
	ns := hart.TraceCompileCost(s.n(256))
	if !(ns > 0) || math.IsInf(ns, 0) {
		return nil, fmt.Errorf("trace compile: %v ns per page", ns)
	}
	return map[string]float64{"hart.trace_compile_ns_per_page": ns}, nil
}

// cpuImageWords returns the instruction words of the cpu workload's images.
func cpuImageWords() []uint32 {
	var words []uint32
	for _, img := range [][]byte{
		workloads.Program(kernel("aes"), standardSizes.AESScale),
		workloads.Program(workloads.Coremark(), standardSizes.CoremarkScale),
	} {
		for i := 0; i+4 <= len(img); i += 4 {
			words = append(words, binary.LittleEndian.Uint32(img[i:]))
		}
	}
	return words
}

// decodeDriver decodes the cpu images word by word; every pass must
// decode the same instructions.
func decodeDriver(s layerScale) (map[string]float64, error) {
	words := cpuImageWords()
	digest := func() (h uint64) {
		for _, w := range words {
			in := isa.Decode(w)
			h = h*1099511628211 ^ (uint64(in.Op) | uint64(in.Rd)<<16 | uint64(in.Rs1)<<24 |
				uint64(in.Rs2)<<32) ^ uint64(in.Imm)
		}
		return h
	}
	want := digest()
	passes := s.n(2000)
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		if got := digest(); got != want {
			return nil, fmt.Errorf("decode: pass %d digest %#x, want %#x", i, got, want)
		}
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(passes*len(words))
	return map[string]float64{"isa.decode_ns": ns}, nil
}

// memDriver times 8-byte reads and writes over 256 pages and whole-page
// copies of physical memory, checking every value read back.
func memDriver(s layerScale) (map[string]float64, error) {
	const pages = 256
	m := mem.NewPhysMemory(platform.RAMBase, 4<<20)
	addr := func(i int) uint64 { return platform.RAMBase + uint64(i%pages)*isa.PageSize + uint64(i%64)*8 }
	val := func(i int) uint64 { return uint64(i%pages)*0x9E3779B97F4A7C15 + uint64(i%64) }
	n := s.n(1 << 20)
	write, err := nsPerOp(n, func(i int) error { return m.WriteUint(addr(i), val(i), 8) })
	if err != nil {
		return nil, fmt.Errorf("mem write: %w", err)
	}
	read, err := nsPerOp(n, func(i int) error {
		v, err := m.ReadUint(addr(i), 8)
		if err == nil && v != val(i) {
			err = fmt.Errorf("read %#x at %#x, want %#x", v, addr(i), val(i))
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("mem read: %w", err)
	}
	// Copies cycle through eight destination pages; each must end up
	// equal to the source page of the last copy into it.
	src, dst := uint64(platform.RAMBase), uint64(platform.RAMBase+(pages+1)*isa.PageSize)
	copies := s.n(1 << 14)
	copyNs, err := nsPerOp(copies, func(i int) error {
		return m.Copy(dst+uint64(i%8)*isa.PageSize, src+uint64(i%pages)*isa.PageSize, isa.PageSize)
	})
	if err != nil {
		return nil, fmt.Errorf("mem copy: %w", err)
	}
	for k := 0; k < 8 && k < copies; k++ {
		last := (copies-1-k)/8*8 + k
		got, err := m.Read(dst+uint64(k)*isa.PageSize, isa.PageSize)
		if err != nil {
			return nil, fmt.Errorf("mem copy: %w", err)
		}
		want, err := m.Read(src+uint64(last%pages)*isa.PageSize, isa.PageSize)
		if err != nil {
			return nil, fmt.Errorf("mem copy: %w", err)
		}
		if !bytes.Equal(got, want) {
			return nil, fmt.Errorf("mem copy: destination page %d differs from its source", k)
		}
	}
	return map[string]float64{"mem.read_ns": read, "mem.write_ns": write, "mem.copy_ns_per_kib": copyNs / 4}, nil
}

// tlbDriver fills the default TLB with 64 translations of one VMID and
// looks them up; every lookup must hit with the page it was given.
func tlbDriver(s layerScale) (map[string]float64, error) {
	t := tlb.NewDefault()
	const entries = 64
	va := func(i int) uint64 { return hv.GuestRAMBase + uint64(i%entries)*isa.PageSize }
	pa := func(i int) uint64 { return platform.RAMBase + 0x0400_0000 + uint64(i%entries)*isa.PageSize }
	for i := 0; i < entries; i++ {
		t.Insert(va(i), pa(i), isa.PTERead|isa.PTEWrite|isa.PTEUser, 0, 0, 1)
	}
	ns, err := nsPerOp(s.n(1<<20), func(i int) error {
		ppn, _, _, hit := t.Lookup(va(i), 0, 1)
		if !hit || ppn != pa(i)>>isa.PageShift {
			return fmt.Errorf("tlb: lookup of %#x hit=%v ppn %#x, want %#x", va(i), hit, ppn, pa(i)>>isa.PageShift)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"tlb.lookup_ns": ns}, nil
}

// walkDriver builds a stage-2 table mapping the pages the faults workload
// touches and translates them with stage 1 bare, as a CVM's accesses are.
func walkDriver(s layerScale) (map[string]float64, error) {
	m := mem.NewPhysMemory(platform.RAMBase, 64<<20)
	next := uint64(platform.RAMBase)
	b := &ptw.Builder{Mem: m, Alloc: func() (uint64, error) {
		p := next
		next += isa.PageSize
		return p, nil
	}}
	root, err := b.NewRoot(true)
	if err != nil {
		return nil, fmt.Errorf("walk: %w", err)
	}
	pages := standardSizes.Pages
	gpa := func(i int) uint64 { return touchBase + uint64(i%pages)*isa.PageSize + uint64(i%512)*8 }
	pa := func(i int) uint64 { return platform.RAMBase + 32<<20 + uint64(i%pages)*isa.PageSize + uint64(i%512)*8 }
	for i := 0; i < pages; i++ {
		if err := b.Map(root, gpa(i)&^(isa.PageSize-1), pa(i)&^(isa.PageSize-1),
			isa.PTERead|isa.PTEWrite|isa.PTEUser, 0, true); err != nil {
			return nil, fmt.Errorf("walk: %w", err)
		}
	}
	w := &ptw.Walker{Mem: m}
	ns, err := nsPerOp(s.n(1<<18), func(i int) error {
		r, err := w.TranslateTwoStage(0, root, gpa(i), ptw.AccessRead, false)
		if err == nil && r.PA != pa(i) {
			err = fmt.Errorf("translated %#x to %#x, want %#x", gpa(i), r.PA, pa(i))
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("walk: %w", err)
	}
	return map[string]float64{"ptw.walk_ns": ns}, nil
}

// pmpDriver checks accesses against a copy of the PMP file a hart holds
// while it runs a CVM: the CVM's own secure frame must be open there and
// closed in the same hart's Normal-mode file.
func pmpDriver(s layerScale) (map[string]float64, error) {
	var cvmView pmp.Snapshot
	var saved bool
	st, err := boot(1, sm.Config{StepHook: func(h *hart.Hart, _ int) {
		if !saved {
			cvmView, saved = h.PMP.Save(), true
		}
	}}, poolSize)
	if err != nil {
		return nil, err
	}
	h := st.m.Harts[0]
	vm, err := st.createCVM(nil, h, "pmp", shutdownProgram())
	if err != nil {
		return nil, err
	}
	if _, err := st.runToShutdown(nil, h, vm); err != nil {
		return nil, err
	}
	frames, err := st.sm.MappedFrames(vm.CVMID)
	if err != nil || len(frames) == 0 || !saved {
		return nil, fmt.Errorf("pmp: no CVM frame or PMP view to check (%v)", err)
	}
	var normal, cvm pmp.Unit
	normal.Restore(h.PMP.Save())
	cvm.Restore(cvmView)
	secure := frames[0]
	if !cvm.Check(secure, 8, pmp.AccessWrite, false) || normal.Check(secure, 8, pmp.AccessWrite, false) {
		return nil, fmt.Errorf("pmp: secure frame %#x not open in CVM mode and closed in Normal mode", secure)
	}
	addrs := []uint64{secure, platform.RAMBase + 0x1000, stubBase, platform.RAMBase + ramSize + 0x1000}
	accs := []pmp.AccessType{pmp.AccessRead, pmp.AccessWrite, pmp.AccessExec}
	want := make([]bool, len(addrs)*len(accs))
	for i := range want {
		want[i] = cvm.Probe(addrs[i%len(addrs)], 8, accs[i/len(addrs)], false)
	}
	before := cvm.Stats().Checks
	n := s.n(1 << 20)
	ns, err := nsPerOp(n, func(i int) error {
		j := i % len(want)
		if got := cvm.Check(addrs[j%len(addrs)], 8, accs[j/len(addrs)], false); got != want[j] {
			return fmt.Errorf("pmp: check %d = %v, probe said %v", j, got, want[j])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if got := cvm.Stats().Checks - before; got != uint64(n+n/10+1) {
		return nil, fmt.Errorf("pmp: %d checks counted for %d calls", got, n+n/10+1)
	}
	return map[string]float64{"pmp.check_ns": ns}, nil
}

// pumpDriver drives one CVM's virtio-blk queue through its shared-window
// GuestMem the way the serving workload does: 16 chains posted, one
// doorbell, 16 completions reaped. It also times the bounce pool.
func pumpDriver(s layerScale) (map[string]float64, error) {
	st, err := boot(1, sm.Config{}, poolSize)
	if err != nil {
		return nil, err
	}
	h := st.m.Harts[0]
	vm, err := st.createCVM(nil, h, "pump", shutdownProgram())
	if err != nil {
		return nil, err
	}
	if err := st.hv.SetupSharedWindow(h, vm); err != nil {
		return nil, fmt.Errorf("pump: %w", err)
	}
	const batch, reqBytes, slot, qsize = 16, 512, 576, 64
	blk := guest.SetupBlkMQ(st.hv, vm, h, 8<<20, 1, qsize)
	gm := blk.Dev().Mem()
	l := guest.LayoutFor(true)
	dv := virtio.NewDriverView(blk.Dev().Queue(0), gm)
	var hdr [16]byte
	status := make([]byte, 1)
	segs := make([]virtio.DriverSeg, 3)
	bufs := make([]uint64, qsize) // request GPA by head descriptor
	pump := func(i int) error {
		for j := 0; j < batch; j++ {
			gpa := l.Bounce + uint64(j)*slot
			binary.LittleEndian.PutUint32(hdr[0:4], virtio.BlkTIn)
			binary.LittleEndian.PutUint64(hdr[8:16], uint64(i*batch+j)%1000)
			if err := gm.WriteBytes(gpa, hdr[:]); err != nil {
				return err
			}
			segs[0] = virtio.DriverSeg{GPA: gpa, Len: 16}
			segs[1] = virtio.DriverSeg{GPA: gpa + 64, Len: reqBytes, Writable: true}
			segs[2] = virtio.DriverSeg{GPA: gpa + 16, Len: 1, Writable: true}
			head, err := dv.PostChain(segs)
			if err != nil {
				return err
			}
			bufs[head] = gpa
		}
		blk.Dev().MMIOWrite(virtio.NotifyOffset(), 4, 0)
		if err := blk.Dev().LastErr; err != nil {
			return err
		}
		done := 0
		for {
			head, _, ok, err := dv.PollUsed()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := gm.ReadInto(bufs[head]+16, status); err != nil {
				return err
			}
			if status[0] != virtio.BlkSOK {
				return fmt.Errorf("request status %d", status[0])
			}
			done++
		}
		if done != batch {
			return fmt.Errorf("completed %d of %d chains", done, batch)
		}
		return nil
	}
	pumpNs, err := nsPerOp(s.n(20000), pump)
	if err != nil {
		return nil, fmt.Errorf("pump: %w", err)
	}

	pool := guest.NewBouncePool(gm, l, slot)
	bounceNs, err := nsPerOp(s.n(1<<17), func(int) error {
		i, _, err := pool.Alloc()
		if err != nil {
			return err
		}
		return pool.Release(i)
	})
	if err != nil {
		return nil, fmt.Errorf("bounce: %w", err)
	}
	i, gpa, err := pool.Alloc()
	if err == nil {
		err = gm.WriteBytes(gpa, []byte{0xA5})
	}
	if err == nil {
		err = pool.Release(i)
	}
	if err == nil {
		err = gm.ReadInto(gpa, status)
	}
	if err == nil && (status[0] != 0 || pool.InUse() != 0 || pool.Allocs != pool.Releases) {
		err = fmt.Errorf("slot not scrubbed or leaked: byte %#x, %d in use, %d allocs, %d releases",
			status[0], pool.InUse(), pool.Allocs, pool.Releases)
	}
	if err != nil {
		return nil, fmt.Errorf("bounce: %w", err)
	}
	return map[string]float64{"virtio.pump_ns_per_req": pumpNs / batch, "guest.bounce_ns": bounceNs}, nil
}

func observeDriver(s layerScale) (map[string]float64, error) {
	h := telemetry.NewHistogram()
	var want uint64
	n := s.n(1 << 21)
	ns, err := nsPerOp(n, func(i int) error {
		v := uint64(i)*2654435761%100_000 + 1
		want += v
		h.Observe(v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if calls := uint64(n + n/10 + 1); h.Count() != calls || h.Sum() != want {
		return nil, fmt.Errorf("telemetry: histogram holds %d values summing to %d, want %d summing to %d",
			h.Count(), h.Sum(), calls, want)
	}
	return map[string]float64{"telemetry.observe_ns": ns}, nil
}

// profilerDriver compares aes on the trace tier with the sampling
// profiler armed and off in seven adjacent pairs and reports the median
// pair's ratio, so a change in host speed between pairs cancels; the
// armed run must end in the same simulated state.
func profilerDriver(s layerScale) (map[string]float64, error) {
	scale := s.n(16000)
	off := func() (time.Duration, *hart.Hart, error) {
		return tierRun(scale, func(*hart.Hart) {}, sm.Config{SchedQuantum: tickQuantum})
	}
	armed := func() (time.Duration, *hart.Hart, error) {
		sc := telemetry.New(telemetry.Config{ProfilePeriod: telemetry.DefaultProfilePeriod}).Scope()
		return tierRun(scale, func(h *hart.Hart) {
			h.Tel = sc
			h.Prof = sc.Profiler(h.ID)
		}, sm.Config{SchedQuantum: tickQuantum, Telemetry: sc})
	}
	var ratios []float64
	var ref *hart.Hart
	for i := 0; i < 7; i++ {
		var pair [2]time.Duration
		for side, run := range []func() (time.Duration, *hart.Hart, error){off, armed} {
			d, h, err := run()
			if err != nil {
				return nil, fmt.Errorf("profiler: %w", err)
			}
			if ref == nil {
				ref = h
			} else if h.Cycles != ref.Cycles || h.Instret != ref.Instret {
				return nil, fmt.Errorf("profiler: armed run diverged: %d cycles / %d instructions vs %d / %d",
					h.Cycles, h.Instret, ref.Cycles, ref.Instret)
			}
			pair[side] = d
		}
		ratios = append(ratios, float64(pair[1])/float64(pair[0]))
	}
	pct := (median(ratios) - 1) * 100
	return map[string]float64{"telemetry.profiler_overhead_pct": pct}, nil
}

// barrierDriver runs near-empty runners under the quantum barrier at the
// minimum fixed quantum: each epoch a hart only jumps its clock to the
// deadline and waits for its peers.
func barrierDriver(s layerScale) (map[string]float64, error) {
	n := parallelHarts()
	m := platform.New(n, 1<<20)
	epochs := s.n(20000)
	runners := make([]platform.HartRunner, n)
	for i := range runners {
		runners[i] = func(h *hart.Hart) error {
			for e := 0; e < epochs; e++ {
				h.Cycles = h.QuantumDeadline
				if !h.CheckYield() {
					return fmt.Errorf("hart %d halted at epoch %d", h.ID, e)
				}
			}
			return nil
		}
	}
	cfg := platform.EngineConfig{Quantum: platform.DefaultMinQuantum}
	t0 := time.Now()
	if err := m.RunParallel(cfg, runners); err != nil {
		return nil, fmt.Errorf("barrier: %w", err)
	}
	d := time.Since(t0)
	st := m.EngineStats()
	for _, h := range m.Harts {
		if want := uint64(epochs) * cfg.Quantum; h.Cycles != want {
			return nil, fmt.Errorf("barrier: hart %d at cycle %d, want %d", h.ID, h.Cycles, want)
		}
	}
	if st.Epochs < uint64(epochs) {
		return nil, fmt.Errorf("barrier: %d epochs for %d quanta", st.Epochs, epochs)
	}
	return map[string]float64{"platform.barrier_us_per_epoch": float64(d.Nanoseconds()) / 1e3 / float64(st.Epochs)}, nil
}
