package sm

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"zion/internal/asm"
	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/platform"
)

// touchBase is the first private GPA the scrub tests' guests demand-fault.
const touchBase = PrivateBase + 0x10_0000

// touchLoop starts a private program that stores pattern to the first
// word of n fresh private pages, one demand fault each.
func touchLoop(n int, pattern int64) *asm.Program {
	p := asm.New(PrivateBase)
	p.LI(asm.T0, int64(touchBase))
	p.LI(asm.T1, int64(n))
	p.LI(asm.T2, pattern)
	p.LI(asm.T3, isa.PageSize)
	p.Label("touch")
	p.SD(asm.T2, asm.T0, 0)
	p.ADD(asm.T0, asm.T0, asm.T3)
	p.ADDI(asm.T1, asm.T1, -1)
	p.BNE(asm.T1, asm.Zero, "touch")
	return p
}

// touchProgram is touchLoop followed by a shutdown.
func touchProgram(n int, pattern int64) *asm.Program {
	p := touchLoop(n, pattern)
	p.LI(asm.A7, EIDReset)
	p.ECALL()
	return p
}

// orProgram ORs together every word of n fresh private pages, each
// demand-faulted by its first load, and shuts down with the result in a0:
// 0 exactly when every page it was handed read zero.
func orProgram(n int) *asm.Program {
	p := asm.New(PrivateBase)
	p.LI(asm.T0, int64(touchBase))
	p.LI(asm.T1, int64(n*isa.PageSize/8))
	p.LI(asm.A0, 0)
	p.Label("word")
	p.LD(asm.T2, asm.T0, 0)
	p.OR(asm.A0, asm.A0, asm.T2)
	p.ADDI(asm.T0, asm.T0, 8)
	p.ADDI(asm.T1, asm.T1, -1)
	p.BNE(asm.T1, asm.Zero, "word")
	p.LI(asm.A7, EIDReset)
	p.ECALL()
	return p
}

// cleanBit reports whether the free-list block holding pa marks it
// clean; ok is false when no free block holds pa.
func cleanBit(s *SM, pa uint64) (clean, ok bool) {
	b := blocksOf(&s.alloc.pool, nil)[pa&^uint64(BlockSize-1)]
	if b == nil {
		return false, false
	}
	return b.clean&(1<<((pa-b.base)/isa.PageSize)) != 0, true
}

// cleanFrames counts the frames the free list marks clean.
func cleanFrames(s *SM) int {
	n := 0
	for _, b := range blocksOf(&s.alloc.pool, nil) {
		n += bits.OnesCount64(b.clean)
	}
	return n
}

// shutdownA0 runs vCPU 0 of CVM id on h until the guest shuts down and
// returns its a0.
func shutdownA0(s *SM, h *hart.Hart, id int) (uint64, error) {
	for i := 0; i < 1000; i++ {
		info, err := s.RunVCPU(h, id, 0)
		if err != nil {
			return 0, err
		}
		if info.Reason == ExitShutdown {
			return info.Data, nil
		}
	}
	return 0, fmt.Errorf("cvm %d did not shut down", id)
}

func runToShutdown(t testing.TB, s *SM, h *hart.Hart, id int) uint64 {
	t.Helper()
	a0, err := shutdownA0(s, h, id)
	if err != nil {
		t.Fatal(err)
	}
	return a0
}

// owned snapshots the frames CVM id owns.
func owned(s *SM, id int) []uint64 {
	var out []uint64
	c := s.life.cvms[id]
	for pa, ok := c.owned.next(0); ok; pa, ok = c.owned.next(pa + isa.PageSize) {
		out = append(out, pa)
	}
	return out
}

// A destroyed CVM's frames come back clean: scrubbed by destroy, they
// are handed to the next CVM without a second zero, and that CVM reads
// zeros from every one of them.
func TestDestroyedFramesComeBackClean(t *testing.T) {
	const pages = 8
	f := newFixture(t, Config{AuditLifecycle: true})
	id := f.buildCVM(touchProgram(pages, -1))
	runToShutdown(t, f.s, f.h, id)
	frames := owned(f.s, id)
	if _, err := f.s.HVCall(f.h, FnDestroy, uint64(id)); err != nil {
		t.Fatal(err)
	}
	for _, pa := range frames {
		if clean, ok := cleanBit(f.s, pa); !clean || !ok {
			t.Errorf("scrubbed frame %#x not marked clean (free: %v)", pa, ok)
		}
	}
	if fs := f.s.Audit(); len(fs) != 0 {
		t.Fatalf("audit after destroy: %v", fs)
	}
	id2 := f.buildCVM(orProgram(pages))
	if got := runToShutdown(t, f.s, f.h, id2); got != 0 {
		t.Fatalf("next CVM read %#x from its clean frames, want 0", got)
	}
	reused := 0
	for _, pa := range owned(f.s, id2) {
		if slices.Contains(frames, pa) {
			reused++
		}
	}
	if reused < pages {
		t.Errorf("next CVM reused %d of the destroyed CVM's frames, want at least %d", reused, pages)
	}
}

// The auditor reads every free frame marked clean: one flipped bit in
// one of them is a clean-frame finding naming that frame.
func TestAuditFindsDirtyCleanFrame(t *testing.T) {
	f := newFixture(t, Config{})
	id := f.buildCVM(touchProgram(4, -1))
	runToShutdown(t, f.s, f.h, id)
	frames := owned(f.s, id)
	if _, err := f.s.HVCall(f.h, FnDestroy, uint64(id)); err != nil {
		t.Fatal(err)
	}
	victim := frames[len(frames)-1]
	if clean, _ := cleanBit(f.s, victim); !clean {
		t.Fatalf("frame %#x not clean after destroy", victim)
	}
	if err := f.m.RAM.FlipBit(victim+1234, 6); err != nil {
		t.Fatal(err)
	}
	fs := f.s.Audit()
	if len(fs) != 1 || fs[0].Kind != AuditCleanFrame || fs[0].Scope() != CompAlloc {
		t.Fatalf("audit = %v, want one %v finding", fs, AuditCleanFrame)
	}
	if want := fmt.Sprintf("%#x", victim); !strings.Contains(fs[0].Detail, want) {
		t.Errorf("finding %q does not name frame %s", fs[0].Detail, want)
	}
}

// Hart B destroys a CVM while its vCPU runs on hart A under the parallel
// engine. B's TLB shootdown reaches A only at A's next barrier, so A's
// guest, running code from its shared window (normal memory, which no
// scrub touches), still stores into a private frame the destroy just
// scrubbed. None of the frames may come back clean, and the next CVM to
// get them must read zeros: zero-fill on allocation wipes the stale
// store.
func TestPeerRunningDestroyLeavesFramesDirty(t *testing.T) {
	const pages, marker = 4, 0x5EC2E7
	m := platform.New(2, ramSize)
	hA, hB := m.Harts[0], m.Harts[1]
	ready, done, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var holdAt uint64
	held := false
	s, err := New(m, Config{StepHook: func(h *hart.Hart, _ int) {
		// Hold A at the store, once its shared code page and the private
		// page it stores to are both in A's TLB.
		if h == hA && h.PC == holdAt && !held {
			held = true
			close(ready)
			<-done
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	hA.Mode, hB.Mode = isa.ModeS, isa.ModeS
	if _, err := s.HVCall(hA, FnRegisterPool, poolBase, poolSize); err != nil {
		t.Fatal(err)
	}
	// Private code touches the pages and jumps to the shared window, whose
	// code stores the marker to the first page again and shuts down.
	p := touchLoop(pages, -1)
	p.LI(asm.T0, int64(SharedBase))
	p.JALR(asm.Zero, asm.T0, 0)
	q := asm.New(SharedBase)
	q.LI(asm.T0, int64(touchBase))
	q.LI(asm.T1, marker)
	q.Label("store")
	q.SD(asm.T1, asm.T0, 0)
	q.LI(asm.A7, EIDReset)
	q.ECALL()
	// The shared window: one 2 MiB RWX leaf over normal memory.
	sub, window := uint64(platform.RAMBase+0x0060_0000), uint64(platform.RAMBase+0x0080_0000)
	pte := (window>>isa.PageShift)<<isa.PTEPPNShift | isa.PTEValid | isa.PTERead |
		isa.PTEWrite | isa.PTEExec | isa.PTEUser | isa.PTEAccess | isa.PTEDirty
	if err := m.RAM.WriteUint64(sub, pte); err != nil {
		t.Fatal(err)
	}
	if err := m.RAM.Write(window, q.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	holdAt, _ = q.LabelAddr("store")
	f := &fixture{m: m, s: s, h: hA, t: t}
	id := f.buildCVM(p)
	if _, err := s.HVCall(hA, FnRegisterShared, uint64(id), sub); err != nil {
		t.Fatal(err)
	}

	var frames, clean []uint64
	var stale uint64 // the frame the held store targets
	err = m.RunParallel(platform.EngineConfig{Quantum: 1 << 40}, []platform.HartRunner{
		func(h *hart.Hart) error {
			defer close(finished)
			_, err := shutdownA0(s, h, id)
			return err
		},
		func(h *hart.Hart) error {
			defer close(done)
			select {
			case <-ready:
			case <-finished:
				return fmt.Errorf("hart A never reached the held store")
			}
			s.mu.Lock()
			frames = owned(s, id)
			_, stale, _ = s.life.cvms[id].mappings.next(touchBase)
			s.mu.Unlock()
			if _, err := s.HVCall(h, FnDestroy, uint64(id)); err != nil {
				return err
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, pa := range frames {
				if c, ok := cleanBit(s, pa); c || !ok {
					clean = append(clean, pa)
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) != 0 {
		t.Fatalf("frames %#x came back clean (or not at all) while the CVM ran on another hart", clean)
	}
	if got, err := m.RAM.ReadUint64(stale); err != nil || got != marker {
		t.Fatalf("frame %#x holds %#x (%v) after the run, want the stale store's %#x",
			stale, got, err, marker)
	}
	f.h = hB
	id2 := f.buildCVM(orProgram(pages))
	if got := runToShutdown(t, s, hB, id2); got != 0 {
		t.Fatalf("next CVM read %#x from the destroyed CVM's frames, want 0", got)
	}
	if mapped, _ := s.MappedFrames(id2); !slices.Contains(mapped, stale) {
		t.Fatalf("next CVM did not get the stale-stored frame %#x (mapped %#x)", stale, mapped)
	}
}

// BenchmarkDemandFault times the E3 path on reused frames: each op creates
// a CVM, runs it through 1,536 demand faults, and destroys it, so every
// op after the first faults on frames its predecessor's destroy scrubbed.
// 1,536 pages is the faults workload's CVM: 6 MiB, more than the host's
// caches hold between the scrub and the next fault, which is where a
// second zero of each frame costs most. ns/fault spreads the whole
// lifecycle over the faults.
func BenchmarkDemandFault(b *testing.B) {
	const pages = 1536
	f := newFixture(b, Config{})
	img := touchProgram(pages, -1)
	lifecycle := func() {
		id := f.buildCVM(img)
		runToShutdown(b, f.s, f.h, id)
		if _, err := f.s.HVCall(f.h, FnDestroy, uint64(id)); err != nil {
			b.Fatal(err)
		}
	}
	lifecycle() // the first CVM takes its frames fresh from the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lifecycle()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/fault")
}
