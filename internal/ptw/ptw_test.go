package ptw

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"zion/internal/isa"
	"zion/internal/mem"
)

const ramBase = 0x8000_0000

// bumpAlloc is a trivial frame allocator over a RAM region.
type bumpAlloc struct {
	next uint64
	end  uint64
}

func (a *bumpAlloc) alloc() (uint64, error) {
	if a.next >= a.end {
		return 0, errors.New("bumpAlloc: exhausted")
	}
	p := a.next
	a.next += isa.PageSize
	return p, nil
}

func newEnv(t *testing.T) (*mem.PhysMemory, *Builder, *Walker) {
	t.Helper()
	ram := mem.NewPhysMemory(ramBase, 64<<20)
	a := &bumpAlloc{next: ramBase + 1<<20, end: ramBase + 32<<20}
	b := &Builder{Mem: ram, Alloc: a.alloc}
	return ram, b, &Walker{Mem: ram}
}

func TestMapWalk4K(t *testing.T) {
	ram, b, w := newEnv(t)
	root, err := b.NewRoot(false)
	if err != nil {
		t.Fatal(err)
	}
	va, pa := uint64(0x4000_1000), uint64(ramBase+0x40_0000)
	if err := b.Map(root, va, pa, isa.PTERead|isa.PTEWrite, 0, false); err != nil {
		t.Fatal(err)
	}
	res, err := w.Walk(root, va+0x123, AccessRead, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != pa+0x123 {
		t.Errorf("PA = %#x, want %#x", res.PA, pa+0x123)
	}
	if res.Level != 0 {
		t.Errorf("Level = %d, want 0", res.Level)
	}
	if res.Steps != 3 {
		t.Errorf("Steps = %d, want 3 (three-level walk)", res.Steps)
	}
	// A bit was set by the walk.
	pte, _ := ram.ReadUint64(res.PTEAddr)
	if pte&isa.PTEAccess == 0 {
		t.Error("A bit not set after read")
	}
	if pte&isa.PTEDirty != 0 {
		t.Error("D bit must not be set by a read")
	}
	// Write sets D.
	if _, err := w.Walk(root, va, AccessWrite, Opts{}); err != nil {
		t.Fatal(err)
	}
	pte, _ = ram.ReadUint64(res.PTEAddr)
	if pte&isa.PTEDirty == 0 {
		t.Error("D bit not set after write")
	}
}

func TestWalkFaults(t *testing.T) {
	_, b, w := newEnv(t)
	root, _ := b.NewRoot(false)
	va := uint64(0x4000_0000)
	if err := b.Map(root, va, ramBase+0x50_0000, isa.PTERead, 0, false); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		va   uint64
		acc  Access
		want uint64 // expected cause
	}{
		{"unmapped", 0x7000_0000, AccessRead, isa.ExcLoadPageFault},
		{"write to read-only", va, AccessWrite, isa.ExcStorePageFault},
		{"fetch from non-exec", va, AccessFetch, isa.ExcInstPageFault},
		{"out of range", 1 << 39, AccessRead, isa.ExcLoadPageFault},
	}
	for _, c := range cases {
		_, err := w.Walk(root, c.va, c.acc, Opts{})
		var pf *PageFault
		if !errors.As(err, &pf) {
			t.Errorf("%s: err = %v, want PageFault", c.name, err)
			continue
		}
		if pf.Cause() != c.want {
			t.Errorf("%s: cause = %d (%s), want %d", c.name, pf.Cause(), pf.Error(), c.want)
		}
		if pf.GuestPage {
			t.Errorf("%s: stage-1 fault marked as guest fault", c.name)
		}
	}
}

func TestUserSupervisorPerms(t *testing.T) {
	_, b, w := newEnv(t)
	root, _ := b.NewRoot(false)
	uva, sva := uint64(0x1000), uint64(0x2000)
	if err := b.Map(root, uva, ramBase+0x60_0000, isa.PTERead|isa.PTEUser, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := b.Map(root, sva, ramBase+0x60_1000, isa.PTERead, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Walk(root, uva, AccessRead, Opts{User: true}); err != nil {
		t.Errorf("user read of user page: %v", err)
	}
	if _, err := w.Walk(root, sva, AccessRead, Opts{User: true}); err == nil {
		t.Error("user read of supervisor page must fault")
	}
	if _, err := w.Walk(root, uva, AccessRead, Opts{}); err == nil {
		t.Error("supervisor read of user page without SUM must fault")
	}
	if _, err := w.Walk(root, uva, AccessRead, Opts{SUM: true}); err != nil {
		t.Errorf("supervisor read with SUM: %v", err)
	}
}

func TestMXR(t *testing.T) {
	_, b, w := newEnv(t)
	root, _ := b.NewRoot(false)
	va := uint64(0x3000)
	if err := b.Map(root, va, ramBase+0x61_0000, isa.PTEExec, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Walk(root, va, AccessRead, Opts{}); err == nil {
		t.Error("read of X-only page without MXR must fault")
	}
	if _, err := w.Walk(root, va, AccessRead, Opts{MXR: true}); err != nil {
		t.Errorf("read of X-only page with MXR: %v", err)
	}
}

func TestSuperpage2M(t *testing.T) {
	_, b, w := newEnv(t)
	root, _ := b.NewRoot(false)
	va, pa := uint64(0x20_0000), uint64(ramBase+0x200000)
	if err := b.Map(root, va, pa, isa.PTERead|isa.PTEWrite, 1, false); err != nil {
		t.Fatal(err)
	}
	res, err := w.Walk(root, va+0x12345, AccessRead, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != pa+0x12345 || res.Level != 1 || res.Steps != 2 {
		t.Errorf("superpage walk: %+v", res)
	}
}

func TestMisalignedSuperpageFaults(t *testing.T) {
	ram, b, w := newEnv(t)
	root, _ := b.NewRoot(false)
	// Build a bogus level-1 leaf whose PPN is not 2 MiB aligned, by hand.
	sub, _ := b.Alloc()
	_ = ram.Zero(sub, isa.PageSize)
	rootSlot := RootSlotFor(0, false)
	_ = ram.WriteUint64(root+rootSlot*8, (sub>>isa.PageShift)<<isa.PTEPPNShift|isa.PTEValid)
	badPPN := uint64(ramBase+0x1000) >> isa.PageShift // 4K-aligned only
	_ = ram.WriteUint64(sub+0, badPPN<<isa.PTEPPNShift|isa.PTEValid|isa.PTERead)
	_, err := w.Walk(root, 0, AccessRead, Opts{})
	var pf *PageFault
	if !errors.As(err, &pf) {
		t.Fatalf("misaligned superpage must fault, got %v", err)
	}
	if pf.Reason.String() != "misaligned superpage at level 1" {
		t.Errorf("Reason = %q", pf.Reason)
	}
}

func TestReservedWWithoutR(t *testing.T) {
	ram, b, w := newEnv(t)
	root, _ := b.NewRoot(false)
	slot := RootSlotFor(0, false)
	_ = ram.WriteUint64(root+slot*8, (uint64(ramBase+0x1000)>>isa.PageShift)<<isa.PTEPPNShift|isa.PTEValid|isa.PTEWrite)
	if _, err := w.Walk(root, 0, AccessRead, Opts{}); err == nil {
		t.Error("W-without-R encoding must fault")
	}
	_ = b
}

func TestNoADFaults(t *testing.T) {
	_, b, w := newEnv(t)
	root, _ := b.NewRoot(false)
	va := uint64(0x5000)
	if err := b.Map(root, va, ramBase+0x62_0000, isa.PTERead|isa.PTEWrite, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Walk(root, va, AccessRead, Opts{NoAD: true}); err == nil {
		t.Error("Svade semantics: stale A bit must fault")
	}
	// Hardware-update first, then NoAD read succeeds but NoAD write faults.
	if _, err := w.Walk(root, va, AccessRead, Opts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Walk(root, va, AccessRead, Opts{NoAD: true}); err != nil {
		t.Errorf("A set, NoAD read: %v", err)
	}
	if _, err := w.Walk(root, va, AccessWrite, Opts{NoAD: true}); err == nil {
		t.Error("stale D bit must fault NoAD writes")
	}
}

func TestDoubleMapRejected(t *testing.T) {
	_, b, _ := newEnv(t)
	root, _ := b.NewRoot(false)
	va := uint64(0x6000)
	if err := b.Map(root, va, ramBase+0x63_0000, isa.PTERead, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := b.Map(root, va, ramBase+0x64_0000, isa.PTERead, 0, false); err == nil {
		t.Error("remap of a mapped VA must fail")
	}
}

func TestUnmapAndLookup(t *testing.T) {
	_, b, w := newEnv(t)
	root, _ := b.NewRoot(false)
	va := uint64(0x7000)
	if err := b.Map(root, va, ramBase+0x65_0000, isa.PTERead, 0, false); err != nil {
		t.Fatal(err)
	}
	if pte, level, err := b.Lookup(root, va, false); err != nil || level != 0 || pte&isa.PTEValid == 0 {
		t.Errorf("Lookup: pte=%#x level=%d err=%v", pte, level, err)
	}
	old, err := b.Unmap(root, va, false)
	if err != nil {
		t.Fatal(err)
	}
	if old&isa.PTEValid == 0 {
		t.Error("Unmap should return the old valid PTE")
	}
	if _, err := w.Walk(root, va, AccessRead, Opts{}); err == nil {
		t.Error("walk after unmap must fault")
	}
	if _, _, err := b.Lookup(root, va, false); err == nil {
		t.Error("lookup after unmap must fail")
	}
}

func TestProtect(t *testing.T) {
	_, b, w := newEnv(t)
	root, _ := b.NewRoot(false)
	va := uint64(0x8000)
	if err := b.Map(root, va, ramBase+0x66_0000, isa.PTERead|isa.PTEWrite, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Protect(root, va, isa.PTERead, false); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Walk(root, va, AccessWrite, Opts{}); err == nil {
		t.Error("write after downgrade to read-only must fault")
	}
	if _, err := w.Walk(root, va, AccessRead, Opts{}); err != nil {
		t.Errorf("read after downgrade: %v", err)
	}
}

func TestStage2WalkAndUserBitRule(t *testing.T) {
	ram, b, w := newEnv(t)
	root, err := b.NewRoot(true)
	if err != nil {
		t.Fatal(err)
	}
	if RootSize(true) != 4*isa.PageSize {
		t.Fatal("Sv39x4 root must be 16 KiB")
	}
	gpa, pa := uint64(0x8000_0000), uint64(ramBase+0x70_0000)
	// G-stage leaves must carry U.
	if err := b.Map(root, gpa, pa, isa.PTERead|isa.PTEWrite|isa.PTEUser, 0, true); err != nil {
		t.Fatal(err)
	}
	res, err := w.Walk(root, gpa+4, AccessRead, Opts{Stage2: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != pa+4 {
		t.Errorf("stage-2 PA = %#x, want %#x", res.PA, pa+4)
	}
	// A leaf lacking U faults.
	gpa2 := uint64(0x8100_0000)
	if err := b.Map(root, gpa2, pa+isa.PageSize, isa.PTERead, 0, true); err != nil {
		t.Fatal(err)
	}
	_, err = w.Walk(root, gpa2, AccessRead, Opts{Stage2: true})
	var pf *PageFault
	if !errors.As(err, &pf) || !pf.GuestPage {
		t.Errorf("stage-2 leaf without U: err = %v, want guest-page fault", err)
	}
	if pf.Cause() != isa.ExcLoadGuestPageFault {
		t.Errorf("cause = %d, want load guest-page fault", pf.Cause())
	}
	_ = ram
}

func TestStage2WideRootIndex(t *testing.T) {
	_, b, w := newEnv(t)
	root, _ := b.NewRoot(true)
	// A GPA above 2^39 exercises the widened Sv39x4 root index.
	gpa := uint64(1)<<40 | 0x1000
	pa := uint64(ramBase + 0x71_0000)
	if err := b.Map(root, gpa, pa, isa.PTERead|isa.PTEUser, 0, true); err != nil {
		t.Fatal(err)
	}
	res, err := w.Walk(root, gpa, AccessRead, Opts{Stage2: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != pa {
		t.Errorf("wide-index PA = %#x, want %#x", res.PA, pa)
	}
	if _, err := w.Walk(root, 1<<41, AccessRead, Opts{Stage2: true}); err == nil {
		t.Error("GPA past 2^41 must fault")
	}
}

func TestTwoStageTranslation(t *testing.T) {
	ram, b, w := newEnv(t)
	// Guest stage-1 tree lives in guest-physical space; build the G-stage
	// first, identity-mapping a window of GPAs onto host frames.
	hgatp, _ := b.NewRoot(true)
	for i := uint64(0); i < 16; i++ {
		gpa := 0x8000_0000 + i*isa.PageSize
		hpa := uint64(ramBase) + 0x100_0000 + i*isa.PageSize
		if err := b.Map(hgatp, gpa, hpa, isa.PTERead|isa.PTEWrite|isa.PTEExec|isa.PTEUser, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	// The guest's stage-1 root is at GPA 0x8000_0000 (host ramBase+0x100_0000).
	// Map guest VA 0x10_0000 -> GPA 0x8000_4000 via hand-written PTEs in
	// guest memory (through the host frames).
	hostRoot := uint64(ramBase) + 0x100_0000
	l1 := uint64(ramBase) + 0x100_1000 // GPA 0x8000_1000
	l0 := uint64(ramBase) + 0x100_2000 // GPA 0x8000_2000
	writePTE := func(hostTable uint64, idx uint64, ppnGPA uint64, flags uint64) {
		_ = ram.WriteUint64(hostTable+idx*8, (ppnGPA>>isa.PageShift)<<isa.PTEPPNShift|flags|isa.PTEValid)
	}
	va := uint64(0x10_0000)
	writePTE(hostRoot, vpn(va, 2, false), 0x8000_1000, 0)
	writePTE(l1, vpn(va, 1, false), 0x8000_2000, 0)
	writePTE(l0, vpn(va, 0, false), 0x8000_4000, isa.PTERead|isa.PTEWrite)

	res, err := w.TranslateTwoStage(0x8000_0000, hgatp, va+0x18, AccessRead, false)
	if err != nil {
		t.Fatal(err)
	}
	wantPA := uint64(ramBase) + 0x100_4000 + 0x18
	if res.PA != wantPA {
		t.Errorf("two-stage PA = %#x, want %#x", res.PA, wantPA)
	}
	if res.GPA != 0x8000_4018 {
		t.Errorf("GPA = %#x, want 0x8000_4018", res.GPA)
	}
	// Nested walk: 3 stage-1 fetches, each with a 3-step G-walk, plus the
	// A/D-update G-walks and the final 3-step G-walk. At minimum 3*3+3+3.
	if res.Steps < 12 {
		t.Errorf("Steps = %d, want >= 12 for a full nested walk", res.Steps)
	}

	// Bare stage-1: VA is used as GPA directly.
	bare, err := w.TranslateTwoStage(0, hgatp, 0x8000_4000, AccessWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	if bare.PA != uint64(ramBase)+0x100_4000 {
		t.Errorf("bare PA = %#x", bare.PA)
	}

	// A GPA the G-stage does not map raises a guest-page fault carrying
	// the GPA, not the VA.
	writePTE(l0, vpn(va+isa.PageSize, 0, false), 0x9000_0000, isa.PTERead)
	_, err = w.TranslateTwoStage(0x8000_0000, hgatp, va+isa.PageSize, AccessRead, false)
	var pf *PageFault
	if !errors.As(err, &pf) || !pf.GuestPage {
		t.Fatalf("want guest-page fault, got %v", err)
	}
	if pf.Addr != 0x9000_0000 {
		t.Errorf("guest fault Addr = %#x, want the GPA 0x9000_0000", pf.Addr)
	}
}

func TestSpliceRootEntry(t *testing.T) {
	ram, b, w := newEnv(t)
	root, _ := b.NewRoot(true)
	// Build a detached subtable mapping one page, then splice it in.
	sub, _ := b.Alloc()
	_ = ram.Zero(sub, isa.PageSize)
	gpa := uint64(3) << 30 // slot 3 of the root
	slot := RootSlotFor(gpa, true)
	if slot != 3 {
		t.Fatalf("RootSlotFor = %d, want 3", slot)
	}
	// Hand-build level-1 and level-0 under the subtable... simpler: use a
	// second builder root region. Map through the main builder after splice.
	if err := b.SpliceRootEntry(root, slot, sub, true); err != nil {
		t.Fatal(err)
	}
	// Now Map() will descend through the spliced subtable.
	pa := uint64(ramBase + 0x72_0000)
	if err := b.Map(root, gpa, pa, isa.PTERead|isa.PTEUser, 0, true); err != nil {
		t.Fatal(err)
	}
	res, err := w.Walk(root, gpa, AccessRead, Opts{Stage2: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != pa {
		t.Errorf("PA = %#x, want %#x", res.PA, pa)
	}
	// The level-1 table allocated by Map must descend from sub, proving the
	// splice took effect.
	e, err := b.ReadRootEntry(root, slot, true)
	if err != nil || (e>>isa.PTEPPNShift)<<isa.PageShift != sub {
		t.Errorf("root entry %#x does not point at spliced subtable %#x", e, sub)
	}
	if err := b.SpliceRootEntry(root, 4096, sub, true); err == nil {
		t.Error("out-of-range slot must fail")
	}
	if _, err := b.ReadRootEntry(root, 4096, true); err == nil {
		t.Error("out-of-range read must fail")
	}
}

// Property: for random 4K mappings, walk(va) == pa + offset for any offset.
func TestMapWalkProperty(t *testing.T) {
	_, b, w := newEnv(t)
	root, _ := b.NewRoot(false)
	used := map[uint64]bool{}
	f := func(vaSeed, paSeed uint32, off uint16) bool {
		va := (uint64(vaSeed) << isa.PageShift) % (1 << 39) &^ (isa.PageSize - 1)
		if used[va] {
			return true
		}
		used[va] = true
		pa := uint64(ramBase) + 0x200_0000 + uint64(paSeed%4096)*isa.PageSize
		if err := b.Map(root, va, pa, isa.PTERead, 0, false); err != nil {
			return false
		}
		res, err := w.Walk(root, va+uint64(off)%isa.PageSize, AccessRead, Opts{})
		return err == nil && res.PA == pa+uint64(off)%isa.PageSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMapParameterValidation(t *testing.T) {
	_, b, _ := newEnv(t)
	root, _ := b.NewRoot(false)
	if err := b.Map(root, 0x1001, ramBase, isa.PTERead, 0, false); err == nil {
		t.Error("unaligned va must fail")
	}
	if err := b.Map(root, 0x20_0000, ramBase+0x1000, isa.PTERead, 1, false); err == nil {
		t.Error("2M-unaligned pa at level 1 must fail")
	}
	if err := b.Map(root, 0, ramBase, isa.PTERead, 3, false); err == nil {
		t.Error("bad level must fail")
	}
	if err := b.Map(root, 1<<39, ramBase, isa.PTERead, 0, false); err == nil {
		t.Error("out-of-range va must fail")
	}
}

func TestFaultErrorString(t *testing.T) {
	pf := &PageFault{Addr: 0x1234, Access: AccessWrite, GuestPage: true, Reason: faultNotWritable}
	if got, want := pf.Error(), "ptw: guest-page fault on write at 0x1234: page not writable"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	if FaultReason(200).String() != "fault reason 200" {
		t.Errorf("out-of-range reason = %q", FaultReason(200).String())
	}
	for r := faultRange; r < numFaultReasons; r++ {
		if r.String() == "" {
			t.Errorf("reason %d has no text", r)
		}
	}
	if AccessRead.String() != "read" || AccessWrite.String() != "write" || AccessFetch.String() != "fetch" || Access(9).String() != "?" {
		t.Error("Access.String mismatch")
	}
}

// A PTE fetch that escapes RAM keeps the memory's own error text in the
// fault's, rebuilt from the PTE address; Lookup returns the same fault.
func TestWalkEscapeErrorText(t *testing.T) {
	ram, _, w := newEnv(t)
	root := ram.Base() + ram.Size() // the whole root table lies past RAM
	const gpa = 0x8000_0000
	_, err := w.Walk(root, gpa, AccessRead, Opts{Stage2: true})
	pte := root + vpn(gpa, Levels-1, true)*8
	want := fmt.Sprintf("ptw: guest-page fault on read at %#x: PTE fetch escaped RAM: "+
		"mem: read [%#x,+8) outside RAM [%#x,+%#x)", gpa, pte, ram.Base(), ram.Size())
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	var pf *PageFault
	if !errors.As(err, &pf) || pf.Reason != faultPTEFetchEscape || pf.PTEAddr != pte {
		t.Fatalf("fault = %+v", pf)
	}
	if _, f, ok := w.Lookup(root, gpa, AccessRead, Opts{Stage2: true}); ok || f != *pf {
		t.Errorf("Lookup = %+v, %v; want %+v, false", f, ok, *pf)
	}
}

// stage2Miss builds a stage-2 tree with one mapped page and returns GPAs
// that miss at each level: index i faults on an invalid PTE at level i.
func stage2Miss(t testing.TB, b *Builder) (root uint64, miss [Levels]uint64) {
	t.Helper()
	root, err := b.NewRoot(true)
	if err != nil {
		t.Fatal(err)
	}
	gpa := uint64(0x8000_0000)
	if err := b.Map(root, gpa, ramBase+0x70_0000, isa.PTERead|isa.PTEWrite|isa.PTEUser, 0, true); err != nil {
		t.Fatal(err)
	}
	return root, [Levels]uint64{gpa + isa.PageSize, gpa + 0x40_0000, gpa + 0x4000_0000}
}

// A walk fault is the stage-2 miss behind every MMIO exit and every
// demand fault. Its reason keeps the per-level text; Walk boxes it as the
// *PageFault it returns, and Lookup, the trap path's walk, returns the
// same fault by value and allocates nothing.
func TestWalkFaultReasonAllocs(t *testing.T) {
	_, b, w := newEnv(t)
	root, miss := stage2Miss(t, b)
	want := [Levels]string{"invalid PTE at level 0", "invalid PTE at level 1", "invalid PTE at level 2"}
	for level, gpa := range miss {
		_, err := w.Walk(root, gpa, AccessRead, Opts{Stage2: true})
		var pf *PageFault
		if !errors.As(err, &pf) || !pf.GuestPage {
			t.Fatalf("gpa %#x: err = %v, want guest-page fault", gpa, err)
		}
		if pf.Reason.String() != want[level] {
			t.Errorf("gpa %#x: Reason = %q, want %q", gpa, pf.Reason, want[level])
		}
		if _, f, ok := w.Lookup(root, gpa, AccessRead, Opts{Stage2: true}); ok || f != *pf {
			t.Errorf("gpa %#x: Lookup = %+v, %v; want %+v, false", gpa, f, ok, *pf)
		}
		allocs := testing.AllocsPerRun(100, func() {
			_, _, _ = w.Lookup(root, gpa, AccessWrite, Opts{Stage2: true})
		})
		if allocs != 0 {
			t.Errorf("gpa %#x: walk fault allocates %v objects, want 0", gpa, allocs)
		}
	}

	// The nested stage-1 walk reports the same text: an empty VS root
	// faults at level 2.
	vsRoot := uint64(0x8000_0000) // mapped, all-zero guest page
	_, err := w.TranslateTwoStage(vsRoot, root, 0x10_0000, AccessRead, false)
	var pf *PageFault
	if !errors.As(err, &pf) || pf.GuestPage {
		t.Fatalf("nested walk: err = %v, want stage-1 fault", err)
	}
	if pf.Reason.String() != "invalid PTE at level 2" {
		t.Errorf("nested walk: Reason = %q", pf.Reason)
	}
	var out TwoStageResult
	if f, ok := w.LookupTwoStage(&out, vsRoot, root, 0x10_0000, AccessRead, false); ok || f != *pf {
		t.Errorf("nested LookupTwoStage = %+v, %v; want %+v, false", f, ok, *pf)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, _ = w.LookupTwoStage(&out, vsRoot, root, 0x10_0000, AccessRead, false)
	})
	if allocs != 0 {
		t.Errorf("nested walk fault allocates %v objects, want 0", allocs)
	}
}

// BenchmarkWalkFault times a stage-2 walk that misses on an invalid leaf
// PTE, the translation cost of one demand fault or MMIO exit.
func BenchmarkWalkFault(b *testing.B) {
	ram := mem.NewPhysMemory(ramBase, 64<<20)
	a := &bumpAlloc{next: ramBase + 1<<20, end: ramBase + 32<<20}
	bld := &Builder{Mem: ram, Alloc: a.alloc}
	w := &Walker{Mem: ram}
	root, miss := stage2Miss(b, bld)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := w.Lookup(root, miss[0], AccessRead, Opts{Stage2: true}); ok {
			b.Fatal("walk did not fault")
		}
	}
}
