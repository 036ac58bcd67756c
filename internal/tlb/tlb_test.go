package tlb

import (
	"testing"
	"testing/quick"
	"unsafe"

	"zion/internal/isa"
)

func TestInsertLookup(t *testing.T) {
	tl := NewDefault()
	va, pa := uint64(0x4000_1000), uint64(0x8000_5000)
	tl.Insert(va, pa, isa.PTERead|isa.PTEWrite, 0, 1, 2)

	ppn, perms, level, hit := tl.Lookup(va+0x7FF, 1, 2)
	if !hit {
		t.Fatal("expected hit")
	}
	if ppn != pa>>isa.PageShift || level != 0 {
		t.Errorf("ppn=%#x level=%d", ppn, level)
	}
	if perms&isa.PTEWrite == 0 {
		t.Error("perms lost")
	}
	if _, _, _, hit := tl.Lookup(va, 3, 2); hit {
		t.Error("different ASID must miss")
	}
	if _, _, _, hit := tl.Lookup(va, 1, 9); hit {
		t.Error("different VMID must miss")
	}
	s := tl.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestGlobalEntriesIgnoreASID(t *testing.T) {
	tl := NewDefault()
	va := uint64(0x1000)
	tl.Insert(va, 0x8000_0000, isa.PTERead|isa.PTEGlobal, 0, 1, 0)
	if _, _, _, hit := tl.Lookup(va, 42, 0); !hit {
		t.Error("global entry must hit under any ASID")
	}
	if _, _, _, hit := tl.Lookup(va, 42, 7); hit {
		t.Error("global entries are still VMID-scoped")
	}
}

func TestSuperpageLookup(t *testing.T) {
	tl := NewDefault()
	va, pa := uint64(0x20_0000), uint64(0xC000_0000)
	tl.Insert(va, pa, isa.PTERead, 1, 0, 0)
	ppn, _, level, hit := tl.Lookup(va+0x1F_FFFF, 0, 0)
	if !hit || level != 1 {
		t.Fatalf("superpage lookup: hit=%v level=%d", hit, level)
	}
	if ppn != pa>>21 {
		t.Errorf("superpage ppn = %#x", ppn)
	}
	if _, _, _, hit := tl.Lookup(va+0x20_0000, 0, 0); hit {
		t.Error("address past superpage must miss")
	}
}

func TestFlushAll(t *testing.T) {
	tl := NewDefault()
	for i := uint64(0); i < 32; i++ {
		tl.Insert(i<<isa.PageShift, i<<isa.PageShift, isa.PTERead, 0, 0, 0)
	}
	if tl.Occupancy() == 0 {
		t.Fatal("expected valid entries")
	}
	tl.FlushAll()
	if tl.Occupancy() != 0 {
		t.Error("FlushAll left valid entries")
	}
	if tl.Stats().Flushes != 1 || tl.Stats().FlushedEnt == 0 {
		t.Errorf("stats = %+v", tl.Stats())
	}
}

func TestFlushASIDSparesGlobalsAndOtherASIDs(t *testing.T) {
	tl := NewDefault()
	tl.Insert(0x1000, 0x1000, isa.PTERead, 0, 1, 0)
	tl.Insert(0x2000, 0x2000, isa.PTERead, 0, 2, 0)
	tl.Insert(0x3000, 0x3000, isa.PTERead|isa.PTEGlobal, 0, 1, 0)
	tl.FlushASID(1, 0)
	if _, _, _, hit := tl.Lookup(0x1000, 1, 0); hit {
		t.Error("ASID 1 entry should be gone")
	}
	if _, _, _, hit := tl.Lookup(0x2000, 2, 0); !hit {
		t.Error("ASID 2 entry should survive")
	}
	if _, _, _, hit := tl.Lookup(0x3000, 1, 0); !hit {
		t.Error("global entry should survive ASID flush")
	}
}

func TestFlushVMID(t *testing.T) {
	tl := NewDefault()
	tl.Insert(0x1000, 0x1000, isa.PTERead, 0, 0, 5)
	tl.Insert(0x2000, 0x2000, isa.PTERead|isa.PTEGlobal, 0, 0, 5)
	tl.Insert(0x3000, 0x3000, isa.PTERead, 0, 0, 6)
	tl.FlushVMID(5)
	if _, _, _, hit := tl.Lookup(0x1000, 0, 5); hit {
		t.Error("VMID 5 entry should be gone")
	}
	if _, _, _, hit := tl.Lookup(0x2000, 0, 5); hit {
		t.Error("VMID 5 global entry should be gone too (hfence.gvma)")
	}
	if _, _, _, hit := tl.Lookup(0x3000, 0, 6); !hit {
		t.Error("VMID 6 entry should survive")
	}
}

func TestFlushPage(t *testing.T) {
	tl := NewDefault()
	tl.Insert(0x1000, 0x1000, isa.PTERead, 0, 1, 0)
	tl.Insert(0x20_0000, 0xC000_0000, isa.PTERead, 1, 1, 0) // superpage
	tl.FlushPage(0x1000, 1, 0)
	if _, _, _, hit := tl.Lookup(0x1000, 1, 0); hit {
		t.Error("flushed page should miss")
	}
	// Flushing an address inside the superpage kills the superpage entry.
	tl.FlushPage(0x2F_0000, 1, 0)
	if _, _, _, hit := tl.Lookup(0x20_0000, 1, 0); hit {
		t.Error("superpage covering flushed VA should be gone")
	}
}

func TestLRUEviction(t *testing.T) {
	tl := New(1, 2) // single set, 2 ways
	tl.Insert(0x1000, 0x1000, isa.PTERead, 0, 0, 0)
	tl.Insert(0x2000, 0x2000, isa.PTERead, 0, 0, 0)
	// Touch the first entry so the second is LRU.
	tl.Lookup(0x1000, 0, 0)
	tl.Insert(0x3000, 0x3000, isa.PTERead, 0, 0, 0)
	if _, _, _, hit := tl.Lookup(0x1000, 0, 0); !hit {
		t.Error("recently used entry was evicted")
	}
	if _, _, _, hit := tl.Lookup(0x2000, 0, 0); hit {
		t.Error("LRU entry should have been evicted")
	}
}

func TestGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on zero ways")
		}
	}()
	New(4, 0)
}

func TestResetStats(t *testing.T) {
	tl := NewDefault()
	tl.Lookup(0, 0, 0)
	tl.ResetStats()
	if s := tl.Stats(); s != (Stats{}) {
		t.Errorf("stats after reset = %+v", s)
	}
}

// Property: inserting then looking up under the same tags always hits and
// returns the inserted frame.
func TestInsertLookupProperty(t *testing.T) {
	tl := NewDefault()
	f := func(vaSeed, paSeed uint32, asid, vmid uint16) bool {
		va := uint64(vaSeed) << isa.PageShift
		pa := uint64(paSeed) << isa.PageShift
		tl.Insert(va, pa, isa.PTERead, 0, asid, vmid)
		ppn, _, _, hit := tl.Lookup(va, asid, vmid)
		return hit && ppn == pa>>isa.PageShift
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A TLB fills two whole cache lines, so two harts' TLBs allocated side
// by side never share one: every hit writes tick and stats. A 128-byte
// object lands in Go's 128-byte size class, whose slots start on line
// boundaries. Adding a field means shrinking the pad.
func TestTLBFillsWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(TLB{}); n != 128 {
		t.Errorf("sizeof(TLB) = %d, want 128", n)
	}
}

// fullSet fills set 0 of a 16-set, 4-way TLB with vpns 0, 16, 32, 48 and
// touches them out of insertion order, so the LRU stamps are distinct and
// way 2 (vpn 32) is the least recently used.
func fullSet(t *testing.T) *TLB {
	t.Helper()
	tl := New(16, 4)
	for k := uint64(0); k < 4; k++ {
		tl.Insert(16*k<<isa.PageShift, 0x8000_0000+k<<isa.PageShift, isa.PTERead, 0, 0, 0)
	}
	for _, vpn := range []uint64{0, 48, 16} {
		if _, _, _, hit := tl.Lookup(vpn<<isa.PageShift, 0, 0); !hit {
			t.Fatalf("vpn %d missed", vpn)
		}
	}
	return tl
}

// sameTLB fails unless a and b agree on the tick, every entry (LRU stamps
// included) and the statistics.
func sameTLB(t *testing.T, tag string, a, b *TLB) {
	t.Helper()
	if a.tick != b.tick || a.stats != b.stats || a.gen != b.gen {
		t.Fatalf("%s: tick/stats/gen %d/%+v/%d vs %d/%+v/%d", tag, a.tick, a.stats, a.gen, b.tick, b.stats, b.gen)
	}
	for i := range a.arr {
		if a.arr[i] != b.arr[i] {
			t.Fatalf("%s: entry %d = %+v vs %+v", tag, i, a.arr[i], b.arr[i])
		}
	}
}

// TouchN(idx, n) leaves exactly the state n calls of Touch(idx) leave:
// the same tick, LRU stamps and statistics, and therefore the same victim
// for the next Insert into the set.
func TestTouchNMatchesRepeatedTouch(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 1000} {
		for idx := 0; idx < 4; idx++ {
			batched, single := fullSet(t), fullSet(t)
			batched.TouchN(idx, n)
			for j := uint64(0); j < n; j++ {
				single.Touch(idx)
			}
			sameTLB(t, "after touch", batched, single)
			// vpn 64 maps to set 0: the victim is the LRU way.
			batched.Insert(64<<isa.PageShift, 0x9000_0000, isa.PTERead, 0, 0, 0)
			single.Insert(64<<isa.PageShift, 0x9000_0000, isa.PTERead, 0, 0, 0)
			sameTLB(t, "after insert", batched, single)
		}
	}
}

// TouchN with n == 0 credits nothing: the tick, the entry's LRU stamp and
// the statistics stay as they were.
func TestTouchNZeroIsNoOp(t *testing.T) {
	tl, ref := fullSet(t), fullSet(t)
	tl.TouchN(2, 0)
	sameTLB(t, "TouchN(2, 0)", tl, ref)
}
