package tlb

import (
	"fmt"
	"math/rand"
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

// New rejects a non-positive geometry and a set count that is not a
// power of two (the set index is a mask).
func TestGeometryValidation(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{4, 0}, {3, 4}, {6, 4}, {12, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", g.sets, g.ways)
				}
			}()
			New(g.sets, g.ways)
		}()
	}
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
	for i := range a.tags {
		if a.tags[i] != b.tags[i] || a.pay[i] != b.pay[i] {
			t.Fatalf("%s: entry %d = %+v %+v vs %+v %+v", tag, i, a.tags[i], a.pay[i], b.tags[i], b.pay[i])
		}
	}
}

// TouchN(idx, n) leaves exactly the state n Lookup hits on entry idx
// leave: the same tick, LRU stamps and statistics, and therefore the same
// victim for the next Insert into the set.
func TestTouchNMatchesRepeatedTouch(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 1000} {
		for idx := 0; idx < 4; idx++ {
			batched, single := fullSet(t), fullSet(t)
			batched.TouchN(idx, n)
			// fullSet put vpn 16*idx in way idx of set 0.
			va := 16 * uint64(idx) << isa.PageShift
			for j := uint64(0); j < n; j++ {
				if _, _, _, hit := single.Lookup(va, 0, 0); !hit {
					t.Fatalf("way %d missed", idx)
				}
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

// modelVA draws addresses whose page numbers collide at every level:
// level-0 pages fall into two sets, so sets fill and evict, and the
// level-1 and level-2 pages overlap the level-0 ones.
func modelVA(r *rand.Rand) uint64 {
	vpn := uint64(r.Intn(4))<<18 | uint64(r.Intn(4))<<9 | uint64(r.Intn(4))*16 + uint64(r.Intn(2))
	return vpn<<isa.PageShift | uint64(r.Intn(1<<isa.PageShift))
}

// TestTLBMatchesModel drives TLB and refTLB, the whole-entry TLB it
// replaced, through the same seeded operations on both geometries in
// use and compares, after every operation, each return value, the
// statistics, the generation, the occupancy and the way the next Insert
// into every set would replace.
func TestTLBMatchesModel(t *testing.T) {
	const ops = 20000
	for _, g := range []struct{ sets, ways int }{{16, 4}, {1, 2}} {
		r := rand.New(rand.NewSource(int64(g.sets<<8 | g.ways)))
		dut, ref := New(g.sets, g.ways), newRefTLB(g.sets, g.ways)
		type ctx struct {
			va         uint64
			asid, vmid uint16
		}
		var recent [8]ctx
		pick := func() ctx {
			if r.Intn(10) < 7 {
				c := recent[r.Intn(len(recent))]
				c.va ^= uint64(r.Intn(1 << isa.PageShift))
				return c
			}
			return ctx{modelVA(r), uint16(r.Intn(3)), uint16(r.Intn(3))}
		}
		var evictions, touches int
		for op := 0; op < ops; op++ {
			c := pick()
			var what string
			switch k := r.Intn(100); {
			case k < 35:
				level := r.Intn(3)
				perms := uint64(r.Intn(1<<10)) &^ isa.PTEGlobal
				if r.Intn(4) == 0 {
					perms |= isa.PTEGlobal
				}
				c = ctx{modelVA(r), uint16(r.Intn(3)), uint16(r.Intn(3))}
				recent[op%len(recent)] = c
				pa := r.Uint64() & (1<<50 - 1)
				what = fmt.Sprintf("Insert(%#x, %#x, %#x, %d, %d, %d)", c.va, pa, perms, level, c.asid, c.vmid)
				if v := ref.victim(ref.setBase(c.va >> uint(isa.PageShift+9*level))); ref.arr[v].valid {
					evictions++
				}
				dut.Insert(c.va, pa, perms, level, c.asid, c.vmid)
				ref.Insert(c.va, pa, perms, level, c.asid, c.vmid)
			case k < 60:
				what = fmt.Sprintf("Lookup(%#x, %d, %d)", c.va, c.asid, c.vmid)
				p1, f1, l1, h1 := dut.Lookup(c.va, c.asid, c.vmid)
				p2, f2, l2, h2 := ref.Lookup(c.va, c.asid, c.vmid)
				if p1 != p2 || f1 != f2 || l1 != l2 || h1 != h2 {
					t.Fatalf("op %d %s: got %#x %#x %d %v, model %#x %#x %d %v", op, what, p1, f1, l1, h1, p2, f2, l2, h2)
				}
			case k < 88:
				n := uint64(r.Intn(4))
				what = fmt.Sprintf("Peek(%#x, %d, %d)+TouchN(%d)", c.va, c.asid, c.vmid, n)
				i1, p1, f1, l1, h1 := dut.Peek(c.va, c.asid, c.vmid)
				i2, p2, f2, l2, h2 := ref.Peek(c.va, c.asid, c.vmid)
				if i1 != i2 || p1 != p2 || f1 != f2 || l1 != l2 || h1 != h2 {
					t.Fatalf("op %d %s: got %d %#x %#x %d %v, model %d %#x %#x %d %v", op, what, i1, p1, f1, l1, h1, i2, p2, f2, l2, h2)
				}
				if h1 {
					touches++
					dut.TouchN(i1, n)
					ref.TouchN(i2, n)
				}
			case k < 91:
				what = "FlushAll()"
				dut.FlushAll()
				ref.FlushAll()
			case k < 94:
				what = fmt.Sprintf("FlushASID(%d, %d)", c.asid, c.vmid)
				dut.FlushASID(c.asid, c.vmid)
				ref.FlushASID(c.asid, c.vmid)
			case k < 97:
				what = fmt.Sprintf("FlushVMID(%d)", c.vmid)
				dut.FlushVMID(c.vmid)
				ref.FlushVMID(c.vmid)
			default:
				what = fmt.Sprintf("FlushPage(%#x, %d, %d)", c.va, c.asid, c.vmid)
				dut.FlushPage(c.va, c.asid, c.vmid)
				ref.FlushPage(c.va, c.asid, c.vmid)
			}
			if dut.Stats() != ref.stats || dut.Gen() != ref.gen || dut.tick != ref.tick {
				t.Fatalf("op %d %s: stats/gen/tick %+v/%d/%d, model %+v/%d/%d", op, what, dut.Stats(), dut.Gen(), dut.tick, ref.stats, ref.gen, ref.tick)
			}
			if a, b := dut.Occupancy(), ref.Occupancy(); a != b {
				t.Fatalf("op %d %s: occupancy %d, model %d", op, what, a, b)
			}
			for base := 0; base < g.sets*g.ways; base += g.ways {
				if a, b := dut.victim(base), ref.victim(base); a != b {
					t.Fatalf("op %d %s: next victim in set %d is %d, model %d", op, what, base/g.ways, a, b)
				}
			}
		}
		t.Logf("%dx%d: %+v, %d evictions, %d touches", g.sets, g.ways, ref.stats, evictions, touches)
		// The run must have exercised what it compares.
		s := ref.stats
		if s.Hits < ops/10 || s.Misses < ops/10 || s.FlushedEnt < ops/100 || evictions < ops/100 || touches < ops/40 {
			t.Errorf("%dx%d: weak coverage: %+v, %d evictions, %d touches", g.sets, g.ways, s, evictions, touches)
		}
	}
}

// The lookup, fill, batch-hit and flush paths allocate nothing.
func TestTLBAllocs(t *testing.T) {
	tl := NewDefault()
	va := uint64(0x4000_1000)
	ops := map[string]func(){
		"Insert":    func() { tl.Insert(va, 0x8000_0000, isa.PTERead, 0, 1, 2) },
		"Lookup":    func() { tl.Lookup(va, 1, 2) },
		"Peek":      func() { tl.Peek(va, 1, 2) },
		"TouchN":    func() { tl.TouchN(0, 3) },
		"FlushAll":  func() { tl.Insert(va, 0, isa.PTERead, 0, 1, 2); tl.FlushAll() },
		"FlushASID": func() { tl.Insert(va, 0, isa.PTERead, 0, 1, 2); tl.FlushASID(1, 2) },
		"FlushVMID": func() { tl.Insert(va, 0, isa.PTERead, 0, 1, 2); tl.FlushVMID(2) },
		"FlushPage": func() { tl.Insert(va, 0, isa.PTERead, 0, 1, 2); tl.FlushPage(va, 1, 2) },
	}
	for name, op := range ops {
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("%s allocates %v objects, want 0", name, n)
		}
	}
}

// BenchmarkTLB times a hit, a miss on a full TLB, and the world switch's
// two flushes on a TLB holding two valid entries (each flush op includes
// the two Inserts that refill it).
func BenchmarkTLB(b *testing.B) {
	const vmid = 1
	va := func(i int) uint64 { return 0x8000_0000 + uint64(i)<<isa.PageShift }
	b.Run("hit", func(b *testing.B) {
		tl := NewDefault()
		tl.Insert(va(0), 0x9000_0000, isa.PTERead, 0, 0, vmid)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tl.Lookup(va(0), 0, vmid)
		}
	})
	b.Run("miss-full", func(b *testing.B) {
		tl := NewDefault()
		for i := 0; i < 64; i++ {
			tl.Insert(va(i), 0x9000_0000, isa.PTERead, 0, 0, vmid)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tl.Lookup(va(64+i%64), 0, vmid)
		}
	})
	b.Run("flushall-2valid", func(b *testing.B) {
		tl := NewDefault()
		for i := 0; i < b.N; i++ {
			tl.Insert(va(0), 0x9000_0000, isa.PTERead, 0, 0, vmid)
			tl.Insert(va(1), 0x9000_1000, isa.PTERead, 0, 0, vmid)
			tl.FlushAll()
		}
	})
	b.Run("flushvmid-2valid", func(b *testing.B) {
		tl := NewDefault()
		for i := 0; i < b.N; i++ {
			tl.Insert(va(0), 0x9000_0000, isa.PTERead, 0, 0, vmid)
			tl.Insert(va(1), 0x9000_1000, isa.PTERead, 0, 0, vmid)
			tl.FlushVMID(vmid)
		}
	})
}
