package sm

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"zion/internal/isa"
)

const smBase = 0x9000_0000

func newPool(t *testing.T, blocks int) *securePool {
	t.Helper()
	p := &securePool{}
	if err := p.register(smBase, uint64(blocks)*BlockSize); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolRegisterValidation(t *testing.T) {
	p := &securePool{}
	if err := p.register(smBase+7, BlockSize); err == nil {
		t.Error("unaligned base accepted")
	}
	if err := p.register(smBase, BlockSize/2); err == nil {
		t.Error("unaligned size accepted")
	}
	if err := p.register(smBase, 0); err == nil {
		t.Error("zero size accepted")
	}
	if err := p.register(smBase, 2*BlockSize); err != nil {
		t.Fatal(err)
	}
	// Overlapping second region rejected.
	if err := p.register(smBase+BlockSize, 2*BlockSize); err == nil {
		t.Error("overlapping region accepted")
	}
	// Adjacent region fine.
	if err := p.register(smBase+2*BlockSize, BlockSize); err != nil {
		t.Errorf("adjacent region rejected: %v", err)
	}
	if p.FreeBlocks() != 3 {
		t.Errorf("free blocks = %d", p.FreeBlocks())
	}
}

func TestPoolContains(t *testing.T) {
	p := newPool(t, 2)
	if !p.contains(smBase, isa.PageSize) {
		t.Error("start page should be contained")
	}
	if !p.contains(smBase+2*BlockSize-isa.PageSize, isa.PageSize) {
		t.Error("last page should be contained")
	}
	if p.contains(smBase+2*BlockSize, 1) {
		t.Error("past end should not be contained")
	}
	if p.contains(smBase-1, 2) {
		t.Error("before start should not be contained")
	}
}

func TestAllocationStages(t *testing.T) {
	p := newPool(t, 2)
	c := &pageCache{}

	// First allocation: no cache block yet -> stage 2.
	_, _, stage, err := p.allocPage(c)
	if err != nil || stage != StageBlock {
		t.Fatalf("first alloc: stage=%v err=%v", stage, err)
	}
	// Next BlockPages-1 allocations: stage 1.
	for i := 0; i < BlockPages-1; i++ {
		_, _, stage, err := p.allocPage(c)
		if err != nil || stage != StageCache {
			t.Fatalf("alloc %d: stage=%v err=%v", i, stage, err)
		}
	}
	// Block exhausted: next is stage 2 again.
	_, _, stage, err = p.allocPage(c)
	if err != nil || stage != StageBlock {
		t.Fatalf("block rollover: stage=%v err=%v", stage, err)
	}
	// Drain the second block, then the pool is empty: stage 3.
	for i := 0; i < BlockPages-1; i++ {
		if _, _, _, err := p.allocPage(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, stage, err := p.allocPage(c); !errors.Is(err, ErrPoolEmpty) || stage != StageExpand {
		t.Fatalf("exhaustion: stage=%v err=%v", stage, err)
	}
	// Expansion resolves it.
	if err := p.register(smBase+16*BlockSize, BlockSize); err != nil {
		t.Fatal(err)
	}
	if _, _, stage, err := p.allocPage(c); err != nil || stage != StageBlock {
		t.Fatalf("post-expansion: stage=%v err=%v", stage, err)
	}
}

func TestAddressOrderedAllocation(t *testing.T) {
	p := newPool(t, 4)
	c := &pageCache{}
	pa1, _, _, _ := p.allocPage(c)
	if pa1 != smBase {
		t.Errorf("first page at %#x, want head of list %#x", pa1, uint64(smBase))
	}
	// Blocks are taken from the head in address order.
	c2 := &pageCache{}
	pa2, _, _, _ := p.allocPage(c2)
	if pa2 != smBase+BlockSize {
		t.Errorf("second cache's block at %#x, want %#x", pa2, uint64(smBase+BlockSize))
	}
}

func TestReleaseAllReturnsBlocks(t *testing.T) {
	p := newPool(t, 4)
	c := &pageCache{}
	for i := 0; i < BlockPages+5; i++ { // spans two blocks
		if _, _, _, err := p.allocPage(c); err != nil {
			t.Fatal(err)
		}
	}
	if p.FreeBlocks() != 2 {
		t.Fatalf("free = %d, want 2", p.FreeBlocks())
	}
	p.releaseAll(c, nil)
	if p.FreeBlocks() != 4 {
		t.Errorf("free after release = %d, want 4", p.FreeBlocks())
	}
	// Released blocks are reusable.
	c2 := &pageCache{}
	if _, _, _, err := p.allocPage(c2); err != nil {
		t.Errorf("alloc after release: %v", err)
	}
}

func TestAllocRunAlignment(t *testing.T) {
	p := newPool(t, 2)
	c := &pageCache{}
	// Misalign the cache by taking one page first.
	if _, _, _, err := p.allocPage(c); err != nil {
		t.Fatal(err)
	}
	root, _, err := p.allocRun(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if root%(4*isa.PageSize) != 0 {
		t.Errorf("run at %#x not 16 KiB aligned", root)
	}
	// Runs and pages never overlap.
	pages := map[uint64]bool{root: true, root + 4096: true, root + 8192: true, root + 12288: true}
	for i := 0; i < 32; i++ {
		pa, _, _, err := p.allocPage(c)
		if err != nil {
			t.Fatal(err)
		}
		if pages[pa] {
			t.Fatalf("page %#x overlaps the run", pa)
		}
		pages[pa] = true
	}
}

func TestFreePageErrors(t *testing.T) {
	b := &block{base: smBase, free: BlockPages}
	pa, _, _ := b.allocPage()
	if err := b.freePage(pa, true); err != nil {
		t.Fatal(err)
	}
	if err := b.freePage(pa, true); err == nil {
		t.Error("double free accepted")
	}
	if err := b.freePage(smBase+BlockSize, true); err == nil {
		t.Error("foreign page accepted")
	}
}

// Property: however allocations interleave across caches, no physical
// page is ever handed out twice, and every page lies inside the pool.
func TestNoDoubleAllocationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		p := &securePool{}
		if err := p.register(smBase, 8*BlockSize); err != nil {
			return false
		}
		caches := []*pageCache{{}, {}, {}}
		seen := map[uint64]bool{}
		for _, op := range ops {
			c := caches[int(op)%len(caches)]
			pa, _, _, err := p.allocPage(c)
			if errors.Is(err, ErrPoolEmpty) {
				return true // clean exhaustion is fine
			}
			if err != nil {
				return false
			}
			if seen[pa] || !p.contains(pa, isa.PageSize) || pa%isa.PageSize != 0 {
				return false
			}
			seen[pa] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: release/realloc cycles conserve the total page population.
func TestReleaseConservationProperty(t *testing.T) {
	f := func(rounds uint8) bool {
		p := &securePool{}
		if err := p.register(smBase, 4*BlockSize); err != nil {
			return false
		}
		total := p.FreeBlocks()
		for r := 0; r < int(rounds%8)+1; r++ {
			c := &pageCache{}
			n := (r*37)%200 + 1
			for i := 0; i < n; i++ {
				if _, _, _, err := p.allocPage(c); err != nil {
					break
				}
			}
			p.releaseAll(c, nil)
			if p.FreeBlocks() != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// poolModel is the reference for the block bitmaps: one [BlockPages]bool
// per block for used and one for clean, the address-ordered free list,
// and each cache's current and retired blocks, all by block index.
type poolModel struct {
	used    [][BlockPages]bool
	clean   [][BlockPages]bool
	free    []int
	list    []int // free blocks, ascending; the head is list[0]
	current []int // per cache; -1 for none
	retired [][]int
}

func newPoolModel(blocks, caches int) *poolModel {
	m := &poolModel{
		used:    make([][BlockPages]bool, blocks),
		clean:   make([][BlockPages]bool, blocks),
		free:    make([]int, blocks),
		current: make([]int, caches),
		retired: make([][]int, caches),
	}
	for i := range m.free {
		m.free[i] = BlockPages
		m.list = append(m.list, i)
	}
	for i := range m.current {
		m.current[i] = -1
	}
	return m
}

func (m *poolModel) pa(blk, page int) uint64 {
	return smBase + uint64(blk)*BlockSize + uint64(page)*isa.PageSize
}

// take marks pages [i, i+n) of blk used and not clean if they are all
// free, and reports whether they all were clean.
func (m *poolModel) take(blk, i, n int) (clean, ok bool) {
	for j := i; j < i+n; j++ {
		if m.used[blk][j] {
			return false, false
		}
	}
	clean = true
	for j := i; j < i+n; j++ {
		clean = clean && m.clean[blk][j]
		m.used[blk][j], m.clean[blk][j] = true, false
	}
	m.free[blk] -= n
	return clean, true
}

func (m *poolModel) takeHead() (int, bool) {
	if len(m.list) == 0 {
		return -1, false
	}
	h := m.list[0]
	m.list = m.list[1:]
	return h, true
}

func (m *poolModel) allocPage(c int) (pa uint64, clean, ok bool) {
	if cur := m.current[c]; cur >= 0 {
		for i := 0; i < BlockPages; i++ {
			if clean, ok := m.take(cur, i, 1); ok {
				return m.pa(cur, i), clean, true
			}
		}
		m.retired[c] = append(m.retired[c], cur)
		m.current[c] = -1
	}
	h, ok := m.takeHead()
	if !ok {
		return 0, false, false
	}
	m.current[c] = h
	clean, _ = m.take(h, 0, 1)
	return m.pa(h, 0), clean, true
}

func (m *poolModel) allocRun(c, n int) (pa uint64, clean, ok bool) {
	if cur := m.current[c]; cur >= 0 {
		for i := 0; i+n <= BlockPages; i += n {
			if clean, ok := m.take(cur, i, n); ok {
				return m.pa(cur, i), clean, true
			}
		}
	}
	h, ok := m.takeHead()
	if !ok {
		return 0, false, false
	}
	if cur := m.current[c]; cur >= 0 {
		m.retired[c] = append(m.retired[c], cur)
	}
	m.current[c] = h
	clean, _ = m.take(h, 0, n)
	return m.pa(h, 0), clean, true
}

// releaseAll gives back cache c's blocks; every used page in scrubbed
// comes back clean.
func (m *poolModel) releaseAll(c int, scrubbed map[uint64]bool) {
	give := append(m.retired[c], m.current[c])
	for _, b := range give {
		if b < 0 {
			continue
		}
		for i, u := range m.used[b] {
			if u && scrubbed[m.pa(b, i)] {
				m.clean[b][i] = true
			}
		}
		m.used[b] = [BlockPages]bool{}
		m.free[b] = BlockPages
		m.list = append(m.list, b)
	}
	sort.Ints(m.list)
	m.current[c], m.retired[c] = -1, nil
}

// blocksOf returns every block the pool and the caches hold, by base.
func blocksOf(p *securePool, caches []*pageCache) map[uint64]*block {
	out := map[uint64]*block{}
	if b := p.head; b != nil {
		for {
			out[b.base] = b
			if b = b.next; b == p.head {
				break
			}
		}
	}
	for _, c := range caches {
		for _, b := range c.blocks() {
			out[b.base] = b
		}
	}
	return out
}

// The one-word block bitmaps behave exactly like a [BlockPages]bool
// model under random allocPage / allocRun(4) / freePage / releaseAll
// sequences: the same PAs in the same lowest-free-first order, the same
// clean verdicts, free counters and clean bits, and a clean verify after
// every operation. Frees and releases mark a random subset clean, as the
// SM does when a scrub fails or a vCPU runs on another hart.
func TestBitmapMatchesModel(t *testing.T) {
	const nblocks, ncaches, nops = 4, 3, 20000
	p := newPool(t, nblocks)
	caches := []*pageCache{{}, {}, {}}
	m := newPoolModel(nblocks, ncaches)
	owned := make([][]uint64, ncaches) // model PAs each cache holds
	rng := rand.New(rand.NewSource(1))
	exhausted, freed := 0, 0
	for op := 0; op < nops; op++ {
		ci := rng.Intn(ncaches)
		c := caches[ci]
		switch k := rng.Intn(50); {
		case k < 28:
			want, wantClean, ok := m.allocPage(ci)
			pa, clean, _, err := p.allocPage(c)
			if ok != (err == nil) || (ok && (pa != want || clean != wantClean)) {
				t.Fatalf("op %d allocPage: pa %#x clean %v err %v, model %#x %v ok %v",
					op, pa, clean, err, want, wantClean, ok)
			}
			if ok {
				owned[ci] = append(owned[ci], pa)
			} else {
				exhausted++
			}
		case k < 36:
			want, wantClean, ok := m.allocRun(ci, 4)
			pa, clean, err := p.allocRun(c, 4)
			if ok != (err == nil) || (ok && (pa != want || clean != wantClean)) {
				t.Fatalf("op %d allocRun: pa %#x clean %v err %v, model %#x %v ok %v",
					op, pa, clean, err, want, wantClean, ok)
			}
			for j := uint64(0); ok && j < 4; j++ {
				owned[ci] = append(owned[ci], pa+j*isa.PageSize)
			}
		case k < 49:
			if len(owned[ci]) == 0 {
				continue
			}
			i := rng.Intn(len(owned[ci]))
			pa := owned[ci][i]
			settled := rng.Intn(2) == 0
			if err := c.ownerOf(pa).freePage(pa, settled); err != nil {
				t.Fatalf("op %d freePage %#x: %v", op, pa, err)
			}
			blk, page := int((pa-smBase)/BlockSize), int(pa%BlockSize/isa.PageSize)
			m.used[blk][page] = false
			m.clean[blk][page] = settled
			m.free[blk]++
			owned[ci] = append(owned[ci][:i], owned[ci][i+1:]...)
			freed++
			if err := c.ownerOf(pa).freePage(pa, true); err == nil {
				t.Fatalf("op %d: double free of %#x accepted", op, pa)
			}
		default:
			var scrubbed frameSet
			model := map[uint64]bool{}
			for _, pa := range owned[ci] {
				if rng.Intn(4) != 0 {
					scrubbed.add(pa)
					model[pa] = true
				}
			}
			m.releaseAll(ci, model)
			p.releaseAll(c, &scrubbed)
			owned[ci] = nil
		}

		if err := p.verify(); err != nil {
			t.Fatalf("op %d: verify: %v", op, err)
		}
		if p.nfree != len(m.list) {
			t.Fatalf("op %d: nfree %d, model %d", op, p.nfree, len(m.list))
		}
		if b := p.head; len(m.list) > 0 && b.base != m.pa(m.list[0], 0) {
			t.Fatalf("op %d: head %#x, model %#x", op, b.base, m.pa(m.list[0], 0))
		}
		blocks := blocksOf(p, caches)
		if len(blocks) != nblocks {
			t.Fatalf("op %d: %d blocks reachable, want %d", op, len(blocks), nblocks)
		}
		for bi := 0; bi < nblocks; bi++ {
			b := blocks[m.pa(bi, 0)]
			if b.free != m.free[bi] {
				t.Fatalf("op %d block %d: free %d, model %d", op, bi, b.free, m.free[bi])
			}
			for i, u := range m.used[bi] {
				if got := b.used&(1<<i) != 0; got != u {
					t.Fatalf("op %d block %d page %d: used %v, model %v", op, bi, i, got, u)
				}
				if got := b.clean&(1<<i) != 0; got != m.clean[bi][i] {
					t.Fatalf("op %d block %d page %d: clean %v, model %v", op, bi, i, got, m.clean[bi][i])
				}
			}
		}
	}
	if exhausted == 0 || freed == 0 {
		t.Errorf("sequence too tame: %d exhaustions, %d frees", exhausted, freed)
	}
}

// Both kinds of allocator-metadata flip — a head-block counter bit and a
// head-block bitmap bit — fail the next verify, and salvage repairs them.
func TestCorruptAllocMetaCaughtAndSalvaged(t *testing.T) {
	f := newFixture(t, Config{})
	pool := &f.s.alloc.pool
	for sel := uint64(0); sel < 4*BlockPages; sel++ {
		if err := pool.verify(); err != nil {
			t.Fatalf("sel %d: pool dirty before the flip: %v", sel, err)
		}
		what, ok := f.s.CorruptAllocMeta(sel)
		if !ok {
			t.Fatalf("sel %d: no target", sel)
		}
		if err := pool.verify(); err == nil {
			t.Errorf("sel %d: %s not caught by verify", sel, what)
		}
		if rep := pool.salvage(); rep == "" {
			t.Errorf("sel %d: salvage repaired nothing after %s", sel, what)
		}
		if err := pool.verify(); err != nil {
			t.Errorf("sel %d: verify after salvage: %v", sel, err)
		}
	}
}

// BenchmarkPoolVerify times one allocator gate-crossing self-check over
// a 256-block free list.
func BenchmarkPoolVerify(b *testing.B) {
	p := &securePool{}
	if err := p.register(smBase, 256*BlockSize); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// ringBases walks the free ring from the head and returns its bases.
func ringBases(p *securePool) []uint64 {
	var out []uint64
	for b, n := p.head, 0; b != nil && n <= p.ntotal; n++ {
		out = append(out, b.base)
		if b = b.next; b == p.head {
			break
		}
	}
	return out
}

// The free ring behaves like a sorted slice of block bases under random
// register (several regions, registered in any order, below, between and
// above the blocks already there), takeHead, giveBack (held blocks in
// random order) and salvage sequences: the same blocks in the same order,
// and verify passes after every step.
func TestFreeRingMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seq := 0; seq < 40; seq++ {
		// Six regions of 1-4 blocks, 16 blocks apart, in a random order.
		type reg struct{ base, size uint64 }
		var regs []reg
		for i := 0; i < 6; i++ {
			regs = append(regs, reg{smBase + uint64(i)*16*BlockSize, uint64(rng.Intn(4)+1) * BlockSize})
		}
		rng.Shuffle(len(regs), func(i, j int) { regs[i], regs[j] = regs[j], regs[i] })

		p := &securePool{}
		var model []uint64 // free bases, ascending
		var held []*block
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(10); {
			case k == 0 && len(regs) > 0:
				r := regs[0]
				regs = regs[1:]
				if err := p.register(r.base, r.size); err != nil {
					t.Fatal(err)
				}
				for b := r.base; b < r.base+r.size; b += BlockSize {
					model = append(model, b)
				}
				sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })
			case k < 5:
				b, err := p.takeHead()
				if len(model) == 0 {
					if !errors.Is(err, ErrPoolEmpty) {
						t.Fatalf("seq %d op %d: takeHead on an empty ring: %v", seq, op, err)
					}
					continue
				}
				if err != nil || b.base != model[0] {
					t.Fatalf("seq %d op %d: takeHead %v %v, model %#x", seq, op, b, err, model[0])
				}
				model = model[1:]
				held = append(held, b)
			case k < 8 && len(held) > 0:
				i := rng.Intn(len(held))
				b := held[i]
				held = append(held[:i], held[i+1:]...)
				p.giveBack(b)
				model = append(model, b.base)
				sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })
			case k == 9:
				if rep := p.salvage(); rep != "" {
					t.Fatalf("seq %d op %d: salvage repaired a healthy ring: %s", seq, op, rep)
				}
			}
			if err := p.verify(); err != nil {
				t.Fatalf("seq %d op %d: verify: %v", seq, op, err)
			}
			if got := ringBases(p); !slices.Equal(got, model) || p.nfree != len(model) {
				t.Fatalf("seq %d op %d: ring %#x (nfree %d), model %#x", seq, op, got, p.nfree, model)
			}
			if p.nfree+len(held) != p.ntotal {
				t.Fatalf("seq %d op %d: free %d + held %d != total %d", seq, op, p.nfree, len(held), p.ntotal)
			}
		}
	}
}

// Registering a region of any size allocates at most twice: the region
// record and one array of its blocks, whatever their number.
func TestRegisterPoolAllocs(t *testing.T) {
	for _, size := range []uint64{64 << 20, 1 << 30} {
		var p securePool
		allocs := testing.AllocsPerRun(5, func() {
			p = securePool{}
			if err := p.register(smBase, size); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("registering %d MiB: %.0f allocations, want at most 2", size>>20, allocs)
		}
		if p.FreeBlocks() != int(size/BlockSize) {
			t.Errorf("registering %d MiB: %d free blocks, want %d", size>>20, p.FreeBlocks(), size/BlockSize)
		}
	}
}

// The auditor reports the allocator's self-check: a broken back link or
// two blocks out of address order is each exactly one free-ring finding,
// scoped to the allocator. Each case corrupts a pool whose ring a destroy
// has just rebuilt, while a second CVM holds blocks.
func TestAuditFindsBrokenFreeRing(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(p *securePool)
	}{
		{"back-link", func(p *securePool) {
			p.head.next.prev = p.head.next
		}},
		{"order", func(p *securePool) {
			// a b c d -> a c b d, with every link consistent.
			a := p.head
			b, c := a.next, a.next.next
			d := c.next
			a.next, c.prev = c, a
			c.next, b.prev = b, c
			b.next, d.prev = d, b
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t, Config{})
			id := f.buildCVM(touchProgram(4, -1))
			runToShutdown(t, f.s, f.h, id)
			if _, err := f.s.HVCall(f.h, FnDestroy, uint64(id)); err != nil {
				t.Fatal(err)
			}
			f.buildCVM(touchProgram(1, -1))
			if fs := f.s.Audit(); len(fs) != 0 {
				t.Fatalf("audit before the flip: %v", fs)
			}
			pool := &f.s.alloc.pool
			if pool.nfree < 4 {
				t.Fatalf("%d free blocks: nothing to corrupt", pool.nfree)
			}
			c.corrupt(pool)
			fs := f.s.Audit()
			if len(fs) != 1 || fs[0].Kind != AuditFreeRing || fs[0].Scope() != CompAlloc {
				t.Fatalf("audit = %v, want one %v finding", fs, AuditFreeRing)
			}
		})
	}
}
