package sm

import (
	"errors"
	"fmt"
	"math/bits"

	"zion/internal/isa"
)

// BlockSize is the secure-memory block granule (§IV.D: default 256 KiB).
const BlockSize = 256 << 10

// BlockPages is the number of 4 KiB pages per block.
const BlockPages = BlockSize / isa.PageSize

// A block's page bitmap is one uint64, so a block holds exactly 64 pages.
var (
	_ [BlockPages - 64]struct{}
	_ [64 - BlockPages]struct{}
)

// ErrPoolEmpty reports that the secure pool has no free blocks left; the
// caller must trigger the stage-3 expansion protocol with the hypervisor.
var ErrPoolEmpty = errors.New("sm: secure memory pool exhausted")

// block is one 256 KiB secure memory block: a node in the address-ordered
// circular doubly-linked free list, carrying a page-allocation bitmap once
// it has been handed out as a vCPU page cache or table arena.
type block struct {
	base       uint64
	prev, next *block
	// used marks allocated pages within the block: bit i is page i.
	used uint64
	// clean marks free pages the SM zeroed after their last owner, with
	// no hart left able to store into them, and that nobody has
	// allocated since: installPage need not zero them again. A bit is set
	// only by a successful scrub and cleared by every allocation.
	clean uint64
	free  int
}

// allocPage takes the lowest free page and reports whether it is clean.
func (b *block) allocPage() (pa uint64, clean, ok bool) {
	i := bits.TrailingZeros64(^b.used)
	if b.free == 0 || i == BlockPages {
		return 0, false, false
	}
	bit := uint64(1) << i
	clean = b.clean&bit != 0
	b.used |= bit
	b.clean &^= bit
	b.free--
	return b.base + uint64(i)*isa.PageSize, clean, true
}

// allocRun allocates n contiguous pages aligned to n*PageSize (page-table
// roots need a 16 KiB-aligned run of 4) and reports whether every page of
// the run is clean.
func (b *block) allocRun(n int) (pa uint64, clean, ok bool) {
	if b.free < n {
		return 0, false, false
	}
	run := uint64(1)<<n - 1
	for i := 0; i+n <= BlockPages; i += n {
		if m := run << i; b.used&m == 0 {
			clean = b.clean&m == m
			b.used |= m
			b.clean &^= m
			b.free -= n
			return b.base + uint64(i)*isa.PageSize, clean, true
		}
	}
	return 0, false, false
}

// freePage frees pa, marking it clean when the caller scrubbed it and no
// hart can still store into it.
func (b *block) freePage(pa uint64, clean bool) error {
	i := (pa - b.base) / isa.PageSize
	if i >= BlockPages || b.used&(1<<i) == 0 {
		return fmt.Errorf("sm: double free or bad page %#x in block %#x", pa, b.base)
	}
	b.used &^= 1 << i
	if clean {
		b.clean |= 1 << i
	}
	b.free++
	return nil
}

// securePool is the SM's secure memory: every registered region is split
// into blocks linked in a circular list ordered by address, with
// allocation from the head (§IV.D, Figure 2).
type securePool struct {
	head   *block // lowest-address free block; nil when empty
	nfree  int
	ntotal int
	// regions records registered [base, end) ranges for membership tests
	// (PMP/IOPMP programming and ownership checks).
	regions []region
}

type region struct{ base, end uint64 }

// contains reports whether [pa, pa+n) lies inside secure memory.
func (p *securePool) contains(pa, n uint64) bool {
	for _, r := range p.regions {
		if pa >= r.base && pa+n <= r.end {
			return true
		}
	}
	return false
}

// register splits a new contiguous physical region into blocks and links
// them into the free list. base and size must be block-aligned. The
// region's blocks are one allocation, chained in address order and
// spliced into the ring in one step: no free block lies inside the
// region, so they all go before the same successor.
func (p *securePool) register(base, size uint64) error {
	if base%BlockSize != 0 || size%BlockSize != 0 || size == 0 {
		return fmt.Errorf("sm: pool region [%#x,+%#x) not %d-aligned", base, size, BlockSize)
	}
	for _, r := range p.regions {
		if base < r.end && base+size > r.base {
			return fmt.Errorf("sm: pool region overlaps existing region [%#x,%#x)", r.base, r.end)
		}
	}
	p.regions = append(p.regions, region{base, base + size})
	blks := make([]block, size/BlockSize)
	for i := range blks {
		blks[i] = block{base: base + uint64(i)*BlockSize, free: BlockPages}
		if i > 0 {
			blks[i].prev, blks[i-1].next = &blks[i-1], &blks[i]
		}
	}
	p.ntotal += len(blks)
	p.splice(&blks[0], &blks[len(blks)-1], len(blks))
	return nil
}

// splice links the n blocks chained from first to last, in address order
// and with no free block between their bases, into the ring before the
// first free block above them. A run above the tail appends in O(1);
// otherwise the scan from the head passes every free block below the run.
func (p *securePool) splice(first, last *block, n int) {
	p.nfree += n
	if p.head == nil {
		first.prev, last.next = last, first
		p.head = first
		return
	}
	// succ is the first free block above the run; the head when none is,
	// since before the head is also after the tail.
	succ := p.head
	if first.base < p.head.prev.base {
		for succ.base < first.base {
			if succ = succ.next; succ == p.head {
				break // a corrupted ring: never loop
			}
		}
	}
	first.prev, last.next = succ.prev, succ
	succ.prev.next = first
	succ.prev = last
	if first.base < p.head.base {
		p.head = first
	}
}

// takeHead unlinks and returns the head block (O(1), §IV.D stage 2).
func (p *securePool) takeHead() (*block, error) {
	if p.head == nil {
		return nil, ErrPoolEmpty
	}
	b := p.head
	if b.next == b {
		p.head = nil
	} else {
		b.prev.next = b.next
		b.next.prev = b.prev
		p.head = b.next
	}
	b.prev, b.next = nil, nil
	p.nfree--
	return b, nil
}

// giveBack reinserts a fully free block into the list.
func (p *securePool) giveBack(b *block) { p.splice(b, b, 1) }

// FreeBlocks returns the number of blocks on the free list.
func (p *securePool) FreeBlocks() int { return p.nfree }

// verify is the allocator compartment's gate-crossing integrity
// self-check: the free-list ring must close with intact back links and
// ascend strictly from the head (splice's scan relies on the order),
// every free-list block must be wholly free with counter and bitmap in
// agreement, and the free counter must match the ring length. It is
// read-only and cheap relative to any allocation it guards.
func (p *securePool) verify() error {
	if p.head == nil {
		if p.nfree != 0 {
			return fmt.Errorf("sm: empty free list but free counter %d", p.nfree)
		}
		return nil
	}
	count := 0
	cur := p.head
	for {
		if free := BlockPages - bits.OnesCount64(cur.used); free != cur.free {
			return fmt.Errorf("sm: block %#x free counter %d, bitmap says %d",
				cur.base, cur.free, free)
		}
		if cur.free != BlockPages {
			return fmt.Errorf("sm: free-list block %#x not wholly free (%d/%d)",
				cur.base, cur.free, BlockPages)
		}
		if cur.next == nil || cur.next.prev != cur {
			return fmt.Errorf("sm: free-list ring broken at block %#x", cur.base)
		}
		count++
		cur = cur.next
		if cur == p.head {
			break
		}
		if cur.base <= cur.prev.base {
			return fmt.Errorf("sm: free-list block %#x follows %#x: ring not ascending",
				cur.base, cur.prev.base)
		}
		if count > p.ntotal {
			return fmt.Errorf("sm: free-list ring does not close (walked %d > total %d)",
				count, p.ntotal)
		}
	}
	if count != p.nfree {
		return fmt.Errorf("sm: free counter %d, ring holds %d blocks", p.nfree, count)
	}
	return nil
}

// salvage repairs the free list to a consistent state after metadata
// corruption (the allocator compartment's quarantine-time state rescue):
// a block on the free list is authoritatively wholly free, so counters
// and bitmaps are reset from that ground truth, back links are rebuilt
// from forward links, and the free counter is recomputed from the ring.
// It returns a description of what was repaired so the post-mortem can
// carry it.
func (p *securePool) salvage() string {
	if p.head == nil {
		if p.nfree != 0 {
			old := p.nfree
			p.nfree = 0
			return fmt.Sprintf("reset free counter %d -> 0 (empty list)", old)
		}
		return ""
	}
	blocksFixed, linksFixed, count := 0, 0, 0
	cur := p.head
	for {
		if cur.free != BlockPages || cur.used != 0 {
			// A corrupted block's clean bits are not trusted either: its
			// pages go back to zero-on-allocate.
			cur.used, cur.clean = 0, 0
			cur.free = BlockPages
			blocksFixed++
		}
		if cur.next.prev != cur {
			cur.next.prev = cur
			linksFixed++
		}
		count++
		cur = cur.next
		if cur == p.head || count > p.ntotal {
			break
		}
	}
	counterFixed := p.nfree != count
	p.nfree = count
	if blocksFixed == 0 && linksFixed == 0 && !counterFixed {
		return ""
	}
	return fmt.Sprintf("salvaged free list: %d blocks reset, %d back links rebuilt, counter -> %d",
		blocksFixed, linksFixed, count)
}

// pageCache is a per-vCPU (or per-arena) fast allocation cache: the block
// currently assigned plus previously assigned blocks that still hold live
// pages (needed for reclamation).
type pageCache struct {
	current *block
	retired []*block
}

// AllocStage identifies which stage of the hierarchical allocator
// satisfied a request (drives the §V.C cycle accounting).
type AllocStage int

// Allocation stages per §IV.D.
const (
	StageCache  AllocStage = 1 // page cache hit
	StageBlock  AllocStage = 2 // new block unlinked from the pool
	StageExpand AllocStage = 3 // pool exhausted; hypervisor must expand
)

// allocPage implements the three-stage allocation of Figure 2 and
// reports whether the page is clean (still zero from the SM's scrub). On
// ErrPoolEmpty the caller drives expansion and retries.
func (p *securePool) allocPage(c *pageCache) (pa uint64, clean bool, stage AllocStage, err error) {
	if c.current != nil {
		if pa, clean, ok := c.current.allocPage(); ok {
			return pa, clean, StageCache, nil
		}
		// Cache block exhausted: retire it and fall through.
		c.retired = append(c.retired, c.current)
		c.current = nil
	}
	b, err := p.takeHead()
	if err != nil {
		return 0, false, StageExpand, err
	}
	c.current = b
	pa, clean, _ = b.allocPage()
	return pa, clean, StageBlock, nil
}

// allocRun allocates n contiguous, n*PageSize-aligned pages for page-table
// roots, trying the cache first, and reports whether the whole run is
// clean.
func (p *securePool) allocRun(c *pageCache, n int) (uint64, bool, error) {
	if c.current != nil {
		if pa, clean, ok := c.current.allocRun(n); ok {
			return pa, clean, nil
		}
	}
	b, err := p.takeHead()
	if err != nil {
		return 0, false, err
	}
	if c.current != nil {
		c.retired = append(c.retired, c.current)
	}
	c.current = b
	pa, clean, ok := b.allocRun(n)
	if !ok {
		return 0, false, fmt.Errorf("sm: fresh block cannot satisfy %d-page run", n)
	}
	return pa, clean, nil
}

// releaseAll frees every page the cache ever allocated and returns the
// blocks to the pool (CVM teardown). The caller has scrubbed the frames
// in scrubbed, and no hart can still store into them: their pages come
// back clean. Every other page the cache allocated comes back without a
// clean bit, so the next owner's installPage zeroes it; a nil scrubbed
// marks none. A block is 64 aligned frames, so its frames are exactly
// one frameSet word.
func (p *securePool) releaseAll(c *pageCache, scrubbed *frameSet) {
	give := func(b *block) {
		if scrubbed != nil {
			b.clean |= b.used & scrubbed.word(b.base)
		}
		b.used = 0
		b.free = BlockPages
		p.giveBack(b)
	}
	if c.current != nil {
		give(c.current)
		c.current = nil
	}
	for _, b := range c.retired {
		give(b)
	}
	c.retired = nil
}

// blocks lists every block the cache currently holds (current + retired),
// for the invariant auditor's ownership/accounting cross-checks.
func (c *pageCache) blocks() []*block {
	var out []*block
	if c.current != nil {
		out = append(out, c.current)
	}
	return append(out, c.retired...)
}

// TotalBlocks returns the number of blocks ever registered with the pool
// (free + held by CVM caches).
func (p *securePool) TotalBlocks() int { return p.ntotal }

// ownerOf finds the cache block containing pa, for free operations.
func (c *pageCache) ownerOf(pa uint64) *block {
	if c.current != nil && pa >= c.current.base && pa < c.current.base+BlockSize {
		return c.current
	}
	for _, b := range c.retired {
		if pa >= b.base && pa < b.base+BlockSize {
			return b
		}
	}
	return nil
}
