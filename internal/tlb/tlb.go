// Package tlb models a set-associative translation lookaside buffer with
// VMID/ASID tagging and the SFENCE.VMA / HFENCE.GVMA invalidation
// operations. The hart consults it before walking page tables; its
// hit/miss statistics feed the cycle model, so the cost of the TLB flushes
// ZION performs on world switches and pool expansion shows up in the
// benchmark numbers the same way it does on hardware.
//
// Layout: an entry is split into a tag (the virtual page number and one
// key word packing valid, level, global, VMID and ASID; key 0 is invalid)
// and a payload (frame, flags, LRU stamp) kept in a parallel array under
// the same index. The tags of one 4-way set fill one 64-byte line, so a
// lookup reads one line per level and touches the payload only on a hit.
// A valid bitmap lets FlushAll count with a popcount and lets the other
// flushes visit only the valid entries: a world switch flushes a TLB that
// holds a handful of entries, not all 64.
//
// Concurrency: a TLB is owned by its hart's goroutine and has no internal
// locking, mirroring the per-hart hardware structure. Under the parallel
// engine, cross-hart invalidations (the sfence/TLB-shootdown IPIs the SM
// issues on pool registration, CVM destroy, and quarantine) must be routed
// through platform.Machine.OnHart so they execute on the owning goroutine
// at its next quantum barrier, never by direct peer mutation.
package tlb

import (
	"math/bits"

	"zion/internal/isa"
)

// tag is the searched half of an entry.
type tag struct {
	vpn uint64 // virtual (or guest-physical) page number at the entry's level
	key uint64 // packed tags, see makeKey; 0 means invalid
}

// Key layout: ASID in bits 0-15, VMID in 16-31, level in 32-33, then the
// global and valid bits. A global entry stores ASID 0: it matches every
// ASID, so its ASID is never observed.
const (
	keyVMIDShift  = 16
	keyLevelShift = 32
	keyASID       = uint64(0xFFFF)
	keyVMID       = uint64(0xFFFF) << keyVMIDShift
	keyLevel      = uint64(3) << keyLevelShift
	keyGlobal     = uint64(1) << 34
	keyValid      = uint64(1) << 35
)

func makeKey(level int, global bool, asid, vmid uint16) uint64 {
	k := keyValid | uint64(level)<<keyLevelShift | uint64(vmid)<<keyVMIDShift
	if global {
		return k | keyGlobal
	}
	return k | uint64(asid)
}

// payload is the half of an entry read only on a hit. An invalid entry
// has lru 0; a valid one has lru >= 1, since the tick advances first.
type payload struct {
	ppn   uint64
	perms uint64 // leaf PTE flag bits
	lru   uint64 // last-use tick
}

// Stats accumulates TLB event counts.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Flushes    uint64
	FlushedEnt uint64
}

// TLB is a set-associative cache of leaf translations.
type TLB struct {
	tags  []tag     // sets × ways
	pay   []payload // parallel to tags
	valid []uint64  // bit i set iff tags[i].key != 0
	ways  uint32
	mask  uint32 // sets-1; the set count is a power of two
	tick  uint64
	stats Stats
	// gen counts content changes (inserts and flushes). The hart's
	// fast-path micro-TLB snapshots it when caching a hit: as long as gen
	// is unchanged, no entry was replaced or invalidated, so a Lookup of
	// the same (va, asid, vmid) would find the same first-matching entry.
	// LRU updates do not bump gen — they never change which entry matches.
	gen uint64
	// The fields fill exactly two 64-byte cache lines, so no two harts'
	// TLBs share a line: every hit writes tick and stats, and the harts of
	// a parallel run would otherwise stall on each other's writes. Adding
	// a field means narrowing or removing another.
}

// New builds a TLB with the given geometry; sets must be a power of two.
// Typical embedded cores carry 32–128 entries; we default callers to 64
// entries / 4 ways.
func New(sets, ways int) *TLB {
	if sets <= 0 || ways <= 0 {
		panic("tlb: geometry must be positive")
	}
	if sets&(sets-1) != 0 {
		panic("tlb: set count must be a power of two")
	}
	n := sets * ways
	return &TLB{
		tags:  make([]tag, n),
		pay:   make([]payload, n),
		valid: make([]uint64, (n+63)/64),
		ways:  uint32(ways),
		mask:  uint32(sets - 1),
	}
}

// NewDefault returns the standard 16-set 4-way (64 entry) configuration.
func NewDefault() *TLB { return New(16, 4) }

// setBase returns the index of way 0 of vpn's set.
func (t *TLB) setBase(vpn uint64) int { return int(uint32(vpn)&t.mask) * int(t.ways) }

// Lookup searches for a translation of va under (asid, vmid). On a hit it
// returns the cached physical page number for the containing page and the
// leaf flags.
func (t *TLB) Lookup(va uint64, asid, vmid uint16) (ppn uint64, perms uint64, level int, hit bool) {
	t.tick++
	idx, ppn, perms, level, hit := t.Peek(va, asid, vmid)
	if !hit {
		t.stats.Misses++
		return 0, 0, 0, false
	}
	t.pay[idx].lru = t.tick
	t.stats.Hits++
	return ppn, perms, level, true
}

// Gen returns the content generation (see the field comment).
func (t *TLB) Gen() uint64 { return t.gen }

// Peek is Lookup without side effects: no tick advance, no LRU update,
// no stats. It searches levels 0 to 2 and, within a set, ways 0 upward,
// and returns the first match. On a hit it additionally returns the
// matched entry's index, which TouchN accepts to replay the hit's state
// effects later. The fast path uses Peek to build micro-TLB entries
// without perturbing the statistics the slow path would have produced.
func (t *TLB) Peek(va uint64, asid, vmid uint16) (idx int, ppn uint64, perms uint64, level int, hit bool) {
	vpnFull := va >> isa.PageShift
	ways := int(t.ways)
	// A non-global entry matches with key want; a global one stores ASID 0
	// and the global bit, so its key differs from want by exactly those.
	want := makeKey(0, false, asid, vmid)
	global := keyGlobal | uint64(asid)
	for lvl := 0; lvl < 3; lvl++ {
		vpn := vpnFull >> (9 * uint(lvl))
		base := t.setBase(vpn)
		for i, tg := range t.tags[base : base+ways] {
			if d := tg.key ^ want; tg.vpn == vpn && (d == 0 || d == global) {
				p := &t.pay[base+i]
				return base + i, p.ppn, p.perms, lvl, true
			}
		}
		want += 1 << keyLevelShift
	}
	return 0, 0, 0, 0, false
}

// TouchN replays n consecutive Lookup hits on entry idx in one step: the
// tick advances by n, the entry takes the last hit's LRU stamp, and n hits
// are counted — the same state n Lookups of the entry's page leave,
// because the intermediate stamps are overwritten before anything could
// observe them. idx must come from a Peek whose result is still current
// (TLB gen unchanged since). n == 0 changes nothing.
func (t *TLB) TouchN(idx int, n uint64) {
	if n == 0 {
		return
	}
	t.tick += n
	t.pay[idx].lru = t.tick
	t.stats.Hits += n
}

// victim returns the way Insert fills in the set starting at base: the
// first entry with the smallest LRU stamp, which is the first invalid
// way if there is one (stamp 0), else the first least-recently used.
func (t *TLB) victim(base int) int {
	v := base
	for i := base + 1; i < base+int(t.ways); i++ {
		if t.pay[i].lru < t.pay[v].lru {
			v = i
		}
	}
	return v
}

// Insert caches a leaf translation. level is the leaf level (0/1/2);
// va and pa are truncated to the page frame of that level.
func (t *TLB) Insert(va, pa uint64, perms uint64, level int, asid, vmid uint16) {
	t.gen++
	t.tick++
	shift := uint(isa.PageShift + 9*level)
	vpn := va >> shift
	i := t.victim(t.setBase(vpn))
	t.tags[i] = tag{vpn: vpn, key: makeKey(level, perms&isa.PTEGlobal != 0, asid, vmid)}
	t.pay[i] = payload{ppn: pa >> shift, perms: perms, lru: t.tick}
	t.valid[i/64] |= 1 << (i % 64)
}

// flushWhere invalidates every valid entry whose tag drop reports true,
// visiting only the valid entries.
func (t *TLB) flushWhere(drop func(tg tag) bool) {
	t.gen++
	t.stats.Flushes++
	for w, word := range t.valid {
		for rest := word; rest != 0; rest &= rest - 1 {
			if i := w*64 + bits.TrailingZeros64(rest); drop(t.tags[i]) {
				t.tags[i].key = 0
				t.pay[i].lru = 0
				t.valid[w] &^= 1 << (i % 64)
				t.stats.FlushedEnt++
			}
		}
	}
}

// FlushAll invalidates every entry (sfence.vma x0, x0 with no ASID plus
// hfence of all VMIDs — the big hammer the SM uses on pool expansion).
// It counts the flushed entries with a popcount and clears only those.
func (t *TLB) FlushAll() {
	t.gen++
	t.stats.Flushes++
	for w, word := range t.valid {
		t.stats.FlushedEnt += uint64(bits.OnesCount64(word))
		for rest := word; rest != 0; rest &= rest - 1 {
			i := w*64 + bits.TrailingZeros64(rest)
			t.tags[i].key = 0
			t.pay[i].lru = 0
		}
		t.valid[w] = 0
	}
}

// FlushASID invalidates all non-global entries for an ASID within a VMID
// (sfence.vma x0, asid).
func (t *TLB) FlushASID(asid, vmid uint16) {
	want := makeKey(0, false, asid, vmid)
	t.flushWhere(func(tg tag) bool { return tg.key&^keyLevel == want })
}

// FlushVMID invalidates every entry belonging to a VMID (hfence.gvma).
func (t *TLB) FlushVMID(vmid uint16) {
	t.flushWhere(func(tg tag) bool { return tg.key&keyVMID == uint64(vmid)<<keyVMIDShift })
}

// FlushPage invalidates translations covering va for (asid, vmid),
// including superpages (sfence.vma va, asid).
func (t *TLB) FlushPage(va uint64, asid, vmid uint16) {
	vpnFull := va >> isa.PageShift
	t.flushWhere(func(tg tag) bool {
		if tg.key&keyVMID != uint64(vmid)<<keyVMIDShift {
			return false
		}
		if tg.key&keyGlobal == 0 && tg.key&keyASID != uint64(asid) {
			return false
		}
		level := (tg.key & keyLevel) >> keyLevelShift
		return tg.vpn == vpnFull>>(9*level)
	})
}

// Stats returns a copy of the accumulated counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats clears the counters (benchmark harness between runs).
func (t *TLB) ResetStats() { t.stats = Stats{} }

// Occupancy returns the number of valid entries (tests).
func (t *TLB) Occupancy() int {
	n := 0
	for _, w := range t.valid {
		n += bits.OnesCount64(w)
	}
	return n
}
