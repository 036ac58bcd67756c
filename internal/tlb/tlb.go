// Package tlb models a set-associative translation lookaside buffer with
// VMID/ASID tagging and the SFENCE.VMA / HFENCE.GVMA invalidation
// operations. The hart consults it before walking page tables; its
// hit/miss statistics feed the cycle model, so the cost of the TLB flushes
// ZION performs on world switches and pool expansion shows up in the
// benchmark numbers the same way it does on hardware.
//
// Concurrency: a TLB is owned by its hart's goroutine and has no internal
// locking, mirroring the per-hart hardware structure. Under the parallel
// engine, cross-hart invalidations (the sfence/TLB-shootdown IPIs the SM
// issues on pool registration, CVM destroy, and quarantine) must be routed
// through platform.Machine.OnHart so they execute on the owning goroutine
// at its next quantum barrier, never by direct peer mutation.
package tlb

import "zion/internal/isa"

// Entry is one cached translation. Tags not applicable to an entry are
// zero (e.g. ASID for stage-2-only entries).
type Entry struct {
	valid bool
	vpn   uint64 // virtual (or guest-physical) page number
	asid  uint16
	vmid  uint16
	// global marks ASID-independent mappings (PTE G bit).
	global bool
	// Payload.
	ppn   uint64
	perms uint64 // leaf PTE flag bits
	level int    // leaf level for superpage entries
	lru   uint64 // last-use tick
}

// Stats accumulates TLB event counts.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Flushes    uint64
	FlushedEnt uint64
}

// Lookups is the total translation attempts.
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses }

// HitRate is Hits/Lookups (0 when no lookups ran).
func (s Stats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// TLB is a set-associative cache of leaf translations.
type TLB struct {
	sets  int
	ways  int
	tick  uint64
	arr   []Entry // sets × ways
	stats Stats
	// gen counts content changes (inserts and flushes). The hart's
	// fast-path micro-TLB snapshots it when caching a hit: as long as gen
	// is unchanged, no entry was replaced or invalidated, so a Lookup of
	// the same (va, asid, vmid) would find the same first-matching entry.
	// LRU updates do not bump gen — they never change which entry matches.
	gen uint64
	// Pad to two whole 64-byte cache lines. Every hit writes tick and
	// stats, and each hart owns a TLB; unpadded (88 bytes), two harts'
	// TLBs allocated side by side share a line, and the harts of a
	// parallel run stall on each other's writes.
	_ [40]byte
}

// New builds a TLB with the given geometry. Typical embedded cores carry
// 32–128 entries; we default callers to 64 entries / 4 ways.
func New(sets, ways int) *TLB {
	if sets <= 0 || ways <= 0 {
		panic("tlb: geometry must be positive")
	}
	return &TLB{sets: sets, ways: ways, arr: make([]Entry, sets*ways)}
}

// NewDefault returns the standard 16-set 4-way (64 entry) configuration.
func NewDefault() *TLB { return New(16, 4) }

func (t *TLB) set(vpn uint64) []Entry {
	s := int(vpn) % t.sets
	if s < 0 {
		s += t.sets
	}
	return t.arr[s*t.ways : (s+1)*t.ways]
}

// Lookup searches for a translation of va under (asid, vmid). On a hit it
// returns the cached physical page number for the containing page and the
// leaf flags.
func (t *TLB) Lookup(va uint64, asid, vmid uint16) (ppn uint64, perms uint64, level int, hit bool) {
	t.tick++
	vpnFull := va >> isa.PageShift
	for lvl := 0; lvl < 3; lvl++ {
		vpn := vpnFull >> (9 * uint(lvl))
		set := t.set(vpn)
		for i := range set {
			e := &set[i]
			if !e.valid || e.level != lvl || e.vpn != vpn || e.vmid != vmid {
				continue
			}
			if !e.global && e.asid != asid {
				continue
			}
			e.lru = t.tick
			t.stats.Hits++
			return e.ppn, e.perms, e.level, true
		}
	}
	t.stats.Misses++
	return 0, 0, 0, false
}

// Gen returns the content generation (see the field comment).
func (t *TLB) Gen() uint64 { return t.gen }

// Peek searches exactly like Lookup — same level order, same way order —
// but with zero side effects: no tick advance, no LRU update, no stats.
// On a hit it additionally returns the matched entry's index in the
// backing array, which Touch accepts to replay the hit's state effects
// later. The fast path uses Peek to build micro-TLB entries without
// perturbing the statistics the slow path would have produced.
func (t *TLB) Peek(va uint64, asid, vmid uint16) (idx int, ppn uint64, perms uint64, level int, hit bool) {
	vpnFull := va >> isa.PageShift
	for lvl := 0; lvl < 3; lvl++ {
		vpn := vpnFull >> (9 * uint(lvl))
		s := int(vpn) % t.sets
		if s < 0 {
			s += t.sets
		}
		base := s * t.ways
		for i := 0; i < t.ways; i++ {
			e := &t.arr[base+i]
			if !e.valid || e.level != lvl || e.vpn != vpn || e.vmid != vmid {
				continue
			}
			if !e.global && e.asid != asid {
				continue
			}
			return base + i, e.ppn, e.perms, e.level, true
		}
	}
	return 0, 0, 0, 0, false
}

// Touch replays the state effects of a Lookup hit on entry idx: it
// advances the tick, refreshes the entry's LRU stamp, and counts a hit —
// bit-identical to what Lookup would have done. idx must come from a Peek
// whose result is still current (TLB gen unchanged since).
func (t *TLB) Touch(idx int) {
	t.tick++
	t.arr[idx].lru = t.tick
	t.stats.Hits++
}

// TouchN replays n consecutive Lookup hits on entry idx in one step: the
// tick advances by n, the entry takes the last hit's LRU stamp, and n hits
// are counted — the same state n calls of Touch(idx) leave, because the
// intermediate stamps are overwritten before anything could observe them.
// n == 0 changes nothing.
func (t *TLB) TouchN(idx int, n uint64) {
	if n == 0 {
		return
	}
	t.tick += n
	t.arr[idx].lru = t.tick
	t.stats.Hits += n
}

// Insert caches a leaf translation. level is the leaf level (0/1/2);
// va and pa are truncated to the page frame of that level.
func (t *TLB) Insert(va, pa uint64, perms uint64, level int, asid, vmid uint16) {
	t.gen++
	t.tick++
	vpn := va >> uint(isa.PageShift+9*level)
	set := t.set(vpn)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = Entry{
		valid:  true,
		vpn:    vpn,
		asid:   asid,
		vmid:   vmid,
		global: perms&isa.PTEGlobal != 0,
		ppn:    pa >> uint(isa.PageShift+9*level),
		perms:  perms,
		level:  level,
		lru:    t.tick,
	}
}

// FlushAll invalidates every entry (sfence.vma x0, x0 with no ASID plus
// hfence of all VMIDs — the big hammer the SM uses on pool expansion).
func (t *TLB) FlushAll() {
	t.gen++
	t.stats.Flushes++
	for i := range t.arr {
		if t.arr[i].valid {
			t.arr[i].valid = false
			t.stats.FlushedEnt++
		}
	}
}

// FlushASID invalidates all non-global entries for an ASID within a VMID
// (sfence.vma x0, asid).
func (t *TLB) FlushASID(asid, vmid uint16) {
	t.gen++
	t.stats.Flushes++
	for i := range t.arr {
		e := &t.arr[i]
		if e.valid && !e.global && e.asid == asid && e.vmid == vmid {
			e.valid = false
			t.stats.FlushedEnt++
		}
	}
}

// FlushVMID invalidates every entry belonging to a VMID (hfence.gvma).
func (t *TLB) FlushVMID(vmid uint16) {
	t.gen++
	t.stats.Flushes++
	for i := range t.arr {
		e := &t.arr[i]
		if e.valid && e.vmid == vmid {
			e.valid = false
			t.stats.FlushedEnt++
		}
	}
}

// FlushPage invalidates translations covering va for (asid, vmid),
// including superpages (sfence.vma va, asid).
func (t *TLB) FlushPage(va uint64, asid, vmid uint16) {
	t.gen++
	t.stats.Flushes++
	vpnFull := va >> isa.PageShift
	for i := range t.arr {
		e := &t.arr[i]
		if !e.valid || e.vmid != vmid {
			continue
		}
		if !e.global && e.asid != asid {
			continue
		}
		if e.vpn == vpnFull>>(9*uint(e.level)) {
			e.valid = false
			t.stats.FlushedEnt++
		}
	}
}

// Stats returns a copy of the accumulated counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats clears the counters (benchmark harness between runs).
func (t *TLB) ResetStats() { t.stats = Stats{} }

// Occupancy returns the number of valid entries (tests).
func (t *TLB) Occupancy() int {
	n := 0
	for i := range t.arr {
		if t.arr[i].valid {
			n++
		}
	}
	return n
}
