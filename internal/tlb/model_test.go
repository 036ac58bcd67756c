package tlb

import "zion/internal/isa"

// refTLB is the TLB as it was before tags and payload were split: an
// array of whole entries scanned in full by every lookup and flush.
// TestTLBMatchesModel runs it in lockstep with TLB.
type refTLB struct {
	sets  int
	ways  int
	tick  uint64
	arr   []refEntry // sets × ways
	stats Stats
	gen   uint64
}

type refEntry struct {
	valid  bool
	vpn    uint64
	asid   uint16
	vmid   uint16
	global bool
	ppn    uint64
	perms  uint64
	level  int
	lru    uint64
}

func newRefTLB(sets, ways int) *refTLB {
	return &refTLB{sets: sets, ways: ways, arr: make([]refEntry, sets*ways)}
}

func (t *refTLB) setBase(vpn uint64) int {
	s := int(vpn) % t.sets
	if s < 0 {
		s += t.sets
	}
	return s * t.ways
}

func (t *refTLB) Lookup(va uint64, asid, vmid uint16) (ppn uint64, perms uint64, level int, hit bool) {
	t.tick++
	vpnFull := va >> isa.PageShift
	for lvl := 0; lvl < 3; lvl++ {
		vpn := vpnFull >> (9 * uint(lvl))
		set := t.arr[t.setBase(vpn) : t.setBase(vpn)+t.ways]
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

func (t *refTLB) Peek(va uint64, asid, vmid uint16) (idx int, ppn uint64, perms uint64, level int, hit bool) {
	vpnFull := va >> isa.PageShift
	for lvl := 0; lvl < 3; lvl++ {
		vpn := vpnFull >> (9 * uint(lvl))
		base := t.setBase(vpn)
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

func (t *refTLB) TouchN(idx int, n uint64) {
	if n == 0 {
		return
	}
	t.tick += n
	t.arr[idx].lru = t.tick
	t.stats.Hits += n
}

// victim is the way Insert replaces in the set starting at base.
func (t *refTLB) victim(base int) int {
	set := t.arr[base : base+t.ways]
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
	return base + victim
}

func (t *refTLB) Insert(va, pa uint64, perms uint64, level int, asid, vmid uint16) {
	t.gen++
	t.tick++
	vpn := va >> uint(isa.PageShift+9*level)
	t.arr[t.victim(t.setBase(vpn))] = refEntry{
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

func (t *refTLB) FlushAll() {
	t.gen++
	t.stats.Flushes++
	for i := range t.arr {
		if t.arr[i].valid {
			t.arr[i].valid = false
			t.stats.FlushedEnt++
		}
	}
}

func (t *refTLB) FlushASID(asid, vmid uint16) {
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

func (t *refTLB) FlushVMID(vmid uint16) {
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

func (t *refTLB) FlushPage(va uint64, asid, vmid uint16) {
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

func (t *refTLB) Occupancy() int {
	n := 0
	for i := range t.arr {
		if t.arr[i].valid {
			n++
		}
	}
	return n
}
