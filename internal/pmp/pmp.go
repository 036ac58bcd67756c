// Package pmp models RISC-V Physical Memory Protection: per-hart sets of
// entries programmed through pmpcfg/pmpaddr CSRs, with NA4, NAPOT and TOR
// address matching, static entry priority, and the lock bit.
//
// ZION's Secure Monitor uses PMP to gate the secure memory pool: while the
// hart runs in Normal mode the pool entry denies R/W/X to S/U software, and
// the SM flips permissions on the world switch into CVM mode. The model
// checks every simulated S/U-level access, so a hypervisor "attack" on
// secure memory faults exactly as it would on hardware.
//
// Concurrency: like the TLB, a PMP unit is per-hart state owned by that
// hart's goroutine, with no internal locking. The SM reprograms *other*
// harts' pool entries on FnRegisterPool; under the parallel engine those
// writes go through platform.Machine.OnHart and land at the peer's next
// quantum barrier — the simulated analogue of the IPI+fence sequence real
// firmware uses, and the reason PMP reads need no atomics.
package pmp

import (
	"fmt"
	"math/bits"
)

// NumEntries is the number of PMP entries per hart. Commodity parts
// implement 16 (the paper relies on this being small — it is why pure
// region-based isolation cannot scale past ~13 concurrent enclaves once
// firmware regions are subtracted).
const NumEntries = 16

// Permission bits and address-matching modes in a pmpNcfg byte.
const (
	PermR = 1 << 0
	PermW = 1 << 1
	PermX = 1 << 2

	aShift = 3
	AOff   = 0 // entry disabled
	ATOR   = 1 // top of range
	ANA4   = 2 // naturally aligned 4-byte
	ANAPOT = 3 // naturally aligned power-of-two

	Locked = 1 << 7
)

// AccessType distinguishes the three access kinds PMP checks.
type AccessType uint8

// Access kinds.
const (
	AccessRead AccessType = iota
	AccessWrite
	AccessExec
)

// String implements fmt.Stringer.
func (a AccessType) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "?"
}

// Unit is one hart's PMP block: 16 config bytes (packed into pmpcfg0/2 on
// RV64) and 16 address registers.
type Unit struct {
	cfg  [NumEntries]uint8
	addr [NumEntries]uint64 // raw pmpaddr values (physical address >> 2)
	// lo and hi cache each entry's entryRange, decoded when its cfg or
	// address (or, for TOR, its lower neighbour's address) changes, so
	// check decodes nothing. An entry that is off holds [0, 0), which no
	// access overlaps.
	lo, hi [NumEntries]uint64
	stats  Stats
	// gen counts reprogrammings (SetCfg/SetAddr/Restore). A cached Probe
	// verdict is valid only while gen is unchanged.
	gen uint64
}

// Stats counts PMP check activity (telemetry).
type Stats struct {
	Checks uint64 // accesses evaluated
	Denied uint64 // accesses rejected
}

// Stats returns the accumulated check counts.
func (u *Unit) Stats() Stats { return u.stats }

// New returns a PMP unit with all entries off (reset state). With no
// matching entry, M-mode accesses succeed and S/U accesses fail, per spec.
func New() *Unit { return &Unit{} }

// SetCfg writes one entry's configuration byte, honouring the lock bit:
// writes to a locked entry are ignored, as on hardware.
func (u *Unit) SetCfg(i int, cfg uint8) {
	if u.cfg[i]&Locked != 0 {
		return
	}
	remode := (u.cfg[i]^cfg)>>aShift&3 != 0
	u.cfg[i] = cfg
	if remode { // a permission or lock change keeps the range
		u.refresh(i)
	}
	u.gen++
}

// Cfg returns one entry's configuration byte.
func (u *Unit) Cfg(i int) uint8 { return u.cfg[i] }

// SetAddr writes pmpaddr[i]. Writes are ignored if entry i is locked, or if
// entry i+1 is locked in TOR mode (its base would move), per spec.
func (u *Unit) SetAddr(i int, v uint64) {
	if u.cfg[i]&Locked != 0 {
		return
	}
	if i+1 < NumEntries && u.cfg[i+1]&Locked != 0 && (u.cfg[i+1]>>aShift)&3 == ATOR {
		return
	}
	u.addr[i] = v
	u.refresh(i)
	if i+1 < NumEntries {
		u.refresh(i + 1) // a TOR neighbour's base moved
	}
	u.gen++
}

// refresh re-decodes entry i's cached range.
func (u *Unit) refresh(i int) {
	lo, hi, ok := u.entryRange(i)
	if !ok {
		lo, hi = 0, 0
	}
	u.lo[i], u.hi[i] = lo, hi
}

// Gen returns the reprogramming generation (see the field comment).
func (u *Unit) Gen() uint64 { return u.gen }

// Addr returns pmpaddr[i].
func (u *Unit) Addr(i int) uint64 { return u.addr[i] }

// ReadCfgCSR returns pmpcfg0 (reg==0) or pmpcfg2 (reg==2), each packing 8
// entry bytes little-endian as on RV64.
func (u *Unit) ReadCfgCSR(reg int) uint64 {
	base := reg * 4 // pmpcfg2 covers entries 8..15
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(u.cfg[base+i]) << (8 * uint(i))
	}
	return v
}

// WriteCfgCSR writes pmpcfg0/pmpcfg2, respecting per-entry locks.
func (u *Unit) WriteCfgCSR(reg int, v uint64) {
	base := reg * 4
	for i := 0; i < 8; i++ {
		u.SetCfg(base+i, uint8(v>>(8*uint(i))))
	}
}

// EncodeNAPOT converts a naturally aligned power-of-two region to a raw
// pmpaddr value. size must be a power of two ≥ 8 and base aligned to size.
func EncodeNAPOT(base, size uint64) (uint64, error) {
	if size < 8 || size&(size-1) != 0 {
		return 0, fmt.Errorf("pmp: NAPOT size %#x not a power of two ≥ 8", size)
	}
	if base%size != 0 {
		return 0, fmt.Errorf("pmp: base %#x not aligned to size %#x", base, size)
	}
	return (base >> 2) | (size/8 - 1), nil
}

// DecodeNAPOT recovers (base, size) from a raw NAPOT pmpaddr value.
func DecodeNAPOT(raw uint64) (base, size uint64) {
	// The trailing ones of raw encode the size; all ones (64) yields
	// base 0, size 0, as Go's shifts by 64 produce 0.
	ones := uint(bits.TrailingZeros64(^raw))
	size = uint64(8) << ones
	base = (raw &^ ((1 << ones) - 1)) << 2
	return base, size
}

// entryRange returns the [lo, hi) physical range entry i covers, or
// ok=false when the entry is off.
func (u *Unit) entryRange(i int) (lo, hi uint64, ok bool) {
	switch (u.cfg[i] >> aShift) & 3 {
	case AOff:
		return 0, 0, false
	case ATOR:
		if i == 0 {
			lo = 0
		} else {
			lo = u.addr[i-1] << 2
		}
		hi = u.addr[i] << 2
		if hi <= lo {
			return 0, 0, false
		}
		return lo, hi, true
	case ANA4:
		lo = u.addr[i] << 2
		return lo, lo + 4, true
	case ANAPOT:
		b, s := DecodeNAPOT(u.addr[i])
		return b, b + s, true
	}
	return 0, 0, false
}

// Check applies the PMP to an access of n bytes at addr. machineMode
// selects the M-mode rule (no matching entry ⇒ allow; matching locked
// entry ⇒ enforce). For S/U modes a matching entry's permission bits
// decide, and no match means the access fails.
//
// Per spec, an access that only partially matches an entry fails
// regardless of permissions.
func (u *Unit) Check(addr, n uint64, acc AccessType, machineMode bool) bool {
	ok := u.check(addr, n, acc, machineMode)
	u.stats.Checks++
	if !ok {
		u.stats.Denied++
	}
	return ok
}

// Probe evaluates the same rules as Check without recording statistics.
// The fast path probes whole pages when building micro-TLB entries; a
// passing probe is cacheable because full containment means every
// sub-access resolves against the same first-matching entry with the same
// permission bits (partial-match rejection can't differ within the page).
func (u *Unit) Probe(addr, n uint64, acc AccessType, machineMode bool) bool {
	return u.check(addr, n, acc, machineMode)
}

// NoteChecks counts n allowed accesses evaluated by a cached fast-path
// verdict, keeping Stats.Checks bit-identical to slow-path execution: the
// statistics n allowed Check calls leave.
func (u *Unit) NoteChecks(n uint64) { u.stats.Checks += n }

func (u *Unit) check(addr, n uint64, acc AccessType, machineMode bool) bool {
	if n == 0 {
		n = 1
	}
	end := addr + n
	for i := 0; i < NumEntries; i++ {
		lo, hi := u.lo[i], u.hi[i]
		if addr >= hi || end <= lo {
			continue // no overlap (an entry that is off holds [0, 0))
		}
		contained := addr >= lo && end <= hi
		if !contained {
			return false // partial match always fails
		}
		if machineMode && u.cfg[i]&Locked == 0 {
			return true // unlocked entries do not constrain M-mode
		}
		switch acc {
		case AccessRead:
			return u.cfg[i]&PermR != 0
		case AccessWrite:
			return u.cfg[i]&PermW != 0
		case AccessExec:
			return u.cfg[i]&PermX != 0
		}
		return false
	}
	return machineMode
}

// Snapshot captures all entries for later restore; the SM uses this to
// implement the world switch (swap Normal-mode and CVM-mode PMP views).
type Snapshot struct {
	Cfg  [NumEntries]uint8
	Addr [NumEntries]uint64
}

// Save copies the unit's state.
func (u *Unit) Save() Snapshot { return Snapshot{Cfg: u.cfg, Addr: u.addr} }

// Restore overwrites the unit's state, ignoring locks (only M-mode firmware
// calls this, and hardware lock semantics apply to CSR writes, not to the
// conceptual reprogramming the SM performs before mret).
func (u *Unit) Restore(s Snapshot) {
	u.cfg, u.addr = s.Cfg, s.Addr
	for i := range u.cfg {
		u.refresh(i)
	}
	u.gen++
}

// ActiveEntries returns the indices of enabled entries (diagnostics).
func (u *Unit) ActiveEntries() []int {
	var out []int
	for i := 0; i < NumEntries; i++ {
		if (u.cfg[i]>>aShift)&3 != AOff {
			out = append(out, i)
		}
	}
	return out
}
