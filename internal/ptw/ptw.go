// Package ptw implements Sv39 (stage-1) and Sv39x4 (stage-2) page-table
// walking and construction over the simulator's physical memory. Page
// tables are real little-endian PTE bytes stored in RAM frames, so the SM's
// claim that "CVM page tables live inside the secure pool" is enforced by
// the same PMP checks that guard any other secure memory.
package ptw

import (
	"fmt"

	"zion/internal/isa"
	"zion/internal/mem"
)

// Levels in an Sv39 tree. Level 2 is the root, level 0 the 4 KiB leaf.
const Levels = 3

// FaultReason says why a walk faulted: an index into faultText, so a walk
// fault (every stage-2 miss: each MMIO exit and each demand fault) carries
// one byte of reason and formats nothing until Error is called.
type FaultReason uint8

// Walk fault reasons. The per-level ones are consecutive, level 0 first.
const (
	faultNone FaultReason = iota
	faultRange
	faultRangeSv39
	faultInvalidPTE // + level
	_
	_
	faultReservedWR
	faultReserved
	faultNonLeaf
	faultMisaligned // + level
	_
	_
	faultMisalignedNested
	faultS2NoUser
	faultUserToSuper
	faultSuperToUser
	faultNotReadable
	faultNotWritable
	faultNotExecutable
	faultADClear
	faultPTEFetchEscape
	faultADUpdateEscape
	faultNestedFetchEscape
	faultPastLevel0
	numFaultReasons
)

var faultText = [numFaultReasons]string{
	faultNone:              "",
	faultRange:             "address exceeds translated range",
	faultRangeSv39:         "address exceeds Sv39 range",
	faultInvalidPTE:        "invalid PTE at level 0",
	faultInvalidPTE + 1:    "invalid PTE at level 1",
	faultInvalidPTE + 2:    "invalid PTE at level 2",
	faultReservedWR:        "reserved PTE encoding (W without R)",
	faultReserved:          "reserved PTE encoding",
	faultNonLeaf:           "non-leaf PTE at level 0",
	faultMisaligned:        "misaligned superpage at level 0",
	faultMisaligned + 1:    "misaligned superpage at level 1",
	faultMisaligned + 2:    "misaligned superpage at level 2",
	faultMisalignedNested:  "misaligned superpage",
	faultS2NoUser:          "stage-2 leaf without U bit",
	faultUserToSuper:       "user access to supervisor page",
	faultSuperToUser:       "supervisor access to user page without SUM",
	faultNotReadable:       "page not readable",
	faultNotWritable:       "page not writable",
	faultNotExecutable:     "page not executable",
	faultADClear:           "A/D bit clear",
	faultPTEFetchEscape:    "PTE fetch escaped RAM",
	faultADUpdateEscape:    "A/D update escaped RAM",
	faultNestedFetchEscape: "nested PTE fetch escaped RAM",
	faultPastLevel0:        "walk ran past level 0",
}

// String implements fmt.Stringer.
func (r FaultReason) String() string {
	if r < numFaultReasons {
		return faultText[r]
	}
	return fmt.Sprintf("fault reason %d", uint8(r))
}

// Access mirrors the three translation access kinds.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
	AccessFetch
)

// String implements fmt.Stringer.
func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessFetch:
		return "fetch"
	}
	return "?"
}

// PageFault describes a failed translation. GuestPage marks a stage-2
// (G-stage) fault, which maps to the *guest-page-fault* trap causes the
// hypervisor extension defines. When a PTE access of Walk or Lookup
// escaped RAM, the fault also records the PTE address and the memory, and
// Error rebuilds the memory's own error text from them.
type PageFault struct {
	Addr      uint64 // faulting VA (stage-1) or GPA (stage-2)
	PTEAddr   uint64 // the escaped PTE access (faultPTEFetchEscape, faultADUpdateEscape)
	ram       *mem.PhysMemory
	Access    Access
	GuestPage bool
	Reason    FaultReason
}

// Error implements error.
func (f *PageFault) Error() string {
	stage := "page"
	if f.GuestPage {
		stage = "guest-page"
	}
	reason := f.Reason.String()
	if f.ram != nil {
		op := "read"
		if f.Reason == faultADUpdateEscape {
			op = "write"
		}
		reason += ": " + f.ram.RangeError(op, f.PTEAddr, 8).Error()
	}
	return fmt.Sprintf("ptw: %s fault on %v at %#x: %s", stage, f.Access, f.Addr, reason)
}

// Cause returns the RISC-V trap cause for the fault.
func (f *PageFault) Cause() uint64 {
	if f.GuestPage {
		switch f.Access {
		case AccessRead:
			return isa.ExcLoadGuestPageFault
		case AccessWrite:
			return isa.ExcStoreGuestPageFault
		default:
			return isa.ExcInstGuestPageFault
		}
	}
	switch f.Access {
	case AccessRead:
		return isa.ExcLoadPageFault
	case AccessWrite:
		return isa.ExcStorePageFault
	default:
		return isa.ExcInstPageFault
	}
}

// Result reports a successful walk.
type Result struct {
	PA      uint64 // translated physical (or guest-physical) address
	PTE     uint64 // leaf PTE value
	PTEAddr uint64 // physical address of the leaf PTE (for A/D updates)
	Level   int    // leaf level: 0 = 4 KiB, 1 = 2 MiB, 2 = 1 GiB
	Steps   int    // PTE fetches performed (cycle accounting)
}

// Opts tunes permission interpretation during a walk.
type Opts struct {
	Stage2 bool // walk an Sv39x4 G-stage tree (user bit required on leaves)
	User   bool // access originates from U/VU privilege
	SUM    bool // supervisor-user-memory access permitted
	MXR    bool // make-executable-readable
	NoAD   bool // fault instead of updating A/D bits (Svade behaviour)
}

// WalkStats accumulates walk activity for the telemetry layer. The counts
// include nested (VS-stage-1 via G-stage) walks, so Steps reflects every
// PTE fetch the memory system really performed.
type WalkStats struct {
	Walks  uint64 // translations attempted
	Steps  uint64 // PTE fetches performed
	Faults uint64 // walks that ended in a page fault
}

// Walker reads and updates page tables in physical memory.
type Walker struct {
	Mem *mem.PhysMemory
	// Stats, when non-nil, collects walk counts (telemetry).
	Stats *WalkStats
}

// vpn extracts the 9-bit (or wider, for the Sv39x4 root) VPN slice for a level.
func vpn(va uint64, level int, stage2 bool) uint64 {
	shift := uint(isa.PageShift + 9*level)
	bits := uint(9)
	if stage2 && level == Levels-1 {
		bits = 11 // Sv39x4 widens the root index by 2 bits
	}
	return (va >> shift) & ((1 << bits) - 1)
}

// pageOffsetMask returns the offset mask for a leaf at the given level.
func pageOffsetMask(level int) uint64 {
	return (uint64(1) << uint(isa.PageShift+9*level)) - 1
}

// RootSize returns the root table size in bytes: 4 KiB for Sv39,
// 16 KiB for Sv39x4.
func RootSize(stage2 bool) uint64 {
	if stage2 {
		return 4 * isa.PageSize
	}
	return isa.PageSize
}

// MaxVA returns one past the largest translatable address: 2^39 for Sv39,
// 2^41 for Sv39x4 guest-physical space.
func MaxVA(stage2 bool) uint64 {
	if stage2 {
		return 1 << 41
	}
	return 1 << 39
}

// Walk translates va through the tree rooted at rootPA. On success it
// updates the leaf's A (and for writes D) bit unless opts.NoAD is set, in
// which case a stale A/D bit faults. A failed walk returns a *PageFault.
func (w *Walker) Walk(rootPA, va uint64, acc Access, opts Opts) (Result, error) {
	res, f, ok := w.Lookup(rootPA, va, acc, opts)
	if !ok {
		return res, &f
	}
	return res, nil
}

// Lookup is Walk with the fault returned by value: ok is false when the
// walk faulted, and f describes why. Nothing is allocated, so the trap
// path (every MMIO exit and demand fault) can take walk faults for free.
// A fault reports no steps: its PTE fetches are not charged.
func (w *Walker) Lookup(rootPA, va uint64, acc Access, opts Opts) (res Result, f PageFault, ok bool) {
	f, ok = w.lookup(&res, rootPA, va, acc, opts)
	return res, f, ok
}

// lookup is Lookup with the result written to *res, which a fault leaves
// untouched: a caller that walks into a field of its own result copies no
// Result back.
func (w *Walker) lookup(res *Result, rootPA, va uint64, acc Access, opts Opts) (PageFault, bool) {
	fault := func(reason FaultReason) (PageFault, bool) {
		w.count(0, false)
		return PageFault{Addr: va, Access: acc, GuestPage: opts.Stage2, Reason: reason}, false
	}
	escape := func(reason FaultReason, pteAddr uint64) (PageFault, bool) {
		w.count(0, false)
		return PageFault{Addr: va, PTEAddr: pteAddr, ram: w.Mem, Access: acc,
			GuestPage: opts.Stage2, Reason: reason}, false
	}
	if va >= MaxVA(opts.Stage2) {
		return fault(faultRange)
	}
	tablePA := rootPA
	steps := 0
	for level := Levels - 1; level >= 0; level-- {
		idx := vpn(va, level, opts.Stage2)
		pteAddr := tablePA + idx*8
		pte, err := w.Mem.ReadUint64(pteAddr)
		if err != nil {
			return escape(faultPTEFetchEscape, pteAddr)
		}
		steps++
		if pte&isa.PTEValid == 0 {
			return fault(faultInvalidPTE + FaultReason(level))
		}
		r, ww, x := pte&isa.PTERead != 0, pte&isa.PTEWrite != 0, pte&isa.PTEExec != 0
		if ww && !r {
			return fault(faultReservedWR)
		}
		if !r && !ww && !x {
			// Pointer to next level.
			if level == 0 {
				return fault(faultNonLeaf)
			}
			tablePA = (pte >> isa.PTEPPNShift) << isa.PageShift
			continue
		}
		// Leaf.
		ppn := (pte >> isa.PTEPPNShift) << isa.PageShift
		if level > 0 && ppn&pageOffsetMask(level) != 0 {
			return fault(faultMisaligned + FaultReason(level))
		}
		if reason := checkLeafPerms(pte, acc, opts); reason != faultNone {
			return fault(reason)
		}
		// A/D maintenance.
		need := isa.PTEAccess
		if acc == AccessWrite {
			need |= isa.PTEDirty
		}
		if pte&need != need {
			if opts.NoAD {
				return fault(faultADClear)
			}
			pte |= need
			if err := w.Mem.WriteUint64(pteAddr, pte); err != nil {
				return escape(faultADUpdateEscape, pteAddr)
			}
		}
		pa := ppn | va&pageOffsetMask(level)
		w.count(steps, true)
		*res = Result{PA: pa, PTE: pte, PTEAddr: pteAddr, Level: level, Steps: steps}
		return PageFault{}, true
	}
	return fault(faultPastLevel0) // unreachable
}

// count adds one walk of steps PTE fetches to the walker's stats.
func (w *Walker) count(steps int, ok bool) {
	if w.Stats == nil {
		return
	}
	w.Stats.Walks++
	w.Stats.Steps += uint64(steps)
	if !ok {
		w.Stats.Faults++
	}
}

func checkLeafPerms(pte uint64, acc Access, opts Opts) FaultReason {
	user := pte&isa.PTEUser != 0
	if opts.Stage2 {
		// All G-stage leaves must be marked user-accessible, per spec.
		if !user {
			return faultS2NoUser
		}
	} else if opts.User && !user {
		return faultUserToSuper
	} else if !opts.User && user && !opts.SUM {
		return faultSuperToUser
	}
	switch acc {
	case AccessRead:
		if pte&isa.PTERead == 0 {
			if opts.MXR && pte&isa.PTEExec != 0 {
				return faultNone
			}
			return faultNotReadable
		}
	case AccessWrite:
		if pte&isa.PTEWrite == 0 {
			return faultNotWritable
		}
	case AccessFetch:
		if pte&isa.PTEExec == 0 {
			return faultNotExecutable
		}
	}
	return faultNone
}

// TwoStageResult describes a nested VS-mode translation.
type TwoStageResult struct {
	PA         uint64 // final supervisor-physical address
	GPA        uint64 // intermediate guest-physical address
	Steps      int    // total PTE fetches across both stages
	Stage1Leaf Result
	Stage2Leaf Result
}

// TranslateTwoStage performs the full nested walk a hart does in VS/VU
// mode: every stage-1 PTE fetch is itself translated through the G-stage,
// then the resulting GPA is translated. vsatpRoot==0 means stage-1 Bare
// (the VA is already a GPA), which is how guests boot before enabling
// their own paging.
//
// When a stage-2 translation fails the returned fault is a guest-page
// fault whose Addr is the GPA — exactly the value hardware reports in
// htval (shifted right by 2). A failed walk returns a *PageFault.
func (w *Walker) TranslateTwoStage(vsatpRoot, hgatpRoot, va uint64, acc Access, user bool) (TwoStageResult, error) {
	var out TwoStageResult
	if f, ok := w.LookupTwoStage(&out, vsatpRoot, hgatpRoot, va, acc, user); !ok {
		return out, &f
	}
	return out, nil
}

// LookupTwoStage is TranslateTwoStage with the result written to *out and
// the fault returned by value, as Lookup is to Walk. On a fault out's
// Steps still counts the PTE fetches of the stage-1 walk.
func (w *Walker) LookupTwoStage(out *TwoStageResult, vsatpRoot, hgatpRoot, va uint64, acc Access, user bool) (PageFault, bool) {
	*out = TwoStageResult{}
	gpa := va
	if vsatpRoot != 0 {
		// Nested stage-1 walk: translate each PTE address through stage 2.
		res, steps, f, ok := w.walkStage1Nested(vsatpRoot, hgatpRoot, va, acc, user)
		out.Steps += steps
		if !ok {
			return f, false
		}
		out.Stage1Leaf = res
		gpa = res.PA
	}
	out.GPA = gpa
	// Implicit accesses for stage-1 PTE fetches are reads; the final
	// access uses the original access type.
	f, ok := w.lookup(&out.Stage2Leaf, hgatpRoot, gpa, acc, Opts{Stage2: true})
	if !ok {
		return f, false
	}
	out.Steps += out.Stage2Leaf.Steps
	out.PA = out.Stage2Leaf.PA
	return PageFault{}, true
}

// walkStage1Nested is Walk specialised for the VS stage-1 tree, where each
// PTE fetch address is a GPA needing its own G-stage walk.
func (w *Walker) walkStage1Nested(rootGPA, hgatpRoot, va uint64, acc Access, user bool) (Result, int, PageFault, bool) {
	steps := 0
	fault := func(reason FaultReason) (Result, int, PageFault, bool) {
		return Result{}, steps, PageFault{Addr: va, Access: acc, GuestPage: false, Reason: reason}, false
	}
	if va >= MaxVA(false) {
		return fault(faultRangeSv39)
	}
	tableGPA := rootGPA
	opts := Opts{User: user}
	for level := Levels - 1; level >= 0; level-- {
		idx := vpn(va, level, false)
		pteGPA := tableGPA + idx*8
		// Implicit G-stage translation of the PTE address (a read).
		g, gf, ok := w.Lookup(hgatpRoot, pteGPA, AccessRead, Opts{Stage2: true})
		steps += g.Steps
		if !ok {
			return Result{}, steps, gf, false // guest-page fault on the PTE fetch
		}
		pte, err := w.Mem.ReadUint64(g.PA)
		if err != nil {
			return fault(faultNestedFetchEscape)
		}
		steps++
		if pte&isa.PTEValid == 0 {
			return fault(faultInvalidPTE + FaultReason(level))
		}
		r, ww, x := pte&isa.PTERead != 0, pte&isa.PTEWrite != 0, pte&isa.PTEExec != 0
		if ww && !r {
			return fault(faultReserved)
		}
		if !r && !ww && !x {
			if level == 0 {
				return fault(faultNonLeaf)
			}
			tableGPA = (pte >> isa.PTEPPNShift) << isa.PageShift
			continue
		}
		ppn := (pte >> isa.PTEPPNShift) << isa.PageShift
		if level > 0 && ppn&pageOffsetMask(level) != 0 {
			return fault(faultMisalignedNested)
		}
		if reason := checkLeafPerms(pte, acc, opts); reason != faultNone {
			return fault(reason)
		}
		need := isa.PTEAccess
		if acc == AccessWrite {
			need |= isa.PTEDirty
		}
		if pte&need != need {
			pte |= need
			// The A/D update is itself a stage-2 write to the PTE.
			gw, gf, ok := w.Lookup(hgatpRoot, pteGPA, AccessWrite, Opts{Stage2: true})
			steps += gw.Steps
			if !ok {
				return Result{}, steps, gf, false
			}
			if err := w.Mem.WriteUint64(gw.PA, pte); err != nil {
				return fault(faultADUpdateEscape)
			}
		}
		pa := ppn | va&pageOffsetMask(level)
		return Result{PA: pa, PTE: pte, PTEAddr: g.PA, Level: level, Steps: steps}, steps, PageFault{}, true
	}
	return fault(faultPastLevel0)
}
