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

// Per-level fault reasons, fixed text so that a walk fault (every stage-2
// miss: each MMIO exit and each demand fault) formats nothing.
var (
	invalidPTEReason = [Levels]string{
		"invalid PTE at level 0", "invalid PTE at level 1", "invalid PTE at level 2",
	}
	misalignedSuperpageReason = [Levels]string{
		"misaligned superpage at level 0", "misaligned superpage at level 1", "misaligned superpage at level 2",
	}
)

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
// hypervisor extension defines.
type PageFault struct {
	Addr      uint64 // faulting VA (stage-1) or GPA (stage-2)
	Access    Access
	GuestPage bool
	Reason    string
}

// Error implements error.
func (f *PageFault) Error() string {
	stage := "page"
	if f.GuestPage {
		stage = "guest-page"
	}
	return fmt.Sprintf("ptw: %s fault on %v at %#x: %s", stage, f.Access, f.Addr, f.Reason)
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
func (w *Walker) Lookup(rootPA, va uint64, acc Access, opts Opts) (res Result, f PageFault, ok bool) {
	res, f, ok = w.walk(rootPA, va, acc, opts)
	if w.Stats != nil {
		w.Stats.Walks++
		w.Stats.Steps += uint64(res.Steps)
		if !ok {
			w.Stats.Faults++
		}
	}
	return res, f, ok
}

func (w *Walker) walk(rootPA, va uint64, acc Access, opts Opts) (Result, PageFault, bool) {
	fault := func(reason string) (Result, PageFault, bool) {
		return Result{}, PageFault{Addr: va, Access: acc, GuestPage: opts.Stage2, Reason: reason}, false
	}
	if va >= MaxVA(opts.Stage2) {
		return fault("address exceeds translated range")
	}
	tablePA := rootPA
	steps := 0
	for level := Levels - 1; level >= 0; level-- {
		idx := vpn(va, level, opts.Stage2)
		pteAddr := tablePA + idx*8
		pte, err := w.Mem.ReadUint64(pteAddr)
		if err != nil {
			return fault("PTE fetch escaped RAM: " + err.Error())
		}
		steps++
		if pte&isa.PTEValid == 0 {
			return fault(invalidPTEReason[level])
		}
		r, ww, x := pte&isa.PTERead != 0, pte&isa.PTEWrite != 0, pte&isa.PTEExec != 0
		if ww && !r {
			return fault("reserved PTE encoding (W without R)")
		}
		if !r && !ww && !x {
			// Pointer to next level.
			if level == 0 {
				return fault("non-leaf PTE at level 0")
			}
			tablePA = (pte >> isa.PTEPPNShift) << isa.PageShift
			continue
		}
		// Leaf.
		ppn := (pte >> isa.PTEPPNShift) << isa.PageShift
		if level > 0 && ppn&pageOffsetMask(level) != 0 {
			return fault(misalignedSuperpageReason[level])
		}
		if err := checkLeafPerms(pte, acc, opts); err != "" {
			return fault(err)
		}
		// A/D maintenance.
		need := isa.PTEAccess
		if acc == AccessWrite {
			need |= isa.PTEDirty
		}
		if pte&need != need {
			if opts.NoAD {
				return fault("A/D bit clear")
			}
			pte |= need
			if err := w.Mem.WriteUint64(pteAddr, pte); err != nil {
				return fault("A/D update escaped RAM: " + err.Error())
			}
		}
		pa := ppn | va&pageOffsetMask(level)
		return Result{PA: pa, PTE: pte, PTEAddr: pteAddr, Level: level, Steps: steps}, PageFault{}, true
	}
	return fault("walk ran past level 0") // unreachable
}

func checkLeafPerms(pte uint64, acc Access, opts Opts) string {
	user := pte&isa.PTEUser != 0
	if opts.Stage2 {
		// All G-stage leaves must be marked user-accessible, per spec.
		if !user {
			return "stage-2 leaf without U bit"
		}
	} else if opts.User && !user {
		return "user access to supervisor page"
	} else if !opts.User && user && !opts.SUM {
		return "supervisor access to user page without SUM"
	}
	switch acc {
	case AccessRead:
		if pte&isa.PTERead == 0 {
			if opts.MXR && pte&isa.PTEExec != 0 {
				return ""
			}
			return "page not readable"
		}
	case AccessWrite:
		if pte&isa.PTEWrite == 0 {
			return "page not writable"
		}
	case AccessFetch:
		if pte&isa.PTEExec == 0 {
			return "page not executable"
		}
	}
	return ""
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
	out, f, ok := w.LookupTwoStage(vsatpRoot, hgatpRoot, va, acc, user)
	if !ok {
		return out, &f
	}
	return out, nil
}

// LookupTwoStage is TranslateTwoStage with the fault returned by value,
// as Lookup is to Walk. On a fault the result's Steps still counts every
// PTE fetch the walk performed.
func (w *Walker) LookupTwoStage(vsatpRoot, hgatpRoot, va uint64, acc Access, user bool) (TwoStageResult, PageFault, bool) {
	out := TwoStageResult{}
	gpa := va
	if vsatpRoot != 0 {
		// Nested stage-1 walk: translate each PTE address through stage 2.
		res, steps, f, ok := w.walkStage1Nested(vsatpRoot, hgatpRoot, va, acc, user)
		out.Steps += steps
		if !ok {
			return out, f, false
		}
		out.Stage1Leaf = res
		gpa = res.PA
	}
	out.GPA = gpa
	// Implicit accesses for stage-1 PTE fetches are reads; the final
	// access uses the original access type.
	s2, f, ok := w.Lookup(hgatpRoot, gpa, acc, Opts{Stage2: true})
	out.Steps += s2.Steps
	if !ok {
		return out, f, false
	}
	out.Stage2Leaf = s2
	out.PA = s2.PA
	return out, PageFault{}, true
}

// walkStage1Nested is Walk specialised for the VS stage-1 tree, where each
// PTE fetch address is a GPA needing its own G-stage walk.
func (w *Walker) walkStage1Nested(rootGPA, hgatpRoot, va uint64, acc Access, user bool) (Result, int, PageFault, bool) {
	steps := 0
	fault := func(reason string) (Result, int, PageFault, bool) {
		return Result{}, steps, PageFault{Addr: va, Access: acc, GuestPage: false, Reason: reason}, false
	}
	if va >= MaxVA(false) {
		return fault("address exceeds Sv39 range")
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
			return fault("nested PTE fetch escaped RAM")
		}
		steps++
		if pte&isa.PTEValid == 0 {
			return fault(invalidPTEReason[level])
		}
		r, ww, x := pte&isa.PTERead != 0, pte&isa.PTEWrite != 0, pte&isa.PTEExec != 0
		if ww && !r {
			return fault("reserved PTE encoding")
		}
		if !r && !ww && !x {
			if level == 0 {
				return fault("non-leaf PTE at level 0")
			}
			tableGPA = (pte >> isa.PTEPPNShift) << isa.PageShift
			continue
		}
		ppn := (pte >> isa.PTEPPNShift) << isa.PageShift
		if level > 0 && ppn&pageOffsetMask(level) != 0 {
			return fault("misaligned superpage")
		}
		if msg := checkLeafPerms(pte, acc, opts); msg != "" {
			return fault(msg)
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
				return fault("A/D update escaped RAM")
			}
		}
		pa := ppn | va&pageOffsetMask(level)
		return Result{PA: pa, PTE: pte, PTEAddr: g.PA, Level: level, Steps: steps}, steps, PageFault{}, true
	}
	return fault("walk ran past level 0")
}
