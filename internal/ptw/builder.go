package ptw

import (
	"fmt"

	"zion/internal/isa"
	"zion/internal/mem"
)

// FrameAllocator supplies zeroed, page-aligned physical frames for page
// tables. The SM passes an allocator drawing from the secure pool; the
// hypervisor passes one drawing from normal memory — which is precisely
// how the split-page-table design keeps shared subtrees out of secure RAM.
type FrameAllocator func() (uint64, error)

// Builder constructs page tables in physical memory.
type Builder struct {
	Mem   *mem.PhysMemory
	Alloc FrameAllocator
}

// NewRoot allocates and zeroes a root table: one frame for Sv39, four
// physically contiguous frames for Sv39x4. For stage-2 roots the allocator
// is invoked four times and must return consecutive frames starting at a
// 16 KiB-aligned address (block-based allocators hand out consecutive
// frames naturally; NewRoot verifies and reports violations).
func (b *Builder) NewRoot(stage2 bool) (uint64, error) {
	root, err := b.Alloc()
	if err != nil {
		return 0, err
	}
	size := RootSize(stage2)
	if root%size != 0 {
		return 0, fmt.Errorf("ptw: root frame %#x not aligned to %#x", root, size)
	}
	for next := root + isa.PageSize; next < root+size; next += isa.PageSize {
		f, err := b.Alloc()
		if err != nil {
			return 0, err
		}
		if f != next {
			return 0, fmt.Errorf("ptw: non-contiguous root frames: got %#x, want %#x", f, next)
		}
	}
	if err := b.Mem.Zero(root, size); err != nil {
		return 0, err
	}
	return root, nil
}

// Map installs a leaf translating va -> pa with the given flag bits
// (isa.PTERead etc.; isa.PTEValid is implied) at the given level
// (0 = 4 KiB, 1 = 2 MiB, 2 = 1 GiB). Intermediate tables are allocated on
// demand. Mapping over an existing leaf or a conflicting superpage fails.
func (b *Builder) Map(root, va, pa uint64, flags uint64, level int, stage2 bool) error {
	if level < 0 || level >= Levels {
		return fmt.Errorf("ptw: bad leaf level %d", level)
	}
	align := pageOffsetMask(level)
	if va&align != 0 || pa&align != 0 {
		return fmt.Errorf("ptw: va %#x / pa %#x misaligned for level %d", va, pa, level)
	}
	if va >= MaxVA(stage2) {
		return fmt.Errorf("ptw: va %#x exceeds range", va)
	}
	tablePA := root
	for l := Levels - 1; l > level; l-- {
		idx := vpn(va, l, stage2)
		pteAddr := tablePA + idx*8
		pte, err := b.Mem.ReadUint64(pteAddr)
		if err != nil {
			return err
		}
		if pte&isa.PTEValid == 0 {
			next, err := b.Alloc()
			if err != nil {
				return err
			}
			if err := b.Mem.Zero(next, isa.PageSize); err != nil {
				return err
			}
			pte = (next>>isa.PageShift)<<isa.PTEPPNShift | isa.PTEValid
			if err := b.Mem.WriteUint64(pteAddr, pte); err != nil {
				return err
			}
		} else if pte&(isa.PTERead|isa.PTEWrite|isa.PTEExec) != 0 {
			return fmt.Errorf("ptw: va %#x already covered by a level-%d superpage", va, l)
		}
		tablePA = (pte >> isa.PTEPPNShift) << isa.PageShift
	}
	idx := vpn(va, level, stage2 && level == Levels-1)
	pteAddr := tablePA + idx*8
	old, err := b.Mem.ReadUint64(pteAddr)
	if err != nil {
		return err
	}
	if old&isa.PTEValid != 0 {
		return fmt.Errorf("ptw: va %#x already mapped", va)
	}
	pte := (pa>>isa.PageShift)<<isa.PTEPPNShift | flags | isa.PTEValid
	return b.Mem.WriteUint64(pteAddr, pte)
}

// Unmap removes the leaf covering va and returns the old PTE value. It
// does not reclaim emptied intermediate tables (matching typical stage-2
// management, which leaves skeletons in place).
func (b *Builder) Unmap(root, va uint64, stage2 bool) (uint64, error) {
	pteAddr, pte, _, err := b.find(root, va, stage2)
	if err != nil {
		return 0, err
	}
	if err := b.Mem.WriteUint64(pteAddr, 0); err != nil {
		return 0, err
	}
	return pte, nil
}

// Protect rewrites the permission bits of the leaf covering va, returning
// the old PTE.
func (b *Builder) Protect(root, va uint64, flags uint64, stage2 bool) (uint64, error) {
	pteAddr, pte, _, err := b.find(root, va, stage2)
	if err != nil {
		return 0, err
	}
	nw := pte&^uint64(isa.PTEFlagMask) | flags | isa.PTEValid
	if err := b.Mem.WriteUint64(pteAddr, nw); err != nil {
		return 0, err
	}
	return pte, nil
}

// Lookup returns the leaf PTE and level for va without touching A/D bits,
// or an error if unmapped.
func (b *Builder) Lookup(root, va uint64, stage2 bool) (pte uint64, level int, err error) {
	_, pte, level, err = b.find(root, va, stage2)
	return pte, level, err
}

func (b *Builder) find(root, va uint64, stage2 bool) (pteAddr, pte uint64, level int, err error) {
	if va >= MaxVA(stage2) {
		return 0, 0, 0, fmt.Errorf("ptw: va %#x exceeds range", va)
	}
	tablePA := root
	for l := Levels - 1; l >= 0; l-- {
		idx := vpn(va, l, stage2 && l == Levels-1)
		pteAddr = tablePA + idx*8
		pte, err = b.Mem.ReadUint64(pteAddr)
		if err != nil {
			return 0, 0, 0, err
		}
		if pte&isa.PTEValid == 0 {
			return 0, 0, 0, fmt.Errorf("ptw: va %#x not mapped", va)
		}
		if pte&(isa.PTERead|isa.PTEWrite|isa.PTEExec) != 0 {
			return pteAddr, pte, l, nil
		}
		tablePA = (pte >> isa.PTEPPNShift) << isa.PageShift
	}
	return 0, 0, 0, fmt.Errorf("ptw: va %#x: non-leaf at level 0", va)
}

// SpliceRootEntry writes a root-level pointer entry directing one
// top-level slot (covering a 1 GiB slice of address space, or the Sv39x4
// equivalent) at an externally managed subtable. ZION's split page table
// uses this: the SM owns the CVM root and splices the hypervisor-managed
// shared subtable into the shared GPA window, while the private window's
// subtables stay in secure memory.
func (b *Builder) SpliceRootEntry(root uint64, slot uint64, subtablePA uint64, stage2 bool) error {
	entries := RootSize(stage2) / 8
	if slot >= entries {
		return fmt.Errorf("ptw: root slot %d out of range (%d entries)", slot, entries)
	}
	pte := (subtablePA>>isa.PageShift)<<isa.PTEPPNShift | isa.PTEValid
	return b.Mem.WriteUint64(root+slot*8, pte)
}

// ReadRootEntry returns the raw PTE stored in a root slot.
func (b *Builder) ReadRootEntry(root uint64, slot uint64, stage2 bool) (uint64, error) {
	entries := RootSize(stage2) / 8
	if slot >= entries {
		return 0, fmt.Errorf("ptw: root slot %d out of range", slot)
	}
	return b.Mem.ReadUint64(root + slot*8)
}

// RootSlotFor returns the root-table slot covering gpa.
func RootSlotFor(gpa uint64, stage2 bool) uint64 {
	return vpn(gpa, Levels-1, stage2)
}
