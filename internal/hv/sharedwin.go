package hv

import (
	"sync/atomic"

	"zion/internal/isa"
	"zion/internal/sm"
)

// sharedWindowSize is the span of a CVM's shared GPA window: the one
// level-2 slot of the stage-2 root that points at the hypervisor's own
// subtable (§IV.E).
const sharedWindowSize = 1 << 30

// sharedValid marks a present sharedEntry. Entries hold page-aligned
// PAs, so bit 0 is free to say "mapped" explicitly; a zero entry is
// absent whatever PA RAM starts at.
const sharedValid = 1

// sharedEntry shadows one level-0 PTE of the shared subtable: pa is 0 or
// PA|sharedValid, and host is nil or the live host bytes of that RAM
// page, published by the device view's first copy through the page.
type sharedEntry struct {
	pa   atomic.Uint64
	host atomic.Pointer[[isa.PageSize]byte]
}

// sharedLeaf shadows one level-0 table of the shared subtable: one entry
// per 4 KiB page of a 2 MiB slot.
type sharedLeaf [512]sharedEntry

// sharedWindow is the device model's lock-free shadow of a CVM's shared
// subtable, with the subtable's own geometry: a directory with one
// entry per 2 MiB level-1 slot of the window, each nil or a published
// sharedLeaf.
//
// Writers (MapShared) are serialized by VM.statMu; readers (SharedPA,
// GuestMem) take no lock. That is sound because the shadow is
// insert-only: nothing unmaps a shared page, and MapShared is idempotent,
// so an entry, once valid, never changes. A writer fills a new leaf
// before it publishes it in the directory, so a reader that sees the
// leaf sees its first entry too; a reader racing a new entry sees either
// absent (and falls back to MapShared, which returns the same PA) or the
// final value. The host bytes follow the same rule: RAM never frees or
// moves a page, so the bytes cached for a PA stay that PA's bytes, and
// racing first copies publish the same page (a CAS keeps the first).
type sharedWindow struct {
	dir [512]atomic.Pointer[sharedLeaf]
}

// entry returns the shadow entry for a window offset the caller has
// already bounds-checked (off < sharedWindowSize), or nil when its 2 MiB
// slot has no leaf. A nil window (no shared subtable registered) has no
// entries.
func (w *sharedWindow) entry(off uint64) *sharedEntry {
	if w == nil {
		return nil
	}
	leaf := w.dir[off>>21].Load()
	if leaf == nil {
		return nil
	}
	return &leaf[off>>isa.PageShift&0x1FF]
}

// lookup resolves a bounds-checked window offset to the backing PA, page
// offset included.
func (w *sharedWindow) lookup(off uint64) (uint64, bool) {
	e := w.entry(off)
	if e == nil {
		return 0, false
	}
	pa := e.pa.Load()
	if pa&sharedValid == 0 {
		return 0, false
	}
	return pa&^sharedValid | off&(isa.PageSize-1), true
}

// store records page-aligned pa for the page at window offset off. The
// caller holds VM.statMu and has checked that the page is absent.
func (w *sharedWindow) store(off, pa uint64) {
	slot := &w.dir[off>>21]
	leaf := slot.Load()
	if leaf == nil {
		leaf = new(sharedLeaf)
		leaf[off>>isa.PageShift&0x1FF].pa.Store(pa | sharedValid)
		slot.Store(leaf)
		return
	}
	leaf[off>>isa.PageShift&0x1FF].pa.Store(pa | sharedValid)
}

// SharedPA resolves a shared-window GPA to the backing normal frame. It
// checks the window bounds and does two atomic loads: no lock, no
// allocation.
func (vm *VM) SharedPA(gpa uint64) (uint64, bool) {
	off := gpa - sm.SharedBase
	if off >= sharedWindowSize {
		return 0, false
	}
	return vm.shared.lookup(off)
}
