package sm

import (
	"slices"

	"zion/internal/isa"
)

// gpaLeaf records one 2 MiB span of private GPAs: PA+1 per 4 KiB page,
// 0 for an unmapped page (PA 0 stays representable).
type gpaLeaf [512]uint64

// gpaMap is a CVM's record of the private GPA -> PA leaves the SM
// installed, in the stage-2 table's own geometry: 512-entry leaves, one
// per 2 MiB span, found through a small index keyed by gpa>>21 and kept
// in ascending order. It behaves as a map keyed by page-aligned GPA:
// set, delete, lookup, a count, and iteration in ascending GPA order
// (next). A demand fault into a warm span is a binary search over a few
// keys and one store, where a map paid for growth and rehashing.
type gpaMap struct {
	keys   []uint64 // gpa>>21 of each leaf, ascending
	leaves []*gpaLeaf
	n      int
}

// leafAt returns the leaf holding gpa and its position in keys; with
// ok=false, i is where a leaf for gpa would be inserted.
func (m *gpaMap) leafAt(gpa uint64) (i int, ok bool) {
	return slices.BinarySearch(m.keys, gpa>>21)
}

// gpaSlot returns gpa's page index within its leaf.
func gpaSlot(gpa uint64) uint64 { return gpa >> isa.PageShift & 0x1FF }

// set records gpa -> pa, replacing any earlier PA for gpa.
func (m *gpaMap) set(gpa, pa uint64) {
	i, ok := m.leafAt(gpa)
	if !ok {
		m.keys = slices.Insert(m.keys, i, gpa>>21)
		m.leaves = slices.Insert(m.leaves, i, new(gpaLeaf))
	}
	e := &m.leaves[i][gpaSlot(gpa)]
	if *e == 0 {
		m.n++
	}
	*e = pa + 1
}

// delete forgets gpa; an unrecorded GPA is ignored. An emptied leaf
// stays in the index: relinquished pages are rare and a later fault in
// the span reuses it.
func (m *gpaMap) delete(gpa uint64) {
	i, ok := m.leafAt(gpa)
	if !ok {
		return
	}
	if e := &m.leaves[i][gpaSlot(gpa)]; *e != 0 {
		*e = 0
		m.n--
	}
}

// len returns the number of recorded GPAs.
func (m *gpaMap) len() int { return m.n }

// next returns the lowest recorded GPA at or above gpa (page-aligned)
// and its PA, so
//
//	for gpa, pa, ok := m.next(0); ok; gpa, pa, ok = m.next(gpa + isa.PageSize)
//
// visits every record in ascending GPA order.
func (m *gpaMap) next(gpa uint64) (uint64, uint64, bool) {
	i, _ := m.leafAt(gpa)
	for ; i < len(m.keys); i++ {
		j := uint64(0)
		if m.keys[i] == gpa>>21 {
			j = gpaSlot(gpa)
		}
		for leaf := m.leaves[i]; j < uint64(len(leaf)); j++ {
			if e := leaf[j]; e != 0 {
				return m.keys[i]<<21 | j<<isa.PageShift, e - 1, true
			}
		}
	}
	return 0, 0, false
}
