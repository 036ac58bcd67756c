package sm

import (
	"math/bits"

	"zion/internal/isa"
)

// frameSet is a set of 4 KiB physical frames: one bit per frame, one
// uint64 per 64 frames, over the span of words its members need, with a
// member count. It is a CVM's ownership record, kept apart from the
// pool's block bitmaps so the auditor can compare the two.
type frameSet struct {
	base  uint64   // word index (frame number / 64) of words[0]
	words []uint64 // words[i] bit b: frame (base+i)*64 + b is a member
	n     int
}

// frameWord returns the word index and bit of the frame holding pa.
func frameWord(pa uint64) (uint64, uint) {
	f := pa >> isa.PageShift
	return f / 64, uint(f % 64)
}

// has reports whether the frame holding pa is a member.
func (s *frameSet) has(pa uint64) bool {
	w, b := frameWord(pa)
	if w < s.base || w-s.base >= uint64(len(s.words)) {
		return false
	}
	return s.words[w-s.base]&(1<<b) != 0
}

// add makes the frame holding pa a member, growing the span to cover it.
func (s *frameSet) add(pa uint64) {
	w, b := frameWord(pa)
	switch {
	case len(s.words) == 0:
		s.base = w
		s.words = append(s.words[:0], 0)
	case w < s.base:
		grown := make([]uint64, s.base-w+uint64(len(s.words)), s.base-w+uint64(cap(s.words)))
		copy(grown[s.base-w:], s.words)
		s.base, s.words = w, grown
	}
	if need := int(w-s.base) + 1 - len(s.words); need > 0 {
		s.words = append(s.words, make([]uint64, need)...)
	}
	if p := &s.words[w-s.base]; *p&(1<<b) == 0 {
		*p |= 1 << b
		s.n++
	}
}

// word returns the 64 membership bits of the frames from pa, which must
// be aligned to 64 frames: bit i is the frame at pa + i*PageSize.
func (s *frameSet) word(pa uint64) uint64 {
	w, _ := frameWord(pa)
	if w < s.base || w-s.base >= uint64(len(s.words)) {
		return 0
	}
	return s.words[w-s.base]
}

// remove drops the frame holding pa; a non-member is ignored.
func (s *frameSet) remove(pa uint64) {
	if !s.has(pa) {
		return
	}
	w, b := frameWord(pa)
	s.words[w-s.base] &^= 1 << b
	s.n--
}

// len returns the number of member frames.
func (s *frameSet) len() int { return s.n }

// next returns the lowest member frame at or above pa (a page-aligned
// physical address), so
//
//	for pa, ok := s.next(0); ok; pa, ok = s.next(pa + isa.PageSize)
//
// visits every member in ascending order.
func (s *frameSet) next(pa uint64) (uint64, bool) {
	w, b := frameWord(pa)
	if w < s.base {
		w, b = s.base, 0
	}
	for i := w - s.base; i < uint64(len(s.words)); i, b = i+1, 0 {
		if rest := s.words[i] >> b << b; rest != 0 {
			return ((s.base+i)*64 + uint64(bits.TrailingZeros64(rest))) << isa.PageShift, true
		}
	}
	return 0, false
}
