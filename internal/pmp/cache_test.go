package pmp

import (
	"math/rand"
	"testing"
)

// decodedCheck is check as it stood before the range cache: every entry's
// range decoded from cfg and addr on every call. It is the reference the
// cached check must agree with.
func (u *Unit) decodedCheck(addr, n uint64, acc AccessType, machineMode bool) bool {
	if n == 0 {
		n = 1
	}
	for i := 0; i < NumEntries; i++ {
		lo, hi, ok := u.entryRange(i)
		if !ok {
			continue
		}
		end := addr + n
		if !(addr < hi && end > lo) {
			continue
		}
		if !(addr >= lo && end <= hi) {
			return false
		}
		if machineMode && u.cfg[i]&Locked == 0 {
			return true
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

// randomCfg draws a cfg byte: any mode and permissions, locked one time
// in eight.
func randomCfg(r *rand.Rand) uint8 {
	c := uint8(r.Intn(4))<<aShift | uint8(r.Intn(8))
	if r.Intn(8) == 0 {
		c |= Locked
	}
	return c
}

// randomAddr draws a pmpaddr value: small addresses that make TOR
// neighbours overlap and nest, NAPOT encodings of every size, and the
// all-ones and full-width edge cases.
func randomAddr(r *rand.Rand) uint64 {
	switch r.Intn(5) {
	case 0:
		return uint64(r.Intn(64)) << 8
	case 1:
		ones := uint(r.Intn(40))
		return (r.Uint64()>>20)<<(ones+1) | (1<<ones - 1)
	case 2:
		return ^uint64(0)
	case 3:
		return r.Uint64()
	}
	return uint64(0x8000_0000+r.Intn(1<<20)) >> 2
}

// checkStream is a fixed access stream: every width and access kind at
// addresses around the ones randomAddr produces.
func checkStream(r *rand.Rand, n int) [][4]uint64 {
	out := make([][4]uint64, n)
	for i := range out {
		var a uint64
		switch r.Intn(3) {
		case 0:
			a = uint64(r.Intn(64<<10)) &^ 3
		case 1:
			a = 0x8000_0000 + uint64(r.Intn(4<<20))
		default:
			a = r.Uint64()
		}
		out[i] = [4]uint64{a, []uint64{0, 1, 4, 8, 4096}[r.Intn(5)], uint64(r.Intn(3)), uint64(r.Intn(2))}
	}
	return out
}

// TestRangeCacheMatchesEntryRange drives seeded SetCfg, SetAddr,
// WriteCfgCSR and Restore sequences, with locked entries and TOR
// neighbours, and after every operation requires each entry's cached
// range to equal entryRange (off: [0, 0)) and Check to give the verdicts
// and Stats of the decoding reference over a fixed access stream.
func TestRangeCacheMatchesEntryRange(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		stream := checkStream(r, 64)
		u := New()
		var saved Snapshot
		for op := 0; op < 300; op++ {
			i := r.Intn(NumEntries)
			switch k := r.Intn(10); {
			case k < 4:
				u.SetCfg(i, randomCfg(r))
			case k < 8:
				u.SetAddr(i, randomAddr(r))
			case k == 8:
				var v uint64
				for b := 0; b < 8; b++ {
					v |= uint64(randomCfg(r)) << (8 * b)
				}
				u.WriteCfgCSR(2*r.Intn(2), v)
			default:
				if r.Intn(2) == 0 {
					saved = u.Save()
				} else {
					u.Restore(saved)
				}
			}
			for e := 0; e < NumEntries; e++ {
				lo, hi, ok := u.entryRange(e)
				if !ok {
					lo, hi = 0, 0
				}
				if u.lo[e] != lo || u.hi[e] != hi {
					t.Fatalf("seed %d op %d: entry %d (cfg %#x addr %#x) caches [%#x, %#x), entryRange [%#x, %#x)",
						seed, op, e, u.cfg[e], u.addr[e], u.lo[e], u.hi[e], lo, hi)
				}
			}
			ref := *u
			for _, c := range stream {
				acc, m := AccessType(c[2]), c[3] == 1
				want := ref.decodedCheck(c[0], c[1], acc, m)
				ref.stats.Checks++
				if !want {
					ref.stats.Denied++
				}
				if got := u.Check(c[0], c[1], acc, m); got != want {
					t.Fatalf("seed %d op %d: Check(%#x, %d, %v, %v) = %v, reference %v",
						seed, op, c[0], c[1], acc, m, got, want)
				}
			}
			if u.Stats() != ref.Stats() {
				t.Fatalf("seed %d op %d: Stats %+v, reference %+v", seed, op, u.Stats(), ref.Stats())
			}
		}
	}
}
