package pmp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeNAPOT(t *testing.T) {
	cases := []struct{ base, size uint64 }{
		{0x8000_0000, 8},
		{0x8000_0000, 4096},
		{0x8010_0000, 1 << 20},
		{0, 1 << 30},
	}
	for _, c := range cases {
		raw, err := EncodeNAPOT(c.base, c.size)
		if err != nil {
			t.Fatalf("EncodeNAPOT(%#x, %#x): %v", c.base, c.size, err)
		}
		b, s := DecodeNAPOT(raw)
		if b != c.base || s != c.size {
			t.Errorf("round trip (%#x,%#x) -> (%#x,%#x)", c.base, c.size, b, s)
		}
	}
}

func TestEncodeNAPOTErrors(t *testing.T) {
	if _, err := EncodeNAPOT(0x8000_0000, 24); err == nil {
		t.Error("non-power-of-two size should fail")
	}
	if _, err := EncodeNAPOT(0x8000_0000, 4); err == nil {
		t.Error("size < 8 should fail")
	}
	if _, err := EncodeNAPOT(0x8000_1000, 1<<20); err == nil {
		t.Error("unaligned base should fail")
	}
}

// Property: NAPOT round-trips for all power-of-two sizes and aligned bases.
func TestNAPOTProperty(t *testing.T) {
	f := func(baseSeed uint32, sizeLog uint8) bool {
		log := 3 + uint(sizeLog)%28 // 8 bytes .. 1 GiB
		size := uint64(1) << log
		base := (uint64(baseSeed) << 12) &^ (size - 1)
		raw, err := EncodeNAPOT(base, size)
		if err != nil {
			return false
		}
		b, s := DecodeNAPOT(raw)
		return b == base && s == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNoMatchRules(t *testing.T) {
	u := New()
	// M-mode: no match allows; S/U: no match denies.
	if !u.Check(0x8000_0000, 8, AccessRead, true) {
		t.Error("M-mode access with no entries should succeed")
	}
	if u.Check(0x8000_0000, 8, AccessRead, false) {
		t.Error("S/U access with no entries should fail")
	}
}

func setNAPOT(t *testing.T, u *Unit, i int, base, size uint64, perm uint8) {
	t.Helper()
	raw, err := EncodeNAPOT(base, size)
	if err != nil {
		t.Fatal(err)
	}
	u.SetAddr(i, raw)
	u.SetCfg(i, perm|ANAPOT<<aShift)
}

func TestNAPOTPermissions(t *testing.T) {
	u := New()
	setNAPOT(t, u, 0, 0x8010_0000, 1<<20, PermR|PermW)
	if !u.Check(0x8010_0000, 8, AccessRead, false) {
		t.Error("read inside R|W region should succeed")
	}
	if !u.Check(0x8010_FFF8, 8, AccessWrite, false) {
		t.Error("write inside R|W region should succeed")
	}
	if u.Check(0x8010_0000, 4, AccessExec, false) {
		t.Error("exec in R|W region should fail")
	}
	if u.Check(0x8020_0000, 8, AccessRead, false) {
		t.Error("access outside region should fail (no match)")
	}
}

func TestTORMatching(t *testing.T) {
	u := New()
	// Entry 0: TOR with implicit base 0, top 0x8000_0000: R only.
	u.SetAddr(0, 0x8000_0000>>2)
	u.SetCfg(0, PermR|ATOR<<aShift)
	// Entry 1: TOR [0x8000_0000, 0x9000_0000): RWX.
	u.SetAddr(1, 0x9000_0000>>2)
	u.SetCfg(1, PermR|PermW|PermX|ATOR<<aShift)

	if !u.Check(0x1000, 8, AccessRead, false) {
		t.Error("read in low TOR region should succeed")
	}
	if u.Check(0x1000, 8, AccessWrite, false) {
		t.Error("write in read-only TOR region should fail")
	}
	if !u.Check(0x8800_0000, 8, AccessExec, false) {
		t.Error("exec in RWX TOR region should succeed")
	}
	if u.Check(0x9000_0000, 8, AccessRead, false) {
		t.Error("access above top TOR region should fail")
	}
}

func TestTOREmptyRange(t *testing.T) {
	u := New()
	u.SetAddr(0, 0x8000_0000>>2)
	u.SetCfg(0, PermR|ATOR<<aShift)
	u.SetAddr(1, 0x7000_0000>>2) // top below previous top: empty
	u.SetCfg(1, PermR|PermW|ATOR<<aShift)
	if u.Check(0x8800_0000, 8, AccessRead, false) {
		t.Error("empty TOR range must not match anything")
	}
}

func TestNA4(t *testing.T) {
	u := New()
	u.SetAddr(0, 0x8000_0100>>2)
	u.SetCfg(0, PermR|ANA4<<aShift)
	if !u.Check(0x8000_0100, 4, AccessRead, false) {
		t.Error("NA4 read should succeed")
	}
	if u.Check(0x8000_0104, 4, AccessRead, false) {
		t.Error("address past NA4 window should not match")
	}
	if u.Check(0x8000_0102, 4, AccessRead, false) {
		t.Error("partial overlap of NA4 window should fail")
	}
}

func TestEntryPriority(t *testing.T) {
	u := New()
	// Lower-numbered entry denies; higher-numbered allows the same range.
	setNAPOT(t, u, 0, 0x8010_0000, 4096, 0) // no permissions
	setNAPOT(t, u, 1, 0x8010_0000, 4096, PermR|PermW|PermX)
	if u.Check(0x8010_0000, 8, AccessRead, false) {
		t.Error("lower-numbered entry must take priority")
	}
}

func TestPartialMatchFails(t *testing.T) {
	u := New()
	setNAPOT(t, u, 0, 0x8010_0000, 4096, PermR|PermW)
	// 8-byte access straddling the region top.
	if u.Check(0x8010_0FFC, 8, AccessRead, false) {
		t.Error("access straddling region boundary must fail")
	}
	if u.Check(0x8010_0FFC, 8, AccessRead, true) {
		t.Error("straddling access must fail even in M-mode")
	}
}

func TestMachineModeAndLock(t *testing.T) {
	u := New()
	setNAPOT(t, u, 0, 0x8010_0000, 4096, PermR) // unlocked
	if !u.Check(0x8010_0000, 8, AccessWrite, true) {
		t.Error("unlocked entry must not constrain M-mode")
	}
	// Lock the entry read-only: now M-mode writes fail too.
	u.SetCfg(0, PermR|ANAPOT<<aShift|Locked)
	if u.Check(0x8010_0000, 8, AccessWrite, true) {
		t.Error("locked entry must constrain M-mode")
	}
	// Locked entries ignore further writes.
	u.SetCfg(0, PermR|PermW|ANAPOT<<aShift)
	if u.Cfg(0)&PermW != 0 {
		t.Error("write to locked cfg should be ignored")
	}
	u.SetAddr(0, 0)
	if u.Addr(0) == 0 {
		t.Error("write to locked addr should be ignored")
	}
}

func TestLockedTORBaseProtection(t *testing.T) {
	u := New()
	u.SetAddr(0, 0x8000_0000>>2)
	u.SetAddr(1, 0x9000_0000>>2)
	u.SetCfg(1, PermR|ATOR<<aShift|Locked)
	// pmpaddr0 is the base of locked TOR entry 1: writes must be ignored.
	u.SetAddr(0, 0)
	if u.Addr(0) != 0x8000_0000>>2 {
		t.Error("pmpaddr below locked TOR entry must be write-protected")
	}
}

func TestCfgCSRPacking(t *testing.T) {
	u := New()
	for i := 0; i < NumEntries; i++ {
		u.SetCfg(i, uint8(i)|ANAPOT<<aShift)
	}
	v0, v2 := u.ReadCfgCSR(0), u.ReadCfgCSR(2)
	u2 := New()
	u2.WriteCfgCSR(0, v0)
	u2.WriteCfgCSR(2, v2)
	for i := 0; i < NumEntries; i++ {
		if u2.Cfg(i) != u.Cfg(i) {
			t.Errorf("entry %d: cfg %#x != %#x after CSR round trip", i, u2.Cfg(i), u.Cfg(i))
		}
	}
}

func TestSaveRestore(t *testing.T) {
	u := New()
	setNAPOT(t, u, 3, 0x8010_0000, 1<<20, PermR|PermW)
	snap := u.Save()
	u.SetCfg(3, 0)
	if u.Check(0x8010_0000, 8, AccessRead, false) {
		t.Error("entry should be off after clear")
	}
	u.Restore(snap)
	if !u.Check(0x8010_0000, 8, AccessRead, false) {
		t.Error("restore should re-enable the entry")
	}
	if got := u.ActiveEntries(); len(got) != 1 || got[0] != 3 {
		t.Errorf("ActiveEntries = %v, want [3]", got)
	}
}

func TestZeroLengthAccess(t *testing.T) {
	u := New()
	setNAPOT(t, u, 0, 0x8010_0000, 4096, PermR)
	if !u.Check(0x8010_0000, 0, AccessRead, false) {
		t.Error("zero-length access should be treated as 1 byte")
	}
}

func TestAccessTypeString(t *testing.T) {
	if AccessRead.String() != "read" || AccessWrite.String() != "write" ||
		AccessExec.String() != "exec" || AccessType(9).String() != "?" {
		t.Error("AccessType.String mismatch")
	}
}

// decodeNAPOTLoop is the trailing-ones bit loop DecodeNAPOT used before it
// switched to bits.TrailingZeros64; the table test below pins the two
// together.
func decodeNAPOTLoop(raw uint64) (base, size uint64) {
	ones := uint(0)
	for raw>>ones&1 == 1 {
		ones++
	}
	size = uint64(8) << ones
	base = (raw &^ ((1 << ones) - 1)) << 2
	return base, size
}

func TestDecodeNAPOTMatchesBitLoop(t *testing.T) {
	raws := []uint64{0, ^uint64(0)}
	for k := uint(0); k < 64; k++ {
		ones := uint64(1)<<k - 1
		raws = append(raws, ones, ones|1<<k<<1, ^ones)
	}
	rng := rand.New(rand.NewSource(0x4A907))
	for i := 0; i < 2000; i++ {
		// Random values, and random values with a random run of low ones.
		raws = append(raws, rng.Uint64(), rng.Uint64()|(uint64(1)<<uint(rng.Intn(64))-1))
	}
	for _, raw := range raws {
		b, s := DecodeNAPOT(raw)
		wb, ws := decodeNAPOTLoop(raw)
		if b != wb || s != ws {
			t.Fatalf("DecodeNAPOT(%#x) = (%#x, %#x), bit loop gives (%#x, %#x)", raw, b, s, wb, ws)
		}
	}
}

// NoteChecks(n) leaves the statistics n allowed Check calls leave.
func TestNoteChecksMatchesRepeatedNoteCheck(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 7, 1000} {
		batched, single := New(), New()
		setNAPOT(t, batched, 0, 0x8000_0000, 1<<20, PermR)
		setNAPOT(t, single, 0, 0x8000_0000, 1<<20, PermR)
		batched.Check(0x1000, 8, AccessRead, false) // one denial in both
		single.Check(0x1000, 8, AccessRead, false)
		batched.NoteChecks(n)
		for j := uint64(0); j < n; j++ {
			if !single.Check(0x8000_0000+8*j%(1<<20), 8, AccessRead, false) {
				t.Fatalf("n=%d: access %d denied", n, j)
			}
		}
		if batched.Stats() != single.Stats() {
			t.Errorf("n=%d: NoteChecks stats %+v, allowed Check x n %+v", n, batched.Stats(), single.Stats())
		}
	}
}
