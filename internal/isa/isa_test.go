package isa

import (
	"testing"
	"testing/quick"
)

func TestPrivModeBase(t *testing.T) {
	cases := []struct {
		mode PrivMode
		base uint64
		virt bool
	}{
		{ModeU, 0, false},
		{ModeS, 1, false},
		{ModeM, 3, false},
		{ModeVS, 1, true},
		{ModeVU, 0, true},
	}
	for _, c := range cases {
		if got := c.mode.Base(); got != c.base {
			t.Errorf("%v.Base() = %d, want %d", c.mode, got, c.base)
		}
		if got := c.mode.Virtualized(); got != c.virt {
			t.Errorf("%v.Virtualized() = %v, want %v", c.mode, got, c.virt)
		}
	}
}

func TestPrivModeString(t *testing.T) {
	want := map[PrivMode]string{ModeU: "U", ModeS: "HS", ModeM: "M", ModeVS: "VS", ModeVU: "VU"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("String(%d) = %q, want %q", m, m.String(), s)
		}
	}
	if PrivMode(7).String() != "?" {
		t.Errorf("invalid mode should stringify to ?")
	}
}

// Every defined cause renders to a fixed string, checked against a
// literal so the table can move without the names drifting, and no
// lookup allocates: the flight recorder names every trap.
func TestCauseName(t *testing.T) {
	cases := []struct {
		cause uint64
		want  string
	}{
		{ExcInstAddrMisaligned, "instruction-address-misaligned"},
		{ExcInstAccessFault, "instruction-access-fault"},
		{ExcIllegalInst, "illegal-instruction"},
		{ExcBreakpoint, "breakpoint"},
		{ExcLoadAddrMisaligned, "load-address-misaligned"},
		{ExcLoadAccessFault, "load-access-fault"},
		{ExcStoreAddrMisaligned, "store-address-misaligned"},
		{ExcStoreAccessFault, "store-access-fault"},
		{ExcEcallU, "ecall-from-u"},
		{ExcEcallS, "ecall-from-hs"},
		{ExcEcallVS, "ecall-from-vs"},
		{ExcEcallM, "ecall-from-m"},
		{ExcInstPageFault, "instruction-page-fault"},
		{ExcLoadPageFault, "load-page-fault"},
		{ExcStorePageFault, "store-page-fault"},
		{ExcInstGuestPageFault, "instruction-guest-page-fault"},
		{ExcLoadGuestPageFault, "load-guest-page-fault"},
		{ExcVirtualInst, "virtual-instruction"},
		{ExcStoreGuestPageFault, "store-guest-page-fault"},
		{99, "unknown-exception"},
		{CauseInterruptBit | IntSSoft, "supervisor-software-interrupt"},
		{CauseInterruptBit | IntVSSoft, "vs-software-interrupt"},
		{CauseInterruptBit | IntMSoft, "machine-software-interrupt"},
		{CauseInterruptBit | IntSTimer, "supervisor-timer-interrupt"},
		{CauseInterruptBit | IntVSTimer, "vs-timer-interrupt"},
		{CauseInterruptBit | IntMTimer, "machine-timer-interrupt"},
		{CauseInterruptBit | IntSExt, "supervisor-external-interrupt"},
		{CauseInterruptBit | IntVSExt, "vs-external-interrupt"},
		{CauseInterruptBit | IntMExt, "machine-external-interrupt"},
		{CauseInterruptBit | IntSGuestEx, "supervisor-guest-external-interrupt"},
		{CauseInterruptBit | 42, "unknown-interrupt"},
	}
	var sink string
	for _, c := range cases {
		if got := CauseName(c.cause); got != c.want {
			t.Errorf("CauseName(%#x) = %q, want %q", c.cause, got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { sink = CauseName(c.cause) }); n != 0 {
			t.Errorf("CauseName(%#x) allocates %v objects, want 0", c.cause, n)
		}
	}
	_ = sink
}

// knownWord is one hand-assembled instruction word cross-checked against
// the spec. Only the fields each format actually uses are compared; the
// decoder extracts every register bit-field unconditionally.
type knownWord struct {
	raw  uint32
	op   Op
	rd   uint8
	rs1  uint8
	rs2  uint8
	imm  int64
	csr  uint16
	mask string // which fields to compare: subset of "d1 2ic"
}

var knownWords = []knownWord{
	{raw: 0xFFD10093, op: OpADDI, rd: 1, rs1: 2, imm: -3, mask: "d1i"},
	{raw: 0x123452B7, op: OpLUI, rd: 5, imm: 0x12345000, mask: "di"},
	{raw: 0x0105B503, op: OpLD, rd: 10, rs1: 11, imm: 16, mask: "d1i"},
	{raw: 0xFEC6BC23, op: OpSD, rs1: 13, rs2: 12, imm: -8, mask: "12i"},
	{raw: 0x00208463, op: OpBEQ, rs1: 1, rs2: 2, imm: 8, mask: "12i"},
	{raw: 0x001000EF, op: OpJAL, rd: 1, imm: 2048, mask: "di"},
	{raw: 0x00008067, op: OpJALR, rd: 0, rs1: 1, imm: 0, mask: "d1i"},
	{raw: 0x025201B3, op: OpMUL, rd: 3, rs1: 4, rs2: 5, mask: "d12"},
	{raw: 0x18039073, op: OpCSRRW, rs1: 7, csr: CSRSatp, mask: "1c"},
	{raw: 0x00000073, op: OpECALL},
	{raw: 0x10200073, op: OpSRET},
	{raw: 0x30200073, op: OpMRET},
	{raw: 0x10500073, op: OpWFI},
	{raw: 0x43F0D093, op: OpSRAI, rd: 1, rs1: 1, imm: 63, mask: "d1i"},
	{raw: 0x0041813B, op: OpADDW, rd: 2, rs1: 3, rs2: 4, mask: "d12"},
	{raw: 0x0063B2AF, op: OpAMOADDD, rd: 5, rs1: 7, rs2: 6, mask: "d12"},
	{raw: 0x1004A42F, op: OpLRW, rd: 8, rs1: 9, mask: "d1"},
}

func TestDecodeKnownWords(t *testing.T) {
	has := func(mask string, c byte) bool {
		for i := 0; i < len(mask); i++ {
			if mask[i] == c {
				return true
			}
		}
		return false
	}
	for _, c := range knownWords {
		got := Decode(c.raw)
		if got.Op != c.op {
			t.Errorf("Decode(%#08x).Op = %v, want %v", c.raw, got.Op, c.op)
			continue
		}
		if has(c.mask, 'd') && got.Rd != c.rd {
			t.Errorf("Decode(%#08x).Rd = %d, want %d", c.raw, got.Rd, c.rd)
		}
		if has(c.mask, '1') && got.Rs1 != c.rs1 {
			t.Errorf("Decode(%#08x).Rs1 = %d, want %d", c.raw, got.Rs1, c.rs1)
		}
		if has(c.mask, '2') && got.Rs2 != c.rs2 {
			t.Errorf("Decode(%#08x).Rs2 = %d, want %d", c.raw, got.Rs2, c.rs2)
		}
		if has(c.mask, 'i') && got.Imm != c.imm {
			t.Errorf("Decode(%#08x).Imm = %d, want %d", c.raw, got.Imm, c.imm)
		}
		if has(c.mask, 'c') && got.CSR != c.csr {
			t.Errorf("Decode(%#08x).CSR = %#x, want %#x", c.raw, got.CSR, c.csr)
		}
	}
}

func TestDecodeInvalid(t *testing.T) {
	for _, raw := range []uint32{0x00000000, 0xFFFFFFFF, 0x0000007F} {
		if in := Decode(raw); in.Op != OpInvalid {
			t.Errorf("Decode(%#08x).Op = %v, want OpInvalid", raw, in.Op)
		}
	}
}

// FuzzDecode is the decoder round trip. Decode must not panic on any word,
// and every word that decodes to a valid op must survive re-encoding: the
// decoded fields, put back through the Encode* helper of the op's format,
// decode to the same Op, Rd, Rs1, Rs2, Imm and CSR. Raw is not compared:
// bits the decoder ignores (AMO aq/rl, FENCE fm/pred) need not survive.
// The seeds are the hand-checked words of TestDecodeKnownWords.
func FuzzDecode(f *testing.F) {
	for _, c := range knownWords {
		f.Add(c.raw)
	}
	f.Fuzz(func(t *testing.T, raw uint32) {
		in := Decode(raw)
		if in.Op == OpInvalid {
			return
		}
		out := Decode(reencode(raw, in))
		out.Raw = in.Raw
		if out != in {
			t.Fatalf("Decode(%#08x) = %+v, re-encoded it decodes to %+v", raw, in, out)
		}
	})
}

// reencode rebuilds an instruction word from the decoded fields in through
// the Encode* helper of its format. Only the bits that select the op
// (opcode, funct3, funct7/funct5) come from raw; every operand comes from
// in.
func reencode(raw uint32, in Inst) uint32 {
	opcode, funct3, funct7 := raw&0x7F, raw>>12&7, raw>>25
	switch opcode {
	case 0x37, 0x17: // LUI, AUIPC
		return EncodeU(opcode, in.Rd, in.Imm)
	case 0x6F: // JAL
		return EncodeJ(opcode, in.Rd, in.Imm)
	case 0x63: // branches
		return EncodeB(opcode, funct3, in.Rs1, in.Rs2, in.Imm)
	case 0x23: // stores
		return EncodeS(opcode, funct3, in.Rs1, in.Rs2, in.Imm)
	case 0x33, 0x3B: // OP, OP-32
		return EncodeR(opcode, funct3, funct7, in.Rd, in.Rs1, in.Rs2)
	case 0x2F: // AMO
		return EncodeAMO(funct7>>2, funct3, in.Rd, in.Rs1, in.Rs2)
	case 0x0F: // FENCE: no decoded immediate; Rs2 carries bits 20-24
		return EncodeI(opcode, funct3, in.Rd, in.Rs1, int64(in.Rs2))
	case 0x73: // SYSTEM
		switch in.Op {
		case OpCSRRW, OpCSRRS, OpCSRRC:
			return EncodeCSR(funct3, in.Rd, in.Rs1, in.CSR)
		case OpCSRRWI, OpCSRRSI, OpCSRRCI:
			return EncodeCSR(funct3, in.Rd, uint8(in.Imm), in.CSR)
		}
		return EncodeR(opcode, funct3, funct7, in.Rd, in.Rs1, in.Rs2)
	case 0x13: // OP-IMM: RV64 SRAI puts funct6 0x10 above a 6-bit shamt
		if in.Op == OpSRAI {
			return EncodeI(opcode, funct3, in.Rd, in.Rs1, 0x10<<6|in.Imm)
		}
		return EncodeI(opcode, funct3, in.Rd, in.Rs1, in.Imm)
	case 0x1B: // OP-IMM-32: word shifts are R-type with shamt in rs2
		if in.Op == OpADDIW {
			return EncodeI(opcode, funct3, in.Rd, in.Rs1, in.Imm)
		}
		return EncodeR(opcode, funct3, funct7, in.Rd, in.Rs1, uint8(in.Imm))
	default: // loads, JALR
		return EncodeI(opcode, funct3, in.Rd, in.Rs1, in.Imm)
	}
}

// Property: encoding then decoding an I-type ALU instruction round-trips.
func TestEncodeDecodeIRoundTrip(t *testing.T) {
	f := func(rd, rs1 uint8, imm int16) bool {
		rd, rs1 = rd&31, rs1&31
		v := int64(imm % 2048)
		raw := EncodeI(0x13, 0, rd, rs1, v)
		in := Decode(raw)
		return in.Op == OpADDI && in.Rd == rd && in.Rs1 == rs1 && in.Imm == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: B-type immediates round-trip for all even offsets in range.
func TestEncodeDecodeBRoundTrip(t *testing.T) {
	f := func(rs1, rs2 uint8, imm int16) bool {
		rs1, rs2 = rs1&31, rs2&31
		v := int64(imm) &^ 1
		if v < -4096 || v > 4094 {
			v %= 4096
			v &^= 1
		}
		raw := EncodeB(0x63, 1, rs1, rs2, v)
		in := Decode(raw)
		return in.Op == OpBNE && in.Rs1 == rs1 && in.Rs2 == rs2 && in.Imm == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: J-type immediates round-trip.
func TestEncodeDecodeJRoundTrip(t *testing.T) {
	f := func(rd uint8, imm int32) bool {
		rd &= 31
		v := int64(imm%(1<<20)) &^ 1
		raw := EncodeJ(0x6F, rd, v)
		in := Decode(raw)
		return in.Op == OpJAL && in.Rd == rd && in.Imm == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: S-type immediates round-trip.
func TestEncodeDecodeSRoundTrip(t *testing.T) {
	f := func(rs1, rs2 uint8, imm int16) bool {
		rs1, rs2 = rs1&31, rs2&31
		v := int64(imm % 2048)
		raw := EncodeS(0x23, 3, rs1, rs2, v)
		in := Decode(raw)
		return in.Op == OpSD && in.Rs1 == rs1 && in.Rs2 == rs2 && in.Imm == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodePanicsOnBadOperands(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("reg", func() { EncodeR(0x33, 0, 0, 32, 0, 0) })
	mustPanic("iimm", func() { EncodeI(0x13, 0, 1, 1, 4096) })
	mustPanic("bodd", func() { EncodeB(0x63, 0, 1, 1, 3) })
	mustPanic("jrange", func() { EncodeJ(0x6F, 1, 1<<21) })
	mustPanic("simm", func() { EncodeS(0x23, 0, 1, 1, -3000) })
}

func TestMemAccessors(t *testing.T) {
	ld := Decode(0x0105B503) // ld x10,16(x11)
	if !ld.IsLoad() || ld.IsStore() || ld.MemBytes() != 8 {
		t.Errorf("ld accessors wrong: %+v", ld)
	}
	sw := Decode(EncodeS(0x23, 2, 1, 2, 0)) // sw
	if sw.IsLoad() || !sw.IsStore() || sw.MemBytes() != 4 {
		t.Errorf("sw accessors wrong: %+v", sw)
	}
	amo := Decode(0x0063B2AF) // amoadd.d
	if !amo.IsAMO() || !amo.IsStore() || amo.MemBytes() != 8 {
		t.Errorf("amo accessors wrong: %+v", amo)
	}
}

func TestTransformedInstRoundTrip(t *testing.T) {
	// A store that would MMIO-fault: sd x12, -8(x13).
	orig := Decode(0xFEC6BC23)
	ht := TransformedInst(orig)
	if ht == 0 {
		t.Fatal("TransformedInst returned 0 for a store")
	}
	got, ok := DecodeTransformed(ht)
	if !ok {
		t.Fatal("DecodeTransformed rejected a transformed store")
	}
	if got.Rs1 != 0 {
		t.Errorf("transformed rs1 = %d, want 0 (cleared)", got.Rs1)
	}
	if got.Op != OpSD || got.Rs2 != 12 {
		t.Errorf("transformed inst lost identity: %+v", got)
	}
	// Non-memory instructions do not transform.
	if TransformedInst(Decode(WordECALL)) != 0 {
		t.Error("ecall should not transform")
	}
	if _, ok := DecodeTransformed(0); ok {
		t.Error("DecodeTransformed(0) should fail")
	}
	if _, ok := DecodeTransformed(uint64(WordECALL)); ok {
		t.Error("DecodeTransformed(ecall) should fail")
	}
}

// ExtendLoad narrows and extends by the load op; every other op, and
// OpInvalid from an undecodable htinst, passes the value through.
func TestExtendLoad(t *testing.T) {
	const raw = 0xDEAD_BEEF_8765_43F1
	for _, tc := range []struct {
		op   Op
		want uint64
	}{
		{OpLB, 0xFFFF_FFFF_FFFF_FFF1},
		{OpLBU, 0xF1},
		{OpLH, 0x43F1},
		{OpLHU, 0x43F1},
		{OpLW, 0xFFFF_FFFF_8765_43F1},
		{OpLRW, 0xFFFF_FFFF_8765_43F1},
		{OpLWU, 0x8765_43F1},
		{OpLD, raw},
		{OpLRD, raw},
		{OpSW, raw},
		{OpInvalid, raw},
	} {
		if got := ExtendLoad(tc.op, raw); got != tc.want {
			t.Errorf("ExtendLoad(%v, %#x) = %#x, want %#x", tc.op, uint64(raw), got, tc.want)
		}
	}
	if got := ExtendLoad(OpLH, 0x8000); got != 0xFFFF_FFFF_FFFF_8000 {
		t.Errorf("ExtendLoad(lh, 0x8000) = %#x", got)
	}
}

func TestOpString(t *testing.T) {
	if OpADDI.String() != "addi" {
		t.Errorf("OpADDI.String() = %q", OpADDI.String())
	}
	if Op(9999).String() == "" {
		t.Error("unknown op should still stringify")
	}
}
