package hart

import (
	"encoding/binary"
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
)

// ISA conformance suite. Every execution tier runs opTable's handlers, so
// the lockstep suites can no longer catch a wrong handler: all four tiers
// would agree on the wrong answer. These programs pin each instruction
// class to literal expected register and memory values, computed by hand
// from the RISC-V specification, and run under all four tiers, which must
// also agree on Cycles and Instret. Ops the asm DSL lacks are emitted with
// p.DW(isa.Encode*(...)).

// confTier is one execution engine, selected through the public API.
type confTier struct {
	name string
	set  func(h *Hart)
}

var confTiers = []confTier{
	{"trace", func(*Hart) {}},
	{"block", func(h *Hart) { h.SetTraces(false) }},
	{"fast", func(h *Hart) { h.SetSuperblocks(false) }},
	{"slow", func(h *Hart) { h.DisableFastPath() }},
}

// confData is the data area the memory programs use.
const confData = ramBase + dataOff

// confProgram is one instruction-class program and its expected results.
type confProgram struct {
	name  string
	build func(p *asm.Program)
	regs  map[asm.Reg]uint64
	mem   map[uint64]uint64 // 8-byte little-endian words at absolute addresses
}

var confPrograms = []confProgram{
	{
		name: "upper-jump",
		build: func(p *asm.Program) {
			p.DW(isa.EncodeU(0x37, asm.S0, 0x12345000))  // 0x00 lui
			p.DW(isa.EncodeU(0x37, asm.S1, -0x80000000)) // 0x04 lui, sign-extended
			p.DW(isa.EncodeU(0x17, asm.S2, 0x1000))      // 0x08 auipc
			p.JAL(asm.RA, "over")                        // 0x0C
			p.ADDI(asm.S3, asm.Zero, 1)                  // 0x10 skipped
			p.Label("over")
			p.ADDI(asm.S4, asm.Zero, 2) // 0x14
			p.LA(asm.T0, "fn")          // 0x18..0x34
			p.JALR(asm.S5, asm.T0, 1)   // 0x38: target bit 0 cleared
			p.ECALL()                   // 0x3C
			p.Label("fn")
			p.ADDI(asm.S6, asm.Zero, 3) // 0x40
			p.JALR(asm.Zero, asm.S5, 0) // back to the ecall
		},
		regs: map[asm.Reg]uint64{
			asm.S0: 0x12345000,
			asm.S1: 0xFFFFFFFF80000000,
			asm.S2: 0x80001008,
			asm.RA: 0x80000010,
			asm.S3: 0,
			asm.S4: 2,
			asm.S5: 0x8000003C,
			asm.S6: 3,
		},
	},
	{
		// Each branch runs once taken and once not taken. A taken branch
		// skips the ori that follows it, so A0 collects the taken cases
		// that fell through (want none) and A1 the not-taken ones (want all).
		name: "branch",
		build: func(p *asm.Program) {
			p.LI(asm.T0, -1)
			p.LI(asm.T1, 1)
			p.LI(asm.T2, 1)
			type br struct {
				emit     func(p *asm.Program, a, b asm.Reg, l string) *asm.Program
				tkA, tkB asm.Reg // operands that take the branch
				ntA, ntB asm.Reg // operands that do not
			}
			for k, b := range []br{
				{(*asm.Program).BEQ, asm.T1, asm.T2, asm.T0, asm.T1},
				{(*asm.Program).BNE, asm.T0, asm.T1, asm.T1, asm.T2},
				{(*asm.Program).BLT, asm.T0, asm.T1, asm.T1, asm.T0},
				{(*asm.Program).BGE, asm.T1, asm.T2, asm.T0, asm.T1},
				{(*asm.Program).BLTU, asm.T1, asm.T0, asm.T0, asm.T1},
				{(*asm.Program).BGEU, asm.T0, asm.T1, asm.T1, asm.T0},
			} {
				tk, nt := "tk"+string(rune('0'+k)), "nt"+string(rune('0'+k))
				b.emit(p, b.tkA, b.tkB, tk)
				p.ORI(asm.A0, asm.A0, 1<<k)
				p.Label(tk)
				b.emit(p, b.ntA, b.ntB, nt)
				p.ORI(asm.A1, asm.A1, 1<<k)
				p.Label(nt)
			}
			p.ECALL()
		},
		regs: map[asm.Reg]uint64{asm.A0: 0, asm.A1: 0x3F},
	},
	{
		name: "op-imm",
		build: func(p *asm.Program) {
			p.LI(asm.A0, -5)
			p.LI(asm.A1, 0x0F0F)
			p.ADDI(asm.S0, asm.A0, 100)
			p.SLTI(asm.S1, asm.A0, -4)
			p.SLTIU(asm.S2, asm.A0, 5)
			p.SLTIU(asm.S3, asm.A1, -1) // immediate sign-extends to 2^64-1
			p.XORI(asm.S4, asm.A1, 0x0FF)
			p.ORI(asm.S5, asm.A1, 0x0F0)
			p.ANDI(asm.S6, asm.A1, -16)
			p.SLLI(asm.S7, asm.A0, 60)
			p.SRLI(asm.S8, asm.A0, 60)
			p.SRAI(asm.S9, asm.A0, 1)
			p.ADDI(asm.Zero, asm.A0, 1) // writes to x0 are discarded
			p.ECALL()
		},
		regs: map[asm.Reg]uint64{
			asm.S0:   0x5F,
			asm.S1:   1,
			asm.S2:   0,
			asm.S3:   1,
			asm.S4:   0x0FF0,
			asm.S5:   0x0FFF,
			asm.S6:   0x0F00,
			asm.S7:   0xB000000000000000,
			asm.S8:   0xF,
			asm.S9:   0xFFFFFFFFFFFFFFFD,
			asm.Zero: 0,
		},
	},
	{
		name: "op",
		build: func(p *asm.Program) {
			p.LIU(asm.A0, 0x8000000000000003)
			p.LI(asm.A1, 67) // shift amounts use the low 6 bits: 3
			p.LI(asm.A2, 5)
			p.ADD(asm.S0, asm.A0, asm.A2)
			p.SUB(asm.S1, asm.A2, asm.A0)
			p.SLL(asm.S2, asm.A0, asm.A1)
			p.SLT(asm.S3, asm.A0, asm.A2)
			p.SLTU(asm.S4, asm.A0, asm.A2)
			p.XOR(asm.S5, asm.A0, asm.A2)
			p.SRL(asm.S6, asm.A0, asm.A1)
			p.SRA(asm.S7, asm.A0, asm.A1)
			p.OR(asm.S8, asm.A0, asm.A2)
			p.AND(asm.S9, asm.A0, asm.A2)
			p.ECALL()
		},
		regs: map[asm.Reg]uint64{
			asm.S0: 0x8000000000000008,
			asm.S1: 0x8000000000000002,
			asm.S2: 0x18,
			asm.S3: 1,
			asm.S4: 0,
			asm.S5: 0x8000000000000006,
			asm.S6: 0x1000000000000000,
			asm.S7: 0xF000000000000000,
			asm.S8: 0x8000000000000007,
			asm.S9: 1,
		},
	},
	{
		name: "op-32",
		build: func(p *asm.Program) {
			p.LIU(asm.A0, 0x123456787FFFFFFF)
			p.LIU(asm.A1, 0x00000000F0000001)
			p.LI(asm.A2, 36) // shift amounts use the low 5 bits: 4
			p.ADDIW(asm.S0, asm.A0, 1)
			p.DW(isa.EncodeI(0x1B, 1, asm.S1, asm.A1, 4))       // slliw
			p.DW(isa.EncodeI(0x1B, 5, asm.S2, asm.A1, 4))       // srliw
			p.DW(isa.EncodeI(0x1B, 5, asm.S3, asm.A1, 4|0x400)) // sraiw
			p.ADDW(asm.S4, asm.A0, asm.A1)
			p.SUBW(asm.S5, asm.A1, asm.A0)
			p.DW(isa.EncodeR(0x3B, 1, 0x00, asm.S6, asm.A1, asm.A2)) // sllw
			p.DW(isa.EncodeR(0x3B, 5, 0x00, asm.S7, asm.A1, asm.A2)) // srlw
			p.DW(isa.EncodeR(0x3B, 5, 0x20, asm.S8, asm.A1, asm.A2)) // sraw
			p.ECALL()
		},
		regs: map[asm.Reg]uint64{
			asm.S0: 0xFFFFFFFF80000000,
			asm.S1: 0x0000000000000010,
			asm.S2: 0x000000000F000000,
			asm.S3: 0xFFFFFFFFFF000000,
			asm.S4: 0x0000000070000000,
			asm.S5: 0x0000000070000002,
			asm.S6: 0x0000000000000010,
			asm.S7: 0x000000000F000000,
			asm.S8: 0xFFFFFFFFFF000000,
		},
	},
	{
		name: "mul-div",
		build: func(p *asm.Program) {
			p.LI(asm.A0, -7)
			p.LI(asm.A1, 3)
			p.LIU(asm.A2, 0x8000000000000000)
			p.LI(asm.A3, -1)
			p.MUL(asm.S0, asm.A0, asm.A1)
			p.MULH(asm.S1, asm.A2, asm.A3)                           // (-2^63)(-1) = 2^63
			p.DW(isa.EncodeR(0x33, 2, 0x01, asm.S2, asm.A3, asm.A3)) // mulhsu (-1)(2^64-1)
			p.MULHU(asm.S3, asm.A3, asm.A3)
			p.DIV(asm.S4, asm.A0, asm.A1)
			p.DIVU(asm.S5, asm.A0, asm.A1)
			p.REM(asm.S6, asm.A0, asm.A1)
			p.REMU(asm.S7, asm.A0, asm.A1)
			p.DIV(asm.S8, asm.A2, asm.A3) // overflow: quotient is the dividend
			p.REM(asm.S9, asm.A2, asm.A3) // overflow: remainder 0
			p.DIV(asm.S10, asm.A0, asm.Zero)
			p.REMU(asm.S11, asm.A0, asm.Zero)
			p.MULW(asm.T0, asm.A2, asm.A3)
			p.DW(isa.EncodeR(0x3B, 4, 0x01, asm.T1, asm.A0, asm.A1))   // divw
			p.DW(isa.EncodeR(0x3B, 5, 0x01, asm.T2, asm.A0, asm.A1))   // divuw
			p.DW(isa.EncodeR(0x3B, 6, 0x01, asm.T3, asm.A0, asm.A1))   // remw
			p.DW(isa.EncodeR(0x3B, 7, 0x01, asm.T4, asm.A0, asm.A1))   // remuw
			p.DW(isa.EncodeR(0x3B, 5, 0x01, asm.T5, asm.A0, asm.Zero)) // divuw by zero
			p.ECALL()
		},
		regs: map[asm.Reg]uint64{
			asm.S0:  0xFFFFFFFFFFFFFFEB,
			asm.S1:  0,
			asm.S2:  0xFFFFFFFFFFFFFFFF,
			asm.S3:  0xFFFFFFFFFFFFFFFE,
			asm.S4:  0xFFFFFFFFFFFFFFFE,
			asm.S5:  0x5555555555555553,
			asm.S6:  0xFFFFFFFFFFFFFFFF,
			asm.S7:  0,
			asm.S8:  0x8000000000000000,
			asm.S9:  0,
			asm.S10: 0xFFFFFFFFFFFFFFFF,
			asm.S11: 0xFFFFFFFFFFFFFFF9,
			asm.T0:  0,
			asm.T1:  0xFFFFFFFFFFFFFFFE,
			asm.T2:  0x0000000055555553,
			asm.T3:  0xFFFFFFFFFFFFFFFF,
			asm.T4:  0,
			asm.T5:  0xFFFFFFFFFFFFFFFF,
		},
	},
	{
		name: "load-store",
		build: func(p *asm.Program) {
			p.LIU(asm.S11, confData)
			p.LIU(asm.T0, 0x8877665544332211)
			p.LI(asm.T1, -0x21524111) // 0x...DEADBEEF
			p.LI(asm.T2, 0xCAFE)
			p.LI(asm.T3, 0x80)
			p.SD(asm.T0, asm.S11, 0)
			p.SW(asm.T1, asm.S11, 8)
			p.SH(asm.T2, asm.S11, 12)
			p.SB(asm.T3, asm.S11, 14)
			p.SB(asm.Zero, asm.S11, 15)
			p.ADDI(asm.S10, asm.S11, 16)
			p.LB(asm.A0, asm.S11, 14)
			p.LBU(asm.A1, asm.S11, 14)
			p.LH(asm.A2, asm.S11, 12)
			p.LHU(asm.A3, asm.S11, 12)
			p.LW(asm.A4, asm.S11, 8)
			p.LWU(asm.A5, asm.S11, 8)
			p.LD(asm.A6, asm.S11, 0)
			p.LW(asm.A7, asm.S11, 4)
			p.LD(asm.S2, asm.S10, -8) // negative offset
			p.ECALL()
		},
		regs: map[asm.Reg]uint64{
			asm.A0: 0xFFFFFFFFFFFFFF80,
			asm.A1: 0x80,
			asm.A2: 0xFFFFFFFFFFFFCAFE,
			asm.A3: 0xCAFE,
			asm.A4: 0xFFFFFFFFDEADBEEF,
			asm.A5: 0xDEADBEEF,
			asm.A6: 0x8877665544332211,
			asm.A7: 0xFFFFFFFF88776655,
			asm.S2: 0x0080CAFEDEADBEEF,
		},
		mem: map[uint64]uint64{
			confData:     0x8877665544332211,
			confData + 8: 0x0080CAFEDEADBEEF,
		},
	},
	{
		name: "atomic",
		build: func(p *asm.Program) {
			amo := func(funct5, funct3 uint32, rd, rs1, rs2 asm.Reg) {
				p.DW(isa.EncodeAMO(funct5, funct3, rd, rs1, rs2))
			}
			p.LIU(asm.S10, confData)
			p.ADDI(asm.S11, asm.S10, 8)
			p.LIU(asm.T0, 0x1111111180000001)
			p.SD(asm.T0, asm.S10, 0)
			p.LI(asm.T1, 5)
			p.LIU(asm.T2, 0x2222222222222222)
			p.LIU(asm.T3, 0x90000000)
			p.LIU(asm.T4, 0x10000000)
			p.LI(asm.T5, 0xFFFF)
			p.LIU(asm.T6, 0x0F0F0F0F)
			p.LRW(asm.A0, asm.S10)
			p.SCW(asm.A1, asm.S10, asm.T1)        // reservation held: succeeds
			p.SCW(asm.A2, asm.S10, asm.T1)        // reservation consumed: fails
			amo(0x02, 3, asm.A3, asm.S10, 0)      // lr.d
			amo(0x03, 3, asm.A4, asm.S10, asm.T2) // sc.d
			amo(0x01, 2, asm.A5, asm.S10, asm.T3) // amoswap.w
			p.AMOADDW(asm.A6, asm.S10, asm.T4)
			amo(0x04, 2, asm.A7, asm.S10, asm.T5) // amoxor.w
			amo(0x0C, 2, asm.S2, asm.S10, asm.T6) // amoand.w
			p.LIU(asm.T0, 0x30000000)
			amo(0x08, 2, asm.S3, asm.S10, asm.T0) // amoor.w

			p.LI(asm.T0, 0x10)
			p.SD(asm.T0, asm.S11, 0)
			p.LI(asm.T0, 0x100)
			p.AMOSWAPD(asm.S4, asm.S11, asm.T0)
			p.LI(asm.T0, -1)
			p.AMOADDD(asm.S5, asm.S11, asm.T0)
			p.LI(asm.T0, 0xF0)
			amo(0x04, 3, asm.S6, asm.S11, asm.T0) // amoxor.d
			p.LI(asm.T0, 0x0C)
			amo(0x0C, 3, asm.S7, asm.S11, asm.T0) // amoand.d
			p.LIU(asm.T0, 0x8000000000000000)
			amo(0x08, 3, asm.S8, asm.S11, asm.T0) // amoor.d
			p.ECALL()
		},
		regs: map[asm.Reg]uint64{
			asm.A0: 0xFFFFFFFF80000001,
			asm.A1: 0,
			asm.A2: 1,
			asm.A3: 0x1111111100000005,
			asm.A4: 0,
			asm.A5: 0x22222222,
			asm.A6: 0xFFFFFFFF90000000,
			asm.A7: 0xFFFFFFFFA0000000,
			asm.S2: 0xFFFFFFFFA000FFFF,
			asm.S3: 0x0F0F,
			asm.S4: 0x10,
			asm.S5: 0x100,
			asm.S6: 0xFF,
			asm.S7: 0x0F,
			asm.S8: 0x0C,
		},
		mem: map[uint64]uint64{
			confData:     0x2222222230000F0F,
			confData + 8: 0x800000000000000C,
		},
	},
	{
		name: "fence",
		build: func(p *asm.Program) {
			p.ADDI(asm.S0, asm.Zero, 1)
			p.FENCE()
			p.ADDI(asm.S0, asm.S0, 2)
			p.DW(isa.EncodeI(0x0F, 1, 0, 0, 0)) // fence.i
			p.ADDI(asm.S0, asm.S0, 4)
			p.ECALL()
		},
		regs: map[asm.Reg]uint64{asm.S0: 7},
	},
	{
		name: "csr",
		build: func(p *asm.Program) {
			csri := func(funct3 uint32, rd asm.Reg, uimm uint8) {
				p.DW(isa.EncodeCSR(funct3, rd, uimm, isa.CSRMscratch))
			}
			p.LI(asm.T0, 0x5A)
			p.CSRRW(asm.A0, isa.CSRMscratch, asm.T0)
			p.LI(asm.T0, 0x0F)
			p.CSRRS(asm.A1, isa.CSRMscratch, asm.T0)
			p.LI(asm.T0, 0x50)
			p.DW(isa.EncodeCSR(3, asm.A2, asm.T0, isa.CSRMscratch)) // csrrc
			csri(5, asm.A3, 0x13)                                   // csrrwi
			csri(6, asm.A4, 0x0C)                                   // csrrsi
			csri(7, asm.A5, 0x03)                                   // csrrci
			p.CSRR(asm.A6, isa.CSRMscratch)
			p.ECALL()
		},
		regs: map[asm.Reg]uint64{
			asm.A0: 0,
			asm.A1: 0x5A,
			asm.A2: 0x5F,
			asm.A3: 0x0F,
			asm.A4: 0x13,
			asm.A5: 0x1F,
			asm.A6: 0x1C,
		},
	},
	{
		// The M-mode handler sums the causes it takes into S2 and counts
		// them in S3, then resumes after the trapping instruction; an
		// ecall from S-mode resumes in M-mode. The run ends at the final
		// M-mode ecall.
		name: "system",
		build: func(p *asm.Program) {
			p.J("main")
			p.Label("handler")
			p.CSRR(asm.T0, isa.CSRMcause)
			p.ADD(asm.S2, asm.S2, asm.T0)
			p.ADDI(asm.S3, asm.S3, 1)
			p.LI(asm.T1, isa.ExcEcallS)
			p.BNE(asm.T0, asm.T1, "resume")
			p.LIU(asm.T1, isa.MstatusMPP)
			p.CSRRS(asm.Zero, isa.CSRMstatus, asm.T1)
			p.Label("resume")
			p.CSRR(asm.T1, isa.CSRMepc)
			p.ADDI(asm.T1, asm.T1, 4)
			p.CSRRW(asm.Zero, isa.CSRMepc, asm.T1)
			p.MRET()
			p.Label("main")
			p.LA(asm.T0, "handler")
			p.CSRRW(asm.Zero, isa.CSRMtvec, asm.T0)
			p.EBREAK()
			p.DW(0) // invalid encoding
			p.WFI()
			p.SFENCEVMA(asm.Zero, asm.Zero)
			p.DW(isa.EncodeR(0x73, 0, 0x11, 0, asm.Zero, asm.Zero)) // hfence.vvma
			p.HFENCEGVMA(asm.Zero, asm.Zero)
			p.LA(asm.T0, "smode")
			p.CSRRW(asm.Zero, isa.CSRSepc, asm.T0)
			p.LIU(asm.T0, isa.MstatusSPP)
			p.CSRRS(asm.Zero, isa.CSRMstatus, asm.T0)
			p.SRET()
			p.Label("smode")
			p.ADDI(asm.S4, asm.Zero, 7)
			p.ECALL() // from S-mode
			p.ADDI(asm.S5, asm.Zero, 9)
			p.ECALL() // from M-mode: ends the run
		},
		regs: map[asm.Reg]uint64{
			asm.S2: isa.ExcBreakpoint + isa.ExcIllegalInst + isa.ExcEcallS,
			asm.S3: 3,
			asm.S4: 7,
			asm.S5: 9,
		},
	},
}

// runConformance runs p under one tier through Run, the way the platform
// loop drives a hart, until the terminating M-mode ecall, and returns the
// hart.
func runConformance(t *testing.T, tier confTier, code []byte) *Hart {
	t.Helper()
	h := newHart(t)
	openPMP(t, h)
	tier.set(h)
	if err := h.Mem.Write(ramBase, code); err != nil {
		t.Fatal(err)
	}
	h.PC = ramBase
	for steps := uint64(0); steps < 10000; {
		n, ev := h.Run(noTimer{}, 1024)
		steps += n
		if ev.Kind == EvTrap && ev.Trap.Cause == isa.ExcEcallM {
			return h
		}
	}
	t.Fatalf("%s: no terminating ecall (pc=%#x)", tier.name, h.PC)
	return nil
}

func TestISAConformance(t *testing.T) {
	covered := map[isa.Op]bool{}
	for _, cp := range confPrograms {
		p := asm.New(ramBase)
		cp.build(p)
		code := p.MustAssemble()
		for i := 0; i+4 <= len(code); i += 4 {
			covered[isa.Decode(binary.LittleEndian.Uint32(code[i:])).Op] = true
		}
		t.Run(cp.name, func(t *testing.T) {
			var ref *Hart
			for _, tier := range confTiers {
				h := runConformance(t, tier, code)
				for r, want := range cp.regs {
					if got := h.Reg(r); got != want {
						t.Errorf("%s: x%d = %#x, want %#x", tier.name, r, got, want)
					}
				}
				for addr, want := range cp.mem {
					got, err := h.Mem.ReadUint(addr, 8)
					if err != nil || got != want {
						t.Errorf("%s: mem[%#x] = %#x (%v), want %#x", tier.name, addr, got, err, want)
					}
				}
				if tier.name == "trace" && h.FastPathStats().TCOps == 0 {
					t.Errorf("trace: no instruction retired by a compiled trace")
				}
				if ref == nil {
					ref = h
					continue
				}
				if h.Cycles != ref.Cycles || h.Instret != ref.Instret {
					t.Errorf("%s: cycles/instret %d/%d, %s has %d/%d",
						tier.name, h.Cycles, h.Instret, confTiers[0].name, ref.Cycles, ref.Instret)
				}
			}
		})
	}
	for op := range opTable {
		if !covered[isa.Op(op)] {
			t.Errorf("no conformance program executes %v", isa.Op(op))
		}
	}
}
