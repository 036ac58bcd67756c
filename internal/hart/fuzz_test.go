package hart

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
	"zion/internal/ptw"
)

// Differential fuzzer: generate random straight-line ALU programs, run
// them through the interpreter, and compare every register against a Go
// evaluation of the same operation sequence. Catches decode/execute
// mismatches the targeted property tests miss.

type aluOp struct {
	name string
	emit func(p *asm.Program, rd, rs1, rs2 asm.Reg, imm int64)
	eval func(a, b uint64, imm int64) uint64
}

var aluOps = []aluOp{
	{"add", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.ADD(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a + b }},
	{"sub", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.SUB(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a - b }},
	{"xor", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.XOR(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a ^ b }},
	{"or", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.OR(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a | b }},
	{"and", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.AND(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a & b }},
	{"sll", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.SLL(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a << (b & 63) }},
	{"srl", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.SRL(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a >> (b & 63) }},
	{"sra", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.SRA(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return uint64(int64(a) >> (b & 63)) }},
	{"mul", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.MUL(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a * b }},
	{"mulhu", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.MULHU(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { hi, _ := bits.Mul64(a, b); return hi }},
	{"mulh", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.MULH(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return bigHigh(big.NewInt(int64(a)), big.NewInt(int64(b))) }},
	{"mulhsu", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) {
		p.DW(isa.EncodeR(0x33, 2, 0x01, rd, rs1, rs2))
	}, func(a, b uint64, _ int64) uint64 { return bigHigh(big.NewInt(int64(a)), new(big.Int).SetUint64(b)) }},
	// The division oracles spell out the spec's special cases: division by
	// zero gives all ones (remainder: the dividend), signed overflow gives
	// the dividend (remainder: zero).
	{"div", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.DIV(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 {
			switch {
			case b == 0:
				return math.MaxUint64
			case int64(a) == math.MinInt64 && int64(b) == -1:
				return a
			}
			return uint64(int64(a) / int64(b))
		}},
	{"divu", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.DIVU(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 {
			if b == 0 {
				return math.MaxUint64
			}
			return a / b
		}},
	{"rem", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.REM(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 {
			switch {
			case b == 0:
				return a
			case int64(a) == math.MinInt64 && int64(b) == -1:
				return 0
			}
			return uint64(int64(a) % int64(b))
		}},
	{"remu", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.REMU(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 {
			if b == 0 {
				return a
			}
			return a % b
		}},
	{"slt", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.SLT(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 {
			if int64(a) < int64(b) {
				return 1
			}
			return 0
		}},
	{"sltu", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.SLTU(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 {
			if a < b {
				return 1
			}
			return 0
		}},
	{"addw", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.ADDW(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return uint64(int64(int32(uint32(a) + uint32(b)))) }},
	{"subw", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.SUBW(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return uint64(int64(int32(uint32(a) - uint32(b)))) }},
	{"mulw", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.MULW(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return uint64(int64(int32(uint32(a) * uint32(b)))) }},
	{"addi", func(p *asm.Program, rd, rs1, _ asm.Reg, imm int64) { p.ADDI(rd, rs1, imm) },
		func(a, _ uint64, imm int64) uint64 { return a + uint64(imm) }},
	{"xori", func(p *asm.Program, rd, rs1, _ asm.Reg, imm int64) { p.XORI(rd, rs1, imm) },
		func(a, _ uint64, imm int64) uint64 { return a ^ uint64(imm) }},
	{"andi", func(p *asm.Program, rd, rs1, _ asm.Reg, imm int64) { p.ANDI(rd, rs1, imm) },
		func(a, _ uint64, imm int64) uint64 { return a & uint64(imm) }},
	{"ori", func(p *asm.Program, rd, rs1, _ asm.Reg, imm int64) { p.ORI(rd, rs1, imm) },
		func(a, _ uint64, imm int64) uint64 { return a | uint64(imm) }},
}

// bigHigh returns the high 64 bits of the 128-bit two's-complement
// product a*b.
func bigHigh(a, b *big.Int) uint64 {
	return uint64(new(big.Int).Rsh(new(big.Int).Mul(a, b), 64).Int64())
}

func TestDifferentialALUFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EC4E7))
	const (
		programs = 60
		opsPer   = 40
	)
	// Working registers: x5..x15 (t0-t2, s0-s1, a0-a5).
	regs := []asm.Reg{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

	for pi := 0; pi < programs; pi++ {
		var golden [32]uint64
		p := asm.New(ramBase)
		// Seed the working registers with random values via LI.
		for _, r := range regs {
			v := rng.Uint64()
			p.LI(r, int64(v))
			golden[r] = v
		}
		for i := 0; i < opsPer; i++ {
			op := aluOps[rng.Intn(len(aluOps))]
			rd := regs[rng.Intn(len(regs))]
			rs1 := regs[rng.Intn(len(regs))]
			rs2 := regs[rng.Intn(len(regs))]
			imm := int64(rng.Intn(4096) - 2048)
			op.emit(p, rd, rs1, rs2, imm)
			golden[rd] = op.eval(golden[rs1], golden[rs2], imm)
		}
		p.ECALL()

		h := newHart(t)
		load(t, h, ramBase, p)
		for s := 0; s < 20000; s++ {
			ev := h.Step()
			if ev.Kind == EvTrap {
				if ev.Trap.Cause != isa.ExcEcallM {
					t.Fatalf("program %d: trap %s", pi, isa.CauseName(ev.Trap.Cause))
				}
				break
			}
		}
		for _, r := range regs {
			if h.Reg(r) != golden[r] {
				t.Fatalf("program %d (seeded): x%d = %#x, golden %#x",
					pi, r, h.Reg(r), golden[r])
			}
		}
	}
}

// --- Lockstep differential fuzzer ----------------------------------------
//
// Two harts execute the same randomly generated program from identical
// initial state: one through Run with the fast-path engine, one on the
// pure slow path. After every single step the full architectural state —
// registers, PC, mode, Cycles, Instret, and the event kind/cause — must
// match, and at the end the TLB/PMP/walker statistics and trap counts must
// match too. The programs deliberately interleave the events that
// invalidate fast-path caches: PMP reprogramming, satp Bare<->Sv39
// toggles, sfence.vma variants, and stores into the instruction stream.

// instrWord assembles a single instruction and returns its encoding.
func instrWord(t *testing.T, build func(p *asm.Program)) uint32 {
	t.Helper()
	p := asm.New(0)
	build(p)
	return binary.LittleEndian.Uint32(p.MustAssemble())
}

// lockstep drives both harts one instruction at a time until the program's
// terminating ecall, failing on the first divergence: the fast hart through
// Run with a one-step budget, the slow hart through Step.
func lockstep(t *testing.T, tag string, pi int, fast, slow *Hart, wantCause uint64) {
	t.Helper()
	const maxSteps = 50000
	for s := 0; s < maxSteps; s++ {
		_, ef := fast.Run(noTimer{}, 1)
		es := slow.Step()
		here := at{tag, pi, uint64(s)}
		sameEvent(t, here, ef, es)
		sameState(t, here, fast, slow, ef.Kind == EvTrap)
		if ef.Kind == EvTrap {
			if ef.Trap.Cause != wantCause {
				t.Fatalf("%s program %d: unexpected trap %s at pc=%#x",
					tag, pi, isa.CauseName(ef.Trap.Cause), ef.Trap.PC)
			}
			return
		}
	}
	t.Fatalf("%s program %d: no terminating event after %d steps (pc=%#x)", tag, pi, maxSteps, fast.PC)
}

// at names a point of a lockstep run in failure messages.
type at struct {
	tag  string
	prog int
	step uint64
}

func (a at) String() string { return fmt.Sprintf("%s program %d step %d", a.tag, a.prog, a.step) }

// lockstepCSRs are the CSRs sameState compares at every boundary.
var lockstepCSRs = []uint16{isa.CSRMstatus, isa.CSRMie, isa.CSRMip, isa.CSRMepc,
	isa.CSRMcause, isa.CSRMtval, isa.CSRMtvec}

// sameEvent fails unless the fast and slow harts returned the same event.
func sameEvent(t *testing.T, here at, ef, es Event) {
	t.Helper()
	if ef.Kind != es.Kind {
		t.Fatalf("%v: event kind fast=%v slow=%v", here, ef.Kind, es.Kind)
	}
	if ef.Kind == EvTrap && ef.Trap != es.Trap {
		t.Fatalf("%v: trap fast=%s %+v slow=%s %+v", here,
			isa.CauseName(ef.Trap.Cause), ef.Trap, isa.CauseName(es.Trap.Cause), es.Trap)
	}
}

// sameState fails unless the fast and slow harts agree on PC, mode,
// Cycles, Instret, the register file and lockstepCSRs. With accounting set
// it also compares what the paper tables are built from (TLB, PMP and
// page-walk statistics and the trap counts) and the bytes of the first code
// page and of the data region the fuzz programs store to.
func sameState(t *testing.T, here at, fast, slow *Hart, accounting bool) {
	t.Helper()
	if fast.PC != slow.PC || fast.Mode != slow.Mode ||
		fast.Cycles != slow.Cycles || fast.Instret != slow.Instret {
		t.Fatalf("%v: pc %#x/%#x mode %v/%v cycles %d/%d instret %d/%d",
			here, fast.PC, slow.PC, fast.Mode, slow.Mode,
			fast.Cycles, slow.Cycles, fast.Instret, slow.Instret)
	}
	if fast.X != slow.X {
		t.Fatalf("%v: register files diverge:\nfast %#x\nslow %#x", here, fast.X, slow.X)
	}
	for _, c := range lockstepCSRs {
		if fast.CSR(c) != slow.CSR(c) {
			t.Fatalf("%v: csr %#x fast=%#x slow=%#x", here, c, fast.CSR(c), slow.CSR(c))
		}
	}
	if !accounting {
		return
	}
	if fast.TLB.Stats() != slow.TLB.Stats() {
		t.Fatalf("%v: TLB stats fast=%+v slow=%+v", here, fast.TLB.Stats(), slow.TLB.Stats())
	}
	if fast.PMP.Stats() != slow.PMP.Stats() {
		t.Fatalf("%v: PMP stats fast=%+v slow=%+v", here, fast.PMP.Stats(), slow.PMP.Stats())
	}
	if fast.WalkStats != slow.WalkStats {
		t.Fatalf("%v: walk stats fast=%+v slow=%+v", here, fast.WalkStats, slow.WalkStats)
	}
	if fast.traps != slow.traps {
		t.Fatalf("%v: trap counts fast=%+v slow=%+v", here, fast.TrapMix(), slow.TrapMix())
	}
	for _, r := range [][2]uint64{{ramBase, isa.PageSize}, {ramBase + dataOff, 2 * isa.PageSize}} {
		fb, err1 := fast.Mem.Read(r[0], r[1])
		sb, err2 := slow.Mem.Read(r[0], r[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: readback of %#x: %v / %v", here, r[0], err1, err2)
		}
		if !reflect.DeepEqual(fb, sb) {
			t.Fatalf("%v: memory at %#x diverges", here, r[0])
		}
	}
}

// catchUp advances the slow hart n instructions with step, behind a Run of
// the fast hart that retired n and returned ev, and returns the slow hart's
// last event. Only the last step may raise an event, and only when ev is
// one: an earlier one means the fast path hoisted a check it should not
// have.
func catchUp(t *testing.T, here at, n uint64, ev Event, step func() Event) Event {
	t.Helper()
	var es Event
	for j := uint64(0); j < n; j++ {
		if es = step(); es.Kind != EvNone && (ev.Kind == EvNone || j != n-1) {
			t.Fatalf("%v: slow hart raised %v after %d of %d catch-up steps", here, es.Kind, j+1, n)
		}
	}
	return es
}

const dataOff = 1 << 20 // data region offset within RAM used by fuzz programs

// emitSMCStore writes a pre-encoded instruction into the given slot label —
// a store into the instruction stream the fast path must notice.
func emitSMCStore(p *asm.Program, word uint32, slot string) {
	p.LA(28, slot)        // t3
	p.LI(29, int64(word)) // t4
	p.SW(29, 28, 0)
}

// genLockstepBody emits the shared random body: ALU ops, loads/stores to
// the data region, and (via hooks) class-specific invalidation events.
func genLockstepBody(t *testing.T, rng *rand.Rand, p *asm.Program, ops int, special func(i int) bool) {
	regs := []asm.Reg{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	for _, r := range regs {
		p.LI(r, int64(rng.Uint64()))
	}
	// Data pointer sits on a page boundary; signed 12-bit offsets reach
	// into the page on either side, exercising accesses near the edge.
	p.LIU(20, ramBase+dataOff+isa.PageSize) // s4
	off := func(mask int64) int64 { return (int64(rng.Intn(4096)) - 2048) &^ mask }
	for i := 0; i < ops; i++ {
		if special(i) {
			continue
		}
		switch rng.Intn(4) {
		case 0, 1: // ALU
			op := aluOps[rng.Intn(len(aluOps))]
			op.emit(p, regs[rng.Intn(len(regs))], regs[rng.Intn(len(regs))],
				regs[rng.Intn(len(regs))], int64(rng.Intn(4096)-2048))
		case 2: // store: width-aligned offsets around the page boundary
			rs := regs[rng.Intn(len(regs))]
			switch rng.Intn(4) {
			case 0:
				p.SB(rs, 20, off(0))
			case 1:
				p.SH(rs, 20, off(1))
			case 2:
				p.SW(rs, 20, off(3))
			default:
				p.SD(rs, 20, off(7))
			}
		default: // load
			rd := regs[rng.Intn(len(regs))]
			switch rng.Intn(4) {
			case 0:
				p.LBU(rd, 20, off(0))
			case 1:
				p.LHU(rd, 20, off(1))
			case 2:
				p.LW(rd, 20, off(3))
			default:
				p.LD(rd, 20, off(7))
			}
		}
	}
}

// newLockstepPair returns (fast, slow) harts over independent but identical
// memories.
func newLockstepPair(t *testing.T) (*Hart, *Hart) {
	t.Helper()
	fast := newHart(t)
	slow := newHart(t)
	slow.DisableFastPath()
	return fast, slow
}

// TestLockstepFuzzMachineMode interleaves ALU/memory traffic with PMP
// reprogramming and self-modifying stores, all in M-mode.
func TestLockstepFuzzMachineMode(t *testing.T) {
	rng := rand.New(rand.NewSource(0x10C3_57E9))
	addiW := instrWord(t, func(p *asm.Program) { p.ADDI(5, 5, 1) })
	xorW := instrWord(t, func(p *asm.Program) { p.XOR(6, 6, 6) })

	for pi := 0; pi < 30; pi++ {
		// A few programs hammer one slot past the blacklist threshold so
		// the decode-thrash path is exercised too.
		nSMC := rng.Intn(4)
		if pi%10 == 9 {
			nSMC = 20
		}
		smcAt := map[int]bool{}
		for len(smcAt) < nSMC {
			smcAt[rng.Intn(60)] = true
		}
		slots := 0
		p := asm.New(ramBase)
		genLockstepBody(t, rng, p, 60, func(i int) bool {
			switch {
			case smcAt[i]:
				w := addiW
				if slots%2 == 1 {
					w = xorW
				}
				// Reuse one slot for thrash programs, fresh slots otherwise.
				name := "slot0"
				if nSMC <= 4 {
					name = "slot" + string(rune('0'+slots))
				}
				emitSMCStore(p, w, name)
				slots++
			case i%13 == 5: // PMP address reprogram
				entry := uint16(rng.Intn(4))
				p.LIU(28, rng.Uint64()%(ramSize>>2)+(ramBase>>2))
				p.CSRRW(0, isa.CSRPmpaddr0+entry, 28)
			case i%17 == 7: // PMP config reprogram (no lock bits)
				p.LIU(28, rng.Uint64()&0x1F1F1F1F)
				p.CSRRW(0, isa.CSRPmpcfg0, 28)
			default:
				return false
			}
			return true
		})
		// Executable slots: every stored word is executed on the way out.
		n := slots
		if n > 0 && nSMC > 4 {
			n = 1
		}
		for s := 0; s < n; s++ {
			p.Label("slot" + string(rune('0'+s)))
			p.NOP()
		}
		p.ECALL()

		fast, slow := newLockstepPair(t)
		load(t, fast, ramBase, p)
		load(t, slow, ramBase, p)
		lockstep(t, "M", pi, fast, slow, isa.ExcEcallM)
	}
}

// enterSv39 opens PMP, maps RAM with an identity 1 GiB Sv39 superpage
// (tables in high RAM), and drops h to S-mode at ramBase under that
// mapping. It returns the satp value.
func enterSv39(t *testing.T, h *Hart) uint64 {
	t.Helper()
	return enterSv39With(t, h, ramBase, func(b *ptw.Builder, root uint64) error {
		return b.Map(root, ramBase, ramBase, pteRWXAD, 2, false)
	})
}

// pteRWXAD is a valid leaf's read/write/execute/accessed/dirty flags.
const pteRWXAD = isa.PTERead | isa.PTEWrite | isa.PTEExec | isa.PTEAccess | isa.PTEDirty

// enterSv39With opens PMP, builds an Sv39 root with tables in high RAM,
// lets mapFn install the mappings, and drops h to S-mode at pc under them.
// It returns the satp value.
func enterSv39With(t *testing.T, h *Hart, pc uint64, mapFn func(b *ptw.Builder, root uint64) error) uint64 {
	t.Helper()
	openPMP(t, h)
	next := uint64(ramBase + 48<<20)
	b := &ptw.Builder{Mem: h.Mem, Alloc: func() (uint64, error) {
		f := next
		next += isa.PageSize
		return f, nil
	}}
	root, err := b.NewRoot(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapFn(b, root); err != nil {
		t.Fatal(err)
	}
	sv39 := uint64(isa.SatpModeSv39)<<isa.SatpModeShift | root>>isa.PageShift
	h.SetCSR(isa.CSRSatp, sv39)
	h.SetCSR(isa.CSRMstatus,
		h.CSR(isa.CSRMstatus)&^isa.MstatusMPP|uint64(1)<<isa.MstatusMPPShift)
	h.SetCSR(isa.CSRMepc, pc)
	h.MRet()
	return sv39
}

// TestLockstepFuzzSupervisorSv39 runs S-mode programs under an identity
// Sv39 mapping, toggling satp between Bare and Sv39 and issuing sfence.vma
// variants between memory traffic.
func TestLockstepFuzzSupervisorSv39(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5339_AB42))

	for pi := 0; pi < 25; pi++ {
		p := asm.New(ramBase)
		genLockstepBody(t, rng, p, 60, func(i int) bool {
			switch {
			case i%9 == 4: // satp toggle: x22 = Bare, x23 = Sv39
				if rng.Intn(2) == 0 {
					p.CSRRW(0, isa.CSRSatp, 22)
				} else {
					p.CSRRW(0, isa.CSRSatp, 23)
				}
			case i%11 == 6: // sfence.vma variants
				switch rng.Intn(3) {
				case 0:
					p.SFENCEVMA(0, 0)
				case 1:
					p.SFENCEVMA(20, 0) // by VA
				default:
					p.SFENCEVMA(0, 21) // by ASID (x21 = 0)
				}
			default:
				return false
			}
			return true
		})
		p.ECALL()

		fast, slow := newLockstepPair(t)
		for _, h := range []*Hart{fast, slow} {
			load(t, h, ramBase, p)
			sv39 := enterSv39(t, h)
			h.SetReg(21, 0)
			h.SetReg(22, 0) // Bare
			h.SetReg(23, sv39)
		}
		lockstep(t, "S", pi, fast, slow, isa.ExcEcallS)
	}
}

// TestLockstepFastPathNotVacuous makes sure the fuzz configurations above
// actually exercise the engine: a representative M-mode program must
// produce fast-path fetch hits.
func TestLockstepFastPathNotVacuous(t *testing.T) {
	p := asm.New(ramBase)
	for i := 0; i < 100; i++ {
		p.ADDI(5, 5, 1)
	}
	p.ECALL()
	fast, slow := newLockstepPair(t)
	load(t, fast, ramBase, p)
	load(t, slow, ramBase, p)
	lockstep(t, "sanity", 0, fast, slow, isa.ExcEcallM)
	if st := fast.FastPathStats(); st.FetchHits == 0 {
		t.Fatalf("fast path never hit: %+v", st)
	}
}

// --- Batch lockstep: superblocks vs per-step under async events ----------
//
// The fuzzers above compare one instruction at a time. The superblock
// engine makes a stronger claim: a batch may hoist the timer and interrupt
// checks over a whole straight-line run, and the trace must still be
// bit-identical to per-step execution — including WHEN an interrupt is
// delivered. These drivers run the fast hart through Run with a multi-
// instruction budget while the slow hart is advanced one instruction at a
// time behind it, with a CLINT-shaped bus device so guest code can rearm
// its own mtimecmp and raise self-IPIs mid-run.

// fakeCLINT is a single-hart CLINT on the hart.Bus interface: msip at +0,
// mtimecmp at +0x4000, mtime at +0xBFF8 reading the hart's own cycle
// counter (per-hart virtual time, as in platform.CLINT). It is also the
// hart's Clock.
type fakeCLINT struct {
	h        *Hart
	mtimecmp uint64
	armed    bool
	msip     bool
}

const (
	fcBase = uint64(0x0200_0000)
	fcMSIP = fcBase + 0x0
	fcCmp  = fcBase + 0x4000
	fcTime = fcBase + 0xBFF8
)

func (c *fakeCLINT) Access(_ int, pa uint64, size int, write bool, val uint64) (uint64, bool) {
	switch pa {
	case fcMSIP:
		if write {
			c.msip = val&1 != 0
			if c.msip {
				c.h.SetPending(isa.IntMSoft)
			} else {
				c.h.ClearPending(isa.IntMSoft)
			}
			return 0, true
		}
		if c.msip {
			return 1, true
		}
		return 0, true
	case fcCmp:
		if write {
			c.mtimecmp = val
			c.armed = true
			return 0, true
		}
		return c.mtimecmp, true
	case fcTime:
		return c.h.Cycles, true
	}
	return 0, false
}

// NextDeadline implements Clock.
func (c *fakeCLINT) NextDeadline(int) (uint64, bool) { return c.mtimecmp, c.armed }

// emitIRQProlog emits a jump over an M-mode interrupt handler that disarms
// the timer, clears msip, counts the interrupt in x27, and returns; then
// points mtvec at it and enables MTIE|MSIE with mstatus.MIE. The handler
// clobbers x30/x31 only.
func emitIRQProlog(p *asm.Program) {
	p.J("irq_main")
	p.Label("irq_handler")
	p.LIU(30, fcCmp)
	p.LIU(31, uint64(1)<<62) // far future: effectively disarmed
	p.SD(31, 30, 0)
	p.LIU(30, fcMSIP)
	p.SW(0, 30, 0)
	p.ADDI(27, 27, 1)
	p.MRET()
	p.Label("irq_main")
	p.LA(30, "irq_handler")
	p.CSRRW(0, isa.CSRMtvec, 30)
	p.LI(30, int64(uint64(1)<<isa.IntMTimer|uint64(1)<<isa.IntMSoft))
	p.CSRRW(0, isa.CSRMie, 30)
	p.LI(30, int64(isa.MstatusMIE))
	p.CSRRS(0, isa.CSRMstatus, 30)
	p.LI(27, 0)
}

// batchLockstep drives the fast hart through Run, advances the slow hart
// (fast path detached, so each one-step Run is a timer refresh and a Step)
// one instruction at a time behind it, and compares full architectural
// state whenever Run returns. maxPerBatch caps the Run budget (0: no cap);
// 1 turns it into a per-instruction comparison.
func batchLockstep(t *testing.T, tag string, pi int, fast, slow *Hart, fc, sc *fakeCLINT, wantCause uint64, maxPerBatch uint64) {
	t.Helper()
	const maxSteps = 200000
	slowStep := func() Event { _, e := slow.Run(sc, 1); return e }
	var steps uint64
	for steps < maxSteps {
		budget := uint64(maxSteps) - steps
		if maxPerBatch > 0 && budget > maxPerBatch {
			budget = maxPerBatch
		}
		n, ev := fast.Run(fc, budget)
		es := catchUp(t, at{tag, pi, steps}, n, ev, slowStep)
		steps += n
		here := at{tag, pi, steps}
		terminal := ev.Kind == EvTrap && ev.Trap.Cause == wantCause
		sameEvent(t, here, ev, es)
		sameState(t, here, fast, slow, terminal)
		switch {
		case terminal:
			return
		case ev.Kind == EvNone:
			continue // budget spent
		case ev.Kind != EvTrap:
			t.Fatalf("%v: unexpected event %v", here, ev.Kind)
		case ev.Trap.Cause&isa.CauseInterruptBit == 0:
			t.Fatalf("%s program %d: unexpected exception %s at pc=%#x",
				tag, pi, isa.CauseName(ev.Trap.Cause), ev.Trap.PC)
		}
	}
	t.Fatalf("%s program %d: no terminating ecall after %d steps (pc=%#x)", tag, pi, maxSteps, fast.PC)
}

// newBatchPair returns fast/slow harts wired to independent fakeCLINTs.
func newBatchPair(t *testing.T) (*Hart, *Hart, *fakeCLINT, *fakeCLINT) {
	t.Helper()
	fast, slow := newLockstepPair(t)
	fc, sc := &fakeCLINT{h: fast}, &fakeCLINT{h: slow}
	fast.Bus, slow.Bus = fc, sc
	return fast, slow, fc, sc
}

// genBatchProgram emits the shared interrupt-heavy fuzz body: random ALU
// and memory traffic interleaved with near-future mtimecmp reprograms
// (often landing just inside a superblock's horizon), self-IPIs, and
// stores into the instruction stream.
func genBatchProgram(t *testing.T, rng *rand.Rand) *asm.Program {
	p := asm.New(ramBase)
	emitIRQProlog(p)
	slots := 0
	genLockstepBody(t, rng, p, 80, func(i int) bool {
		switch {
		case i%7 == 3: // mtimecmp = mtime + small delta: fires mid-run soon
			p.LIU(28, fcTime)
			p.LD(29, 28, 0)
			p.ADDI(29, 29, int64(rng.Intn(400)))
			p.LIU(28, fcCmp)
			p.SD(29, 28, 0)
		case i%13 == 8: // self-IPI through the bus
			p.LIU(28, fcMSIP)
			p.LI(29, 1)
			p.SW(29, 28, 0)
		case i%19 == 12 && slots < 4: // store into the instruction stream
			w := instrWord(t, func(q *asm.Program) { q.ADDI(5, 5, 1) })
			if slots%2 == 1 {
				w = instrWord(t, func(q *asm.Program) { q.XOR(6, 6, 6) })
			}
			emitSMCStore(p, w, "bslot"+string(rune('0'+slots)))
			slots++
		default:
			return false
		}
		return true
	})
	for s := 0; s < slots; s++ {
		p.Label("bslot" + string(rune('0'+s)))
		p.NOP()
	}
	p.ECALL()
	return p
}

// TestLockstepFuzzBatchAsync is the headline superblock fuzzer: timer
// rearms just inside the horizon, IPIs at horizon edges, and SMC stores
// into the currently executing block, batch against per-step.
func TestLockstepFuzzBatchAsync(t *testing.T) {
	rng := rand.New(rand.NewSource(0xB10C_F00D))
	var irqs, cutoffs, hits, tcops, tcbail uint64
	for pi := 0; pi < 25; pi++ {
		p := genBatchProgram(t, rng)
		fast, slow, fc, sc := newBatchPair(t)
		// Alternate the trace tier per program so the same fuzz corpus
		// pins the dispatch loop with and without pre-bound ops.
		fast.SetTraces(pi%2 == 0)
		load(t, fast, ramBase, p)
		load(t, slow, ramBase, p)
		batchLockstep(t, "batch", pi, fast, slow, fc, sc, isa.ExcEcallM, 0)
		irqs += fast.Reg(27)
		st := fast.FastPathStats()
		cutoffs += st.HorizonCutoffs
		hits += st.SBHits
		tcops += st.TCOps
		tcbail += st.TCBailouts
	}
	// The configuration must actually exercise the machinery it claims to.
	if irqs == 0 {
		t.Fatal("no interrupts were ever delivered")
	}
	if hits == 0 {
		t.Fatal("no superblock was ever dispatched")
	}
	if cutoffs == 0 {
		t.Fatal("no horizon cutoff was ever taken")
	}
	if tcops == 0 {
		t.Fatal("no instruction was ever retired by a pre-bound op")
	}
	if tcbail == 0 {
		t.Fatal("no pre-bound run ever bailed out to execute()")
	}
}

// TestLockstepFuzzBatchPerInstruction replays the same program class with a
// one-instruction batch budget: full architectural state is compared after
// every single instruction, through the same superblock dispatch path.
func TestLockstepFuzzBatchPerInstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0E4A_11CE))
	for pi := 0; pi < 10; pi++ {
		p := genBatchProgram(t, rng)
		fast, slow, fc, sc := newBatchPair(t)
		// A one-instruction budget clamps every block to one instruction;
		// alternating the trace tier pins a lone pre-bound op against a
		// lone execute() on the same dispatch route.
		fast.SetTraces(pi%2 == 0)
		load(t, fast, ramBase, p)
		load(t, slow, ramBase, p)
		batchLockstep(t, "perinst", pi, fast, slow, fc, sc, isa.ExcEcallM, 1)
	}
}

// TestBatchTimerAtHorizonEdge sweeps an absolute deadline across a long
// straight-line block so that some runs land the timer exactly inside the
// block's worst-case window (forcing the horizon cutoff) and others at its
// edges. Every placement must deliver the interrupt at the same boundary
// as per-step execution.
func TestBatchTimerAtHorizonEdge(t *testing.T) {
	var cutoffs, irqs uint64
	for dl := uint64(1); dl < 800; dl += 7 {
		p := asm.New(ramBase)
		emitIRQProlog(p)
		for i := 0; i < 60; i++ {
			p.ADDI(5, 5, 1)
		}
		p.ECALL()
		fast, slow, fc, sc := newBatchPair(t)
		load(t, fast, ramBase, p)
		load(t, slow, ramBase, p)
		fc.mtimecmp, fc.armed = dl, true
		sc.mtimecmp, sc.armed = dl, true
		batchLockstep(t, "edge", int(dl), fast, slow, fc, sc, isa.ExcEcallM, 0)
		irqs += fast.Reg(27)
		cutoffs += fast.FastPathStats().HorizonCutoffs
	}
	if irqs == 0 {
		t.Fatal("sweep never delivered a timer interrupt")
	}
	if cutoffs == 0 {
		t.Fatal("sweep never landed a deadline inside a block's horizon")
	}
}

// TestBatchSMCInsideExecutingSuperblock is the directed self-modifying-code
// case: a straight-line block overwrites one of its own later instructions
// while the block is executing. The store must kill the decoded block
// mid-dispatch so the new encoding (x5 += 2, not the original += 1) runs.
func TestBatchSMCInsideExecutingSuperblock(t *testing.T) {
	addi2 := instrWord(t, func(q *asm.Program) { q.ADDI(5, 5, 2) })
	p := asm.New(ramBase)
	p.LI(5, 0)
	emitSMCStore(p, addi2, "victim")
	for i := 0; i < 8; i++ {
		p.NOP()
	}
	p.Label("victim")
	p.ADDI(5, 5, 1) // overwritten before it is reached
	p.ECALL()

	fast, slow, fc, sc := newBatchPair(t)
	load(t, fast, ramBase, p)
	load(t, slow, ramBase, p)
	batchLockstep(t, "smc", 0, fast, slow, fc, sc, isa.ExcEcallM, 0)
	if got := fast.Reg(5); got != 2 {
		t.Fatalf("x5 = %d, want 2 (stale decoded block executed)", got)
	}
	if st := fast.FastPathStats(); st.BlockInvals == 0 {
		t.Fatalf("no decoded-page invalidation recorded: %+v", st)
	}
}

// FuzzLockstep runs fuzzer-chosen instruction words from the first page
// of RAM, in M-mode with PMP open, on two harts: one through Run on the
// default (compiled-trace) tier, the other through Step alone with the
// fast path detached. At every event, and when the step budget runs out,
// both harts must pass sameEvent and sameState with accounting. A run
// stops at its first trap or after fuzzSteps instructions. The seed corpus
// under testdata/fuzz/FuzzLockstep holds the ISA conformance programs.
func FuzzLockstep(f *testing.F) {
	const fuzzSteps = 4096
	f.Fuzz(func(t *testing.T, code []byte) {
		code = code[:min(len(code), isa.PageSize)&^3]
		fast, slow := newLockstepPair(t)
		for _, h := range []*Hart{fast, slow} {
			openPMP(t, h)
			if err := h.Mem.Write(ramBase, code); err != nil {
				t.Fatal(err)
			}
			h.PC = ramBase
		}
		for steps := uint64(0); steps < fuzzSteps; {
			n, ev := fast.Run(noTimer{}, fuzzSteps-steps)
			es := catchUp(t, at{"fuzz", 0, steps}, n, ev, slow.Step)
			steps += n
			here := at{"fuzz", 0, steps}
			sameEvent(t, here, ev, es)
			sameState(t, here, fast, slow, true)
			if ev.Kind == EvTrap {
				return
			}
		}
	})
}
