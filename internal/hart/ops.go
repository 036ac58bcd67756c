package hart

import (
	"encoding/binary"
	"math/bits"

	"zion/internal/isa"
)

// opTable is the one definition of RV64 instruction semantics. Every
// execution tier reads it: execute() (slow, fast and block tiers) runs the
// handlers and charges the classes, the trace compiler binds them into
// per-page tables, and the superblock builder derives block boundaries and
// worst-case cycle bounds from it. An entry carries either a handler (ops
// that only read and write registers and PC) or, for plain loads and
// stores, the access width and sign-extension flag. Ops with neither —
// LR/SC, AMOs, CSR access, traps, xRET, wfi, fences of translation state,
// invalid encodings — can trap or touch privileged state, and execute()
// owns them alone.
var opTable = [...]opInfo{
	isa.OpInvalid: {cls: clsSystem, ends: true},

	isa.OpLUI:   {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, uint64(in.Imm)) }},
	isa.OpAUIPC: {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.PC+uint64(in.Imm)) }},
	isa.OpJAL: {cls: clsBranch, ends: true, fn: func(h *Hart, in *isa.Inst) bool {
		h.SetReg(in.Rd, h.PC+4)
		h.PC += uint64(in.Imm)
		return true
	}},
	isa.OpJALR: {cls: clsBranch, ends: true, fn: func(h *Hart, in *isa.Inst) bool {
		t := (h.X[in.Rs1] + uint64(in.Imm)) &^ 1
		h.SetReg(in.Rd, h.PC+4)
		h.PC = t
		return true
	}},

	isa.OpBEQ:  {cls: clsBranch, fn: func(h *Hart, in *isa.Inst) bool { return h.branch(in, h.X[in.Rs1] == h.X[in.Rs2]) }},
	isa.OpBNE:  {cls: clsBranch, fn: func(h *Hart, in *isa.Inst) bool { return h.branch(in, h.X[in.Rs1] != h.X[in.Rs2]) }},
	isa.OpBLT:  {cls: clsBranch, fn: func(h *Hart, in *isa.Inst) bool { return h.branch(in, int64(h.X[in.Rs1]) < int64(h.X[in.Rs2])) }},
	isa.OpBGE:  {cls: clsBranch, fn: func(h *Hart, in *isa.Inst) bool { return h.branch(in, int64(h.X[in.Rs1]) >= int64(h.X[in.Rs2])) }},
	isa.OpBLTU: {cls: clsBranch, fn: func(h *Hart, in *isa.Inst) bool { return h.branch(in, h.X[in.Rs1] < h.X[in.Rs2]) }},
	isa.OpBGEU: {cls: clsBranch, fn: func(h *Hart, in *isa.Inst) bool { return h.branch(in, h.X[in.Rs1] >= h.X[in.Rs2]) }},

	isa.OpLB:  {cls: clsLoad, width: 1, signed: true},
	isa.OpLH:  {cls: clsLoad, width: 2, signed: true},
	isa.OpLW:  {cls: clsLoad, width: 4, signed: true},
	isa.OpLD:  {cls: clsLoad, width: 8},
	isa.OpLBU: {cls: clsLoad, width: 1},
	isa.OpLHU: {cls: clsLoad, width: 2},
	isa.OpLWU: {cls: clsLoad, width: 4},
	isa.OpSB:  {cls: clsStore, width: 1},
	isa.OpSH:  {cls: clsStore, width: 2},
	isa.OpSW:  {cls: clsStore, width: 4},
	isa.OpSD:  {cls: clsStore, width: 8},

	isa.OpADDI:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.X[in.Rs1]+uint64(in.Imm)) }},
	isa.OpSLTI:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, b2u(int64(h.X[in.Rs1]) < in.Imm)) }},
	isa.OpSLTIU: {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, b2u(h.X[in.Rs1] < uint64(in.Imm))) }},
	isa.OpXORI:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.X[in.Rs1]^uint64(in.Imm)) }},
	isa.OpORI:   {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.X[in.Rs1]|uint64(in.Imm)) }},
	isa.OpANDI:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.X[in.Rs1]&uint64(in.Imm)) }},
	isa.OpSLLI:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.X[in.Rs1]<<uint(in.Imm)) }},
	isa.OpSRLI:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.X[in.Rs1]>>uint(in.Imm)) }},
	isa.OpSRAI:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, uint64(int64(h.X[in.Rs1])>>uint(in.Imm))) }},

	isa.OpADD:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.X[in.Rs1]+h.X[in.Rs2]) }},
	isa.OpSUB:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.X[in.Rs1]-h.X[in.Rs2]) }},
	isa.OpSLL:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.X[in.Rs1]<<(h.X[in.Rs2]&63)) }},
	isa.OpSLT:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, b2u(int64(h.X[in.Rs1]) < int64(h.X[in.Rs2]))) }},
	isa.OpSLTU: {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, b2u(h.X[in.Rs1] < h.X[in.Rs2])) }},
	isa.OpXOR:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.X[in.Rs1]^h.X[in.Rs2]) }},
	isa.OpSRL:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.X[in.Rs1]>>(h.X[in.Rs2]&63)) }},
	isa.OpSRA:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, uint64(int64(h.X[in.Rs1])>>(h.X[in.Rs2]&63))) }},
	isa.OpOR:   {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.X[in.Rs1]|h.X[in.Rs2]) }},
	isa.OpAND:  {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.X[in.Rs1]&h.X[in.Rs2]) }},

	isa.OpADDIW: {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, sext32(uint32(h.X[in.Rs1])+uint32(in.Imm))) }},
	isa.OpSLLIW: {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, sext32(uint32(h.X[in.Rs1])<<uint(in.Imm&31))) }},
	isa.OpSRLIW: {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, sext32(uint32(h.X[in.Rs1])>>uint(in.Imm&31))) }},
	isa.OpSRAIW: {fn: func(h *Hart, in *isa.Inst) bool {
		return h.setRd(in, uint64(int64(int32(h.X[in.Rs1])>>uint(in.Imm&31))))
	}},
	isa.OpADDW: {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, sext32(uint32(h.X[in.Rs1])+uint32(h.X[in.Rs2]))) }},
	isa.OpSUBW: {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, sext32(uint32(h.X[in.Rs1])-uint32(h.X[in.Rs2]))) }},
	isa.OpSLLW: {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, sext32(uint32(h.X[in.Rs1])<<(h.X[in.Rs2]&31))) }},
	isa.OpSRLW: {fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, sext32(uint32(h.X[in.Rs1])>>(h.X[in.Rs2]&31))) }},
	isa.OpSRAW: {fn: func(h *Hart, in *isa.Inst) bool {
		return h.setRd(in, uint64(int64(int32(h.X[in.Rs1])>>(h.X[in.Rs2]&31))))
	}},

	isa.OpFENCE:  {cls: clsFence, fn: func(*Hart, *isa.Inst) bool { return false }},
	isa.OpFENCEI: {cls: clsFence, fn: func(*Hart, *isa.Inst) bool { return false }},

	isa.OpMUL:    {cls: clsMul, fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, h.X[in.Rs1]*h.X[in.Rs2]) }},
	isa.OpMULH:   {cls: clsMul, fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, mulh(int64(h.X[in.Rs1]), int64(h.X[in.Rs2]))) }},
	isa.OpMULHSU: {cls: clsMul, fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, mulhsu(int64(h.X[in.Rs1]), h.X[in.Rs2])) }},
	isa.OpMULHU:  {cls: clsMul, fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, mulhu(h.X[in.Rs1], h.X[in.Rs2])) }},
	isa.OpMULW:   {cls: clsMul, fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, sext32(uint32(h.X[in.Rs1])*uint32(h.X[in.Rs2]))) }},
	isa.OpDIV:    {cls: clsDiv, fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, divS(int64(h.X[in.Rs1]), int64(h.X[in.Rs2]))) }},
	isa.OpDIVU:   {cls: clsDiv, fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, divU(h.X[in.Rs1], h.X[in.Rs2])) }},
	isa.OpREM:    {cls: clsDiv, fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, remS(int64(h.X[in.Rs1]), int64(h.X[in.Rs2]))) }},
	isa.OpREMU:   {cls: clsDiv, fn: func(h *Hart, in *isa.Inst) bool { return h.setRd(in, remU(h.X[in.Rs1], h.X[in.Rs2])) }},
	isa.OpDIVW: {cls: clsDiv, fn: func(h *Hart, in *isa.Inst) bool {
		return h.setRd(in, sext32(uint32(divS(int64(int32(h.X[in.Rs1])), int64(int32(h.X[in.Rs2]))))))
	}},
	isa.OpDIVUW: {cls: clsDiv, fn: func(h *Hart, in *isa.Inst) bool {
		return h.setRd(in, sext32(uint32(divU(uint64(uint32(h.X[in.Rs1])), uint64(uint32(h.X[in.Rs2]))))))
	}},
	isa.OpREMW: {cls: clsDiv, fn: func(h *Hart, in *isa.Inst) bool {
		return h.setRd(in, sext32(uint32(remS(int64(int32(h.X[in.Rs1])), int64(int32(h.X[in.Rs2]))))))
	}},
	isa.OpREMUW: {cls: clsDiv, fn: func(h *Hart, in *isa.Inst) bool {
		return h.setRd(in, sext32(uint32(remU(uint64(uint32(h.X[in.Rs1])), uint64(uint32(h.X[in.Rs2]))))))
	}},

	isa.OpLRW:      {cls: clsLRSC, width: 4, signed: true},
	isa.OpSCW:      {cls: clsLRSC, width: 4},
	isa.OpLRD:      {cls: clsLRSC, width: 8},
	isa.OpSCD:      {cls: clsLRSC, width: 8},
	isa.OpAMOSWAPW: {cls: clsAMO, width: 4, signed: true},
	isa.OpAMOADDW:  {cls: clsAMO, width: 4, signed: true},
	isa.OpAMOXORW:  {cls: clsAMO, width: 4, signed: true},
	isa.OpAMOANDW:  {cls: clsAMO, width: 4, signed: true},
	isa.OpAMOORW:   {cls: clsAMO, width: 4, signed: true},
	isa.OpAMOSWAPD: {cls: clsAMO, width: 8},
	isa.OpAMOADDD:  {cls: clsAMO, width: 8},
	isa.OpAMOXORD:  {cls: clsAMO, width: 8},
	isa.OpAMOANDD:  {cls: clsAMO, width: 8},
	isa.OpAMOORD:   {cls: clsAMO, width: 8},

	isa.OpCSRRW:  {cls: clsCSR, ends: true},
	isa.OpCSRRS:  {cls: clsCSR, ends: true},
	isa.OpCSRRC:  {cls: clsCSR, ends: true},
	isa.OpCSRRWI: {cls: clsCSR, ends: true},
	isa.OpCSRRSI: {cls: clsCSR, ends: true},
	isa.OpCSRRCI: {cls: clsCSR, ends: true},

	isa.OpECALL:      {cls: clsSystem, ends: true},
	isa.OpEBREAK:     {cls: clsSystem, ends: true},
	isa.OpSRET:       {cls: clsSystem, ends: true},
	isa.OpMRET:       {cls: clsSystem, ends: true},
	isa.OpWFI:        {cls: clsSystem, ends: true},
	isa.OpSFENCEVMA:  {cls: clsSystem, ends: true},
	isa.OpHFENCEVVMA: {cls: clsSystem, ends: true},
	isa.OpHFENCEGVMA: {cls: clsSystem, ends: true},
}

// opInfo is one opTable entry.
type opInfo struct {
	// fn is the handler of a register/PC-only op; nil for every op that
	// reaches memory, can trap, or touches privileged state.
	fn  opFn
	cls opClass
	// ends marks the ops that terminate a superblock: every op after
	// which a per-step engine could observe changed interrupt, translation
	// or privilege state, plus the jumps, which always leave the line.
	ends bool
	// width is the data access size in bytes (loads, stores, LR/SC and
	// AMOs); signed makes the loaded value sign-extend into rd.
	width  uint8
	signed bool
}

// opFn executes one register/PC-only instruction and reports whether it
// redirected PC (a taken branch or a jump). It does no accounting: the
// caller retires the op, charges Cost.Branch when it returns true, and
// otherwise advances PC past it.
type opFn func(h *Hart, in *isa.Inst) bool

// opClass is an op's cycle class.
type opClass uint8

const (
	clsBase   opClass = iota
	clsBranch         // +Branch when the transfer is taken (jumps always are)
	clsMul            // +Mul
	clsDiv            // +Div
	clsLoad           // +Mem, charged by the data access
	clsStore          // +Mem, charged by the data access
	clsFence          // +Fence
	clsLRSC           // Amo in place of Base, plus one data access
	clsAMO            // Amo in place of Base, plus a read and a write
	clsCSR            // +CSRAccess
	clsSystem         // traps, xRET, wfi, translation fences, invalid
)

// retire returns the cycles an op of class cls charges when it retires:
// everything except its data accesses (each charges Mem, plus TLB or walk
// cycles, itself), a taken transfer's Branch, and the TLB flush a fence of
// translation state or a satp write adds.
func (c *Costs) retire(cls opClass) uint64 {
	switch cls {
	case clsMul:
		return c.Base + c.Mul
	case clsDiv:
		return c.Base + c.Div
	case clsFence:
		return c.Base + c.Fence
	case clsLRSC, clsAMO:
		return c.Amo
	case clsCSR:
		return c.Base + c.CSRAccess
	}
	return c.Base
}

// setRd writes an op's result to rd and reports PC not redirected, so a
// handler that only computes a value is one return statement.
func (h *Hart) setRd(in *isa.Inst, v uint64) bool {
	h.SetReg(in.Rd, v)
	return false
}

// branch redirects PC by the branch offset when taken.
func (h *Hart) branch(in *isa.Inst, taken bool) bool {
	if taken {
		h.PC += uint64(in.Imm)
	}
	return taken
}

// value returns a loaded value as the op writes it to rd: the width-byte
// value, sign-extended when the op is signed.
func (oi *opInfo) value(v uint64) uint64 {
	if oi.signed {
		s := 64 - 8*uint(oi.width)
		return uint64(int64(v<<s) >> s)
	}
	return v
}

// loadLE reads a size-byte little-endian value from p.
func loadLE(p []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(p[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(p))
	case 4:
		return uint64(binary.LittleEndian.Uint32(p))
	}
	return binary.LittleEndian.Uint64(p)
}

// storeLE writes the low size bytes of v to p, little-endian.
func storeLE(p []byte, size int, v uint64) {
	switch size {
	case 1:
		p[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(p, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(p, uint32(v))
	default:
		binary.LittleEndian.PutUint64(p, v)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sext32(v uint32) uint64 { return uint64(int64(int32(v))) }

func mulhu(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	return hi
}

// mulh and mulhsu correct the unsigned high product for negative
// operands: as a signed value a is a - 2^64 when negative, which takes
// b from the high word (and symmetrically for b).
func mulh(a, b int64) uint64 {
	hi := mulhu(uint64(a), uint64(b))
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	return hi
}

func mulhsu(a int64, b uint64) uint64 {
	hi := mulhu(uint64(a), b)
	if a < 0 {
		hi -= b
	}
	return hi
}

func divS(a, b int64) uint64 {
	switch {
	case b == 0:
		return ^uint64(0)
	case a == -1<<63 && b == -1:
		return uint64(a)
	default:
		return uint64(a / b)
	}
}

func divU(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func remS(a, b int64) uint64 {
	switch {
	case b == 0:
		return uint64(a)
	case a == -1<<63 && b == -1:
		return 0
	default:
		return uint64(a % b)
	}
}

func remU(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}
