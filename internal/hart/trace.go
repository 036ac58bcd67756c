package hart

import (
	"time"

	"zion/internal/isa"
	"zion/internal/telemetry"
)

// Pre-bound ops: the compiled-trace tier. A decoded page is one array of
// slots, one per instruction word. decodePageLocked fills every slot once
// with the decoded instruction and, for the ops this tier runs, their
// opTable entry and retire cost, pre-summed. execute() reads the same
// slot's instruction, so the page holds each instruction once. The
// handlers are opTable's, the same ones execute() runs, so the tiers share
// one definition of every instruction's semantics.
//
// Why runOps dispatches through a switch rather than the table: an
// indirect call (oi.fn) cannot be inlined, and around every call Go's
// register ABI spills the loop's live state (i, pend, cyc, want, idx, ...)
// to the stack and reloads it. runOps' switch on the op has one case per
// handler op, each a direct call of the named handler opTable holds, which
// the compiler inlines; the default keeps the indirect call.
// TestPreboundDispatchCoversOpTable checks that the switch and the table
// name the same function for every op. The data-side hit check (slot) is
// inlined the same way; only a micro-TLB miss leaves the loop.
//
// Why a run of pre-bound ops may skip the premise re-checks, and one
// translation-context snapshot taken at its entry validates every data
// slot of the run: a pre-bound op never touches the bus (data slots only
// fill for RAM pages, so asyncGen is stable and mtimecmp/msip cannot be
// rearmed mid-run), never inserts into or flushes the TLB (slot refills
// translate via TLB.Peek), never writes a CSR or PMP register, never
// changes privilege, and never stores into a registered code page (the
// store path refuses those, so the decoded page stays live). Every op that
// could — CSR access, sfence/hfence, AMO/LR/SC, ecall/ebreak/xRET, wfi,
// anything that can trap — has no pre-bound op and retires through
// execute() instead.
//
// A pre-bound op that cannot complete under those rules (page-straddling
// access, unfillable data slot, MMIO, code-page store) stops the run
// WITHOUT retiring — no cycles, no Instret, no stats — and the dispatch
// loop (superblock.go) retires that instruction through execute(), so
// every hard case takes the path the other tiers take.
//
// The event-horizon interrupt proof (superblock.go) bounds pre-bound ops
// exactly: sbWorst charges each its fetch, its retire cost and one
// data-side TLB hit per access, and a pre-bound op never walks. A run of
// pre-bound ops only starts where Cycles+sbWorst < deadline held for the
// rest of its block — at the block's entry, at the chain that reached it,
// or at the horizon re-check after the execute() instruction before it —
// it charges exactly the cycles execute() would, and it never extends past
// the block. runOps stops at a side exit; the dispatch loop decides
// whether to chain to the target.
//
// Dispatch is allocation-free: the slots live inline in the decoded page,
// and runOps performs no allocation (TestTraceDispatchAllocs pins this to
// 0 allocs/op; BenchmarkRunOps times it per retired instruction).

const tracePageSlots = isa.PageSize / 4

// traceOp is one slot of a decoded page: the instruction, its opTable
// entry and its full retire cost pre-summed (Cost.retire of its class,
// plus Mem for loads and stores); taken branches add Cost.Branch at run
// time, exactly as execute() does. A nil entry marks an op execute() owns
// alone; the slot still holds the instruction execute() retires. A slot is
// 40 bytes: the 24-byte instruction, the entry pointer and the cost.
type traceOp struct {
	in   isa.Inst
	oi   *opInfo
	cost uint64
}

// SetTraces toggles the pre-bound ops on an attached engine (no-op when
// the fast path is disabled). Off, every instruction of a superblock
// retires through execute(); the pre-bound ops stay built and are simply
// ignored.
func (h *Hart) SetTraces(on bool) {
	if h.fp != nil {
		h.fp.tc = on
	}
}

// SetDispatchHists attaches per-tier dispatch-length histograms: every
// superblock entry records how many instructions retired through
// execute(), and every run of pre-bound ops how many it retired. Both
// sites are nil-guarded, so the unarmed cost is one pointer test per
// dispatch — zero overhead while the observability plane is dark.
// Recording goes to single-writer plain counters; call FlushDispatchHists
// to publish them into the attached histograms.
func (h *Hart) SetDispatchHists(block, trace *telemetry.Histogram) {
	if h.fp != nil {
		h.fp.sbHist, h.fp.tcHist = block, trace
	}
}

// FlushDispatchHists drains the dispatch-length distributions accumulated
// since the last flush into the histograms attached by SetDispatchHists.
// The shared atomic histograms are touched only here, never on the
// dispatch path.
func (h *Hart) FlushDispatchHists() {
	if h.fp == nil {
		return
	}
	h.fp.sbLen.Drain(h.fp.sbHist)
	h.fp.tcLen.Drain(h.fp.tcHist)
}

// TraceCompileCost microbenchmarks op binding: the host nanoseconds to
// write one full decoded page's slots (tracePageSlots of them, instruction
// and op, table allocation included) for a representative instruction
// mix. The bench harness divides this by the measured per-instruction
// saving of the trace tier over the superblock engine to derive the
// break-even dispatch count recorded in BENCH_host.json.
func TraceCompileCost(iters int) float64 {
	if iters < 1 {
		iters = 1
	}
	var insts [tracePageSlots]isa.Inst
	mix := []isa.Inst{
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.OpLD, Rd: 6, Rs1: 2, Imm: 16},
		{Op: isa.OpSD, Rs1: 2, Rs2: 6, Imm: 24},
		{Op: isa.OpMUL, Rd: 7, Rs1: 5, Rs2: 6},
		{Op: isa.OpXOR, Rd: 8, Rs1: 7, Rs2: 5},
		{Op: isa.OpBNE, Rs1: 5, Rs2: 0, Imm: -20},
	}
	for i := range insts {
		insts[i] = mix[i%len(mix)]
	}
	c := DefaultCosts()
	t0 := time.Now()
	for n := 0; n < iters; n++ {
		tops := new([tracePageSlots]traceOp)
		for i := range insts {
			bindOp(c, insts[i], &tops[i])
		}
		traceCompileSink = tops
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

// traceCompileSink keeps the compiler from eliding the microbenchmark body.
var traceCompileSink *[tracePageSlots]traceOp

// bindOp writes one decoded instruction into its slot: register/PC-only
// ops and plain loads and stores get their opTable entry; everything else
// is left without one and retires through execute().
func bindOp(c *Costs, in isa.Inst, t *traceOp) {
	oi := &opTable[in.Op]
	switch {
	case oi.fn != nil:
		*t = traceOp{in: in, oi: oi, cost: c.retire(oi.cls)}
	case oi.cls == clsLoad || oi.cls == clsStore:
		*t = traceOp{in: in, oi: oi, cost: c.retire(oi.cls) + c.Mem}
	default:
		*t = traceOp{in: in}
	}
}

// runOps retires up to n consecutive pre-bound ops of page dp starting at
// slot idx, the slot at h.PC, fetched through the micro-TLB entry fetch.
// It returns how many retired, stopping before a slot without a pre-bound
// op or an unresolvable data slot (TCBailouts), and after a side exit (taken
// branch/jump), which the caller detects by comparing h.PC against the
// straight line.
//
// Each op retires what the dispatch loop charges around execute(): a
// fetch hit against the page's fetch entry, Instret and the pre-summed
// cost. A load or store resolves its data slot first, so a stop leaves
// nothing retired, and replays its data-side hit after its fetch.
//
// The run credits that accounting in batches, not per op. Every op
// fetches through the same entry, so pend counts the fetch hits not yet
// credited and hitAccounting credits them in one step; cyc holds the
// op costs and Branch charges, and Instret and cyc land once at return.
// No pre-bound op reads Cycles, Instret or the TLB's tick (CSR reads
// retire through execute(), slot refills only Peek), so only two points
// of a run could see the difference, and the pending hits are credited
// before each:
//   - a data-side hit, so the TLB's tick/LRU sequence — fetch entry, then
//     data entry — matches the other tiers bit for bit;
//   - the armed profiler's Prof.Next check, so a sample lands at the same
//     cycle count the per-step engines sample at.
func (e *fastPath) runOps(h *Hart, dp *decodedPage, idx, n uint64, fetch *mtlbEntry) uint64 {
	// Pre-bound ops cannot move the translation context (see above), so
	// one snapshot validates every data slot of the run.
	ep := h.epochs()
	want := h.PC
	var i, pend, cyc uint64
	for ; i < n; i++ {
		op := &dp.ops[idx+i]
		oi := op.oi
		if oi == nil {
			break
		}
		in := &op.in
		var data *mtlbEntry
		var p []byte
		if oi.fn == nil {
			va, store := h.X[in.Rs1]+uint64(in.Imm), oi.cls == clsStore
			if data, p = e.slot(&ep, va, uint64(oi.width), store); p == nil {
				if data, p = e.slotMiss(h, &ep, va, uint64(oi.width), store); p == nil {
					e.stats.TCBailouts++
					break
				}
			}
		}
		pend++
		if h.Prof != nil {
			e.hitAccounting(h, fetch, pend)
			h.Cycles += cyc
			pend, cyc = 0, 0
			if h.Cycles >= h.Prof.Next {
				h.Prof.Sample(want, h.Mode.String(), telemetry.ProfTierTrace, h.Cycles)
			}
		}
		cyc += op.cost
		if oi.fn == nil {
			e.hitAccounting(h, fetch, pend)
			pend = 0
			e.hitAccounting(h, data, 1)
			if oi.cls == clsStore {
				e.stats.WriteHits++
				storeLE(p, int(oi.width), h.X[in.Rs2])
			} else {
				e.stats.ReadHits++
				h.SetReg(in.Rd, oi.value(loadLE(p, int(oi.width))))
			}
			h.PC += 4
		} else {
			// One case per handler op, each a direct call the compiler
			// inlines; the default is the table's indirect call, which an
			// op with a handler but no case would fall back to.
			var taken bool
			switch in.Op {
			case isa.OpLUI:
				taken = opLUI(h, in)
			case isa.OpAUIPC:
				taken = opAUIPC(h, in)
			case isa.OpJAL:
				taken = opJAL(h, in)
			case isa.OpJALR:
				taken = opJALR(h, in)
			case isa.OpBEQ:
				taken = opBEQ(h, in)
			case isa.OpBNE:
				taken = opBNE(h, in)
			case isa.OpBLT:
				taken = opBLT(h, in)
			case isa.OpBGE:
				taken = opBGE(h, in)
			case isa.OpBLTU:
				taken = opBLTU(h, in)
			case isa.OpBGEU:
				taken = opBGEU(h, in)
			case isa.OpADDI:
				taken = opADDI(h, in)
			case isa.OpSLTI:
				taken = opSLTI(h, in)
			case isa.OpSLTIU:
				taken = opSLTIU(h, in)
			case isa.OpXORI:
				taken = opXORI(h, in)
			case isa.OpORI:
				taken = opORI(h, in)
			case isa.OpANDI:
				taken = opANDI(h, in)
			case isa.OpSLLI:
				taken = opSLLI(h, in)
			case isa.OpSRLI:
				taken = opSRLI(h, in)
			case isa.OpSRAI:
				taken = opSRAI(h, in)
			case isa.OpADD:
				taken = opADD(h, in)
			case isa.OpSUB:
				taken = opSUB(h, in)
			case isa.OpSLL:
				taken = opSLL(h, in)
			case isa.OpSLT:
				taken = opSLT(h, in)
			case isa.OpSLTU:
				taken = opSLTU(h, in)
			case isa.OpXOR:
				taken = opXOR(h, in)
			case isa.OpSRL:
				taken = opSRL(h, in)
			case isa.OpSRA:
				taken = opSRA(h, in)
			case isa.OpOR:
				taken = opOR(h, in)
			case isa.OpAND:
				taken = opAND(h, in)
			case isa.OpADDIW:
				taken = opADDIW(h, in)
			case isa.OpSLLIW:
				taken = opSLLIW(h, in)
			case isa.OpSRLIW:
				taken = opSRLIW(h, in)
			case isa.OpSRAIW:
				taken = opSRAIW(h, in)
			case isa.OpADDW:
				taken = opADDW(h, in)
			case isa.OpSUBW:
				taken = opSUBW(h, in)
			case isa.OpSLLW:
				taken = opSLLW(h, in)
			case isa.OpSRLW:
				taken = opSRLW(h, in)
			case isa.OpSRAW:
				taken = opSRAW(h, in)
			case isa.OpFENCE:
				taken = opNop(h, in)
			case isa.OpFENCEI:
				taken = opNop(h, in)
			case isa.OpMUL:
				taken = opMUL(h, in)
			case isa.OpMULH:
				taken = opMULH(h, in)
			case isa.OpMULHSU:
				taken = opMULHSU(h, in)
			case isa.OpMULHU:
				taken = opMULHU(h, in)
			case isa.OpMULW:
				taken = opMULW(h, in)
			case isa.OpDIV:
				taken = opDIV(h, in)
			case isa.OpDIVU:
				taken = opDIVU(h, in)
			case isa.OpREM:
				taken = opREM(h, in)
			case isa.OpREMU:
				taken = opREMU(h, in)
			case isa.OpDIVW:
				taken = opDIVW(h, in)
			case isa.OpDIVUW:
				taken = opDIVUW(h, in)
			case isa.OpREMW:
				taken = opREMW(h, in)
			case isa.OpREMUW:
				taken = opREMUW(h, in)
			default:
				taken = oi.fn(h, in)
			}
			if taken {
				cyc += h.Cost.Branch
			} else {
				h.PC += 4
			}
		}
		want += 4
		if h.PC != want {
			i++ // side exit: the op retired, then left the line
			break
		}
	}
	e.hitAccounting(h, fetch, pend)
	h.Cycles += cyc
	h.Instret += i
	e.stats.TCOps += i
	if e.tcHist != nil && i > 0 {
		e.tcLen.Observe(i)
	}
	return i
}
