package hart

import (
	"time"

	"zion/internal/isa"
	"zion/internal/telemetry"
)

// Trace-compilation tier: the fourth execution engine. Where the
// superblock loop (superblock.go) funnels every instruction of a
// straight-line run through execute() — re-deriving the op's class and
// cycle cost and re-checking the run's dispatch premises per instruction —
// this tier binds each decoded page once into a table of pre-bound
// operations: the op's opTable entry plus its retire cost, pre-summed.
// The handlers are opTable's, the same ones execute() runs, so the tiers
// share one definition of every instruction's semantics.
//
// Why the generic loop's per-instruction premise re-checks may be skipped,
// and one translation-context snapshot taken at trace entry validates
// every data slot of the trace: a traced op never touches the bus (data
// slots only fill for RAM pages, so asyncGen is stable and mtimecmp/msip
// cannot be rearmed mid-trace), never inserts into or flushes the TLB
// (slot refills translate via TLB.Peek), never writes a CSR or PMP
// register, never changes privilege, and never stores into a registered
// code page (the store path refuses those, so the decoded page stays
// live). Every op that could — CSR access, sfence/hfence, AMO/LR/SC,
// ecall/ebreak/xRET, wfi, anything that can trap — has no handler and no
// memory path, and stops the trace before it.
//
// Any operation that cannot complete under those rules stops the trace
// WITHOUT retiring — no cycles, no Instret, no stats — and dispatch falls
// through to the superblock generic loop, which re-checks its premises
// per instruction and runs execute(), so every hard case (traps, MMIO,
// page-straddling access, SMC store, CSR side effects) takes the path the
// other tiers take.
//
// The event-horizon interrupt proof carries over unchanged: runTrace is
// only entered for a superblock that already passed the
// Cycles+sbWorst < deadline check, it charges exactly the cycles the
// generic loop would, and it dispatches at most the same run.
//
// Dispatch is allocation-free after warm-up: compilation allocates the
// per-page table once, and the dispatch loop itself performs no
// allocation (TestTraceDispatchAllocs pins this to 0 allocs/op).

// tcDemoteThreshold is the per-page invalidation count at which trace
// compilation is demoted: a page invalidated this often (SMC or code/data
// sharing) stops being trace-compiled — recompiling a 1024-slot table per
// store would be a recompile storm — while decode and superblock dispatch
// continue until the 16-invalidation blacklist retires the page from
// block caching entirely. Demotion is sticky per decoded-page build: the
// compile attempt marks the page tcReady with a nil table, so the hot
// dispatch path never consults the invalidation map.
const tcDemoteThreshold = 4

const tracePageSlots = isa.PageSize / 4

// traceOp is one compiled slot: the op's opTable entry and its full
// retire cost pre-summed (Cost.retire of its class, plus Mem for loads and
// stores); taken branches add Cost.Branch at run time, exactly as
// execute() does. A nil entry marks an op execute() owns alone.
type traceOp struct {
	oi   *opInfo
	cost uint64
}

// SetTraces toggles the trace-compilation tier on an attached engine
// (no-op when the fast path is disabled). Compiled tables stay cached and
// are simply ignored while off.
func (h *Hart) SetTraces(on bool) {
	if h.fp != nil {
		h.fp.tc = on
	}
}

// SetDispatchHists attaches per-tier dispatch-length histograms: every
// superblock entry records how many instructions the generic loop retired
// and how many the compiled trace retired. Both sites are nil-guarded, so
// the unarmed cost is one pointer test per block entry — the PR 2
// zero-overhead-when-disabled contract. Recording goes to single-writer
// plain counters; call FlushDispatchHists to publish them into the
// attached histograms.
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

// DispatchHists returns the histograms attached by SetDispatchHists
// (nil, nil when disabled or the fast path is off).
func (h *Hart) DispatchHists() (block, trace *telemetry.Histogram) {
	if h.fp == nil {
		return nil, nil
	}
	return h.fp.sbHist, h.fp.tcHist
}

// compileTraces builds the pre-bound operation table for a decoded page,
// or demotes the page (tcReady with a nil table) when its invalidation
// history says compilation would thrash. Called once per decodedPage on
// the owning hart's goroutine; the registry maps are shared with peer
// invalidations, so they are read under the lock.
func (e *fastPath) compileTraces(h *Hart, dp *decodedPage, paPage uint64) {
	e.mu.Lock()
	demoted := e.blacklist[paPage] || e.invCount[paPage] >= tcDemoteThreshold
	recompile := e.invCount[paPage] > 0
	e.mu.Unlock()
	if demoted {
		e.stats.TCDemotions++
		dp.tcReady.Store(true) // nil table: page stays on the generic loop
		return
	}
	tops := new([tracePageSlots]traceOp)
	c := h.Cost
	for i := range dp.insts {
		compileTraceOp(c, dp.insts[i].Op, &tops[i])
	}
	dp.tcOps = tops // published before tcReady flips (atomic release)
	dp.tcReady.Store(true)
	e.stats.TCCompiles++
	if recompile {
		e.stats.TCRecompiles++
	}
}

// TraceCompileCost microbenchmarks trace-table compilation: the host
// nanoseconds to compile one full decoded page (tracePageSlots slots,
// table allocation included) of a representative instruction mix. The
// bench harness divides this by the measured per-instruction saving of
// the trace tier over the superblock engine to derive the break-even
// dispatch count recorded in BENCH_host.json.
func TraceCompileCost(iters int) float64 {
	if iters < 1 {
		iters = 1
	}
	var dp decodedPage
	mix := []isa.Inst{
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.OpLD, Rd: 6, Rs1: 2, Imm: 16},
		{Op: isa.OpSD, Rs1: 2, Rs2: 6, Imm: 24},
		{Op: isa.OpMUL, Rd: 7, Rs1: 5, Rs2: 6},
		{Op: isa.OpXOR, Rd: 8, Rs1: 7, Rs2: 5},
		{Op: isa.OpBNE, Rs1: 5, Rs2: 0, Imm: -20},
	}
	for i := range dp.insts {
		dp.insts[i] = mix[i%len(mix)]
	}
	c := DefaultCosts()
	t0 := time.Now()
	for n := 0; n < iters; n++ {
		tops := new([tracePageSlots]traceOp)
		for i := range dp.insts {
			compileTraceOp(c, dp.insts[i].Op, &tops[i])
		}
		traceCompileSink = tops
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

// traceCompileSink keeps the compiler from eliding the microbenchmark body.
var traceCompileSink *[tracePageSlots]traceOp

// compileTraceOp binds one decoded op to its slot: register/PC-only ops
// and plain loads and stores get their opTable entry; everything else is
// left nil and owned by the generic superblock loop.
func compileTraceOp(c *Costs, op isa.Op, t *traceOp) {
	oi := &opTable[op]
	switch {
	case oi.fn != nil:
		*t = traceOp{oi: oi, cost: c.retire(oi.cls)}
	case oi.cls == clsLoad || oi.cls == clsStore:
		*t = traceOp{oi: oi, cost: c.retire(oi.cls) + c.Mem}
	default:
		*t = traceOp{}
	}
}

// runTrace dispatches up to blen pre-bound operations of page dp starting
// at slot idx, fetched through the micro-TLB entry fetch. It returns how
// many instructions retired; the caller detects a side exit (taken
// branch/jump) by comparing h.PC against the straight line, exactly as the
// generic loop does. A stop (op without a slot, unfillable data slot,
// MMIO, code-page store) leaves the stopping instruction unretired for
// the generic loop to execute.
//
// Each op retires the way the outer engines charge around execute():
// fetch accounting against the page's fetch entry, the profiler hook at
// the same cycle point the per-step engines sample it, then Instret and
// the pre-summed cost. A load or store resolves its data slot before
// that, so a stop leaves nothing retired, and replays the data-side hit
// after it, so the TLB's tick/LRU sequence — fetch entry touched, then
// data entry — matches the other tiers bit for bit.
func (e *fastPath) runTrace(h *Hart, dp *decodedPage, idx, blen, pc uint64, fetch *mtlbEntry) uint64 {
	e.stats.TCEntries++
	// Traced ops cannot move the translation context (see the package
	// comment), so one snapshot validates every data slot of the trace.
	ep := h.epochs()
	tops := dp.tcOps
	want := pc
	var i uint64
	for ; i < blen; i++ {
		op := &tops[idx+i]
		oi := op.oi
		if oi == nil {
			break
		}
		in := &dp.insts[idx+i]
		var data *mtlbEntry
		var p []byte
		if oi.fn == nil {
			data, p = e.slot(h, &ep, h.X[in.Rs1]+uint64(in.Imm), int(oi.width), oi.cls == clsStore)
			if p == nil {
				e.stats.TCBailouts++
				break
			}
		}
		e.hitAccounting(h, fetch)
		if h.Prof != nil && h.Cycles >= h.Prof.Next {
			h.Prof.Sample(want, h.Mode.String(), telemetry.ProfTierTrace, h.Cycles)
		}
		h.Instret++
		h.Cycles += op.cost
		switch {
		case oi.fn == nil:
			e.hitAccounting(h, data)
			if oi.cls == clsStore {
				e.stats.WriteHits++
				storeLE(p, int(oi.width), h.X[in.Rs2])
			} else {
				e.stats.ReadHits++
				h.SetReg(in.Rd, oi.value(loadLE(p, int(oi.width))))
			}
			h.PC += 4
		case oi.fn(h, in):
			h.Cycles += h.Cost.Branch
		default:
			h.PC += 4
		}
		want += 4
		if h.PC != want {
			i++ // side exit: the op retired, then left the line
			break
		}
	}
	e.stats.TCOps += i
	return i
}
