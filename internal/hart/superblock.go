package hart

import (
	"zion/internal/isa"
	"zion/internal/ptw"
	"zion/internal/telemetry"
)

// Superblock engine: straight-line runs of decoded instructions dispatched
// without re-sampling the timer or PendingInterrupt between them, under an
// event-horizon proof that no per-instruction boundary check could have
// fired earlier.
//
// The proof, spelled out:
//
//  1. PendingInterrupt's inputs (mip, hvip, mie, hie, mideleg, hideleg,
//     mstatus, vsstatus, Mode) are constant across a straight-line run.
//     The only instructions that can change them — CSR accesses, ecall/
//     ebreak, sret/mret, wfi, fences of translation state — are classified
//     as block boundaries and can only appear as a run's final
//     instruction; a trapping instruction ends the run by returning its
//     event. Cross-hart mutations (IPIs, shootdowns) are deferred to
//     quantum barriers by the parallel engine, which the batch deadline
//     already encodes (Run merges the quantum edge into it).
//  2. The one same-hart loophole is a bus access: interpreted code storing
//     to its own CLINT can rearm mtimecmp or raise msip mid-run. Every bus
//     access bumps h.asyncGen (memaccess.go); only execute() reaches the
//     bus, so the dispatch loop re-checks it after each execute()
//     instruction and runBatch returns to Run when it moved, forcing a
//     fresh deadline sample.
//  3. The timer itself fires only when h.Cycles reaches the deadline.
//     sbWorst bounds the cycles every instruction of the run except the
//     last can consume; per-step engines check the deadline before each
//     instruction, so if Cycles+sbWorst < deadline at entry, every one of
//     those hoisted checks would have passed. The run's final instruction
//     may overshoot the deadline — exactly as a single instruction may
//     under per-step execution — and the outer loop catches that at the
//     next boundary. When the bound crosses the deadline the entry is
//     degraded to single-step pacing (HorizonCutoffs) instead.
//
// Bit-identity with per-instruction execution is preserved the way the
// whole fast path preserves it: execute() and the pre-bound ops run the
// same opTable handlers, and the dispatch loop replays the exact per-fetch
// accounting (TLB tick/LRU/hits, TLBHit cycles, PMP check count) the
// slow path would have produced. Blocks never span a page, so the fetch
// micro-TLB entry that admitted the block — whole-page exec permission,
// whole-page PMP verdict, stable translation epochs — is the page-span/
// perm summary for every instruction in it.

// sbMaxWalkSteps bounds the PTE fetches of one translation, including a
// full two-stage walk where every stage-1 step needs its own stage-2
// resolution (3 levels × (3+1) plus the final stage-2 walk is well under
// 20); 64 is deliberately loose — an over-estimate only costs horizon
// headroom, never correctness.
const sbMaxWalkSteps = 64

// sbWorstCycles returns the worst-case simulated cycles one retired
// (non-trapping) mid-block instruction can charge. Trap paths need no
// bound: a trap ends the block, so no hoisted boundary check follows it.
func sbWorstCycles(c *Costs, op isa.Op) uint64 {
	// One data access, worst case: TLB hit cycles or a full walk, plus the
	// memory cost (the fast path charges TLBHit+Mem; the slow path charges
	// one of TLBHit or Steps*WalkStep, plus Mem).
	mem := c.TLBHit + sbMaxWalkSteps*c.WalkStep + c.Mem
	switch cls := opTable[op].cls; cls {
	case clsBranch:
		return c.Base + c.Branch
	case clsLoad, clsStore, clsLRSC:
		return c.retire(cls) + mem
	case clsAMO:
		return c.retire(cls) + 2*mem
	default:
		return c.retire(cls)
	}
}

// runBatch executes up to max Step-equivalents back-to-back and is the
// fast path's only entry (Run calls it). The outer loop preserves the
// per-boundary contract of the per-step loop — deadline check, MTIP
// cleared while the timer has not fired, interrupt sample — and the
// inner loop dispatches one superblock without them, justified by the
// event-horizon proof above. With superblocks disabled every block is one
// instruction long.
//
// The inner loop is the only dispatch loop. Each instruction of a block
// either starts a run of pre-bound ops (runOps, trace.go), when its slot
// has one and the trace tier is on, or retires through execute(), the one
// fallback. After an execute() instruction the loop re-checks the block's
// premises and goes back to pre-bound ops at the next slot that has one.
//
// It returns the number of Step-equivalents performed and, when ok is
// true, the terminating event (trap, WFI), which counts as the final
// step. ok=false means the batch stopped without an event: deadline
// reached, fast-path miss, budget exhausted, or a device access that may
// have rearmed the hart's own timer. Run then refreshes MTIP and takes
// one Step before the next batch.
func (e *fastPath) runBatch(h *Hart, deadline uint64, armed bool, max uint64) (uint64, Event, bool) {
	var n uint64
	for n < max {
		if armed && h.Cycles >= deadline {
			return n, Event{}, false
		}
		h.ClearPending(isa.IntMTimer)
		if cause, ok := h.PendingInterrupt(); ok {
			return n + 1, Event{Kind: EvTrap, Trap: h.TakeTrap(trapInfo{cause: cause})}, true
		}

		pc := h.PC
		if pc&3 != 0 {
			return n, Event{}, false // misaligned PC: slow path owns the fault
		}
		vaPage := pc >> isa.PageShift
		ent := &e.fetch[vaPage&mtlbMask]
		if ep := h.epochs(); !ent.valid(vaPage, &ep) {
			e.stats.FetchMisses++
			if !e.fill(h, ent, pc&^uint64(isa.PageSize-1), ptw.AccessFetch) {
				return n, Event{}, false
			}
		}
		dp := ent.dp
		if dp == nil || !dp.live.Load() {
			e.mu.Lock()
			if e.blacklist[ent.paPage] {
				e.mu.Unlock()
				return n, Event{}, false // write-hot page: decode per fetch instead
			}
			dp = e.decodePageLocked(h.Cost, ent.paPage, ent.page)
			e.mu.Unlock()
			ent.dp = dp
		}

		idx := (pc & (isa.PageSize - 1)) >> 2
		blen := uint64(1)
		// ops is the page's slot array when the trace tier is on, nil
		// otherwise: nil sends every instruction through execute() without
		// a per-instruction check for a pre-bound op.
		var ops *[tracePageSlots]traceOp
		if e.sb {
			blen = uint64(dp.sbLen[idx])
			if armed && h.Cycles+dp.sbWorst[idx] >= deadline {
				// Event horizon: a boundary check inside the run could
				// have fired. Pace against the deadline one instruction
				// at a time instead.
				e.stats.HorizonCutoffs++
				blen = 1
			}
			if rem := max - n; blen > rem {
				blen = rem
			}
			if blen > 1 {
				e.stats.SBHits++
			}
			if e.tc {
				ops = &dp.ops
			}
		}

		bare := ent.bare
		tgen := ent.ep.tlb
		g0 := h.asyncGen
		want := pc
		var i, traced uint64
		for i < blen {
			if ops != nil && ops[idx+i].oi != nil {
				// Pre-bound ops never touch the bus, the TLB or this
				// decoded page, so the block's premises still hold when
				// they stop; a side exit (taken branch/jump) ends the run.
				k := e.runOps(h, dp, idx+i, blen-i, ent)
				i += k
				traced += k
				if want += 4 * k; h.PC != want || i == blen {
					break
				}
			}
			// Per-fetch accounting: what the slow path's Fetch charges.
			e.hitAccounting(h, ent, 1)
			if h.Prof != nil && h.Cycles >= h.Prof.Next {
				tier := telemetry.ProfTierFast
				if e.sb {
					tier = telemetry.ProfTierBlock
				}
				h.Prof.Sample(want, h.Mode.String(), tier, h.Cycles)
			}
			want += 4
			ev := h.execute(&dp.ops[idx+i].in)
			i++
			if ev.Kind != EvNone {
				e.stats.FetchHits += i
				return n + i, ev, true
			}
			if h.PC != want || i == blen {
				break // side exit (the instruction retired, then left the line) or block end
			}
			// Premise re-checks before the block goes on: a device access
			// may have changed asynchronous-event state, a store may have
			// invalidated this decoded page (self-modifying code inside the
			// executing block), and a data-side walk may have inserted
			// into — and thereby evicted from — the TLB, changing fetch
			// accounting.
			if h.asyncGen != g0 || !dp.live.Load() || !bare && h.TLB.Gen() != tgen {
				break
			}
		}
		if e.sbHist != nil && i > traced {
			e.sbLen.Observe(i - traced)
		}
		e.stats.FetchHits += i
		n += i
		if h.asyncGen != g0 {
			// The run touched a device: mtimecmp or pending state may have
			// changed, so the caller's deadline is stale. Hand control
			// back for a fresh timer sample.
			return n, Event{}, false
		}
	}
	return n, Event{}, false
}
