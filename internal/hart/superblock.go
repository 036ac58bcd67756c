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
//     last can consume when it retires through a pre-bound op: its fetch
//     (TLBHit), its retire cost, and for a memory op one data-side TLB hit
//     and Mem per access. A pre-bound op never walks — its slot refill only
//     Peeks the TLB, and a miss retires nothing and stops the run — so for
//     those ops the bound is exact. Per-step engines check the deadline
//     before each instruction, so if Cycles+sbWorst < deadline at entry,
//     every one of those hoisted checks would have passed. Only an
//     instruction that retires through execute() can charge more (a page
//     walk), so after each one the loop re-checks Cycles+sbWorst of the
//     rest of the run against the deadline and returns to the outer loop
//     when it crosses; by induction every hoisted check still holds. (A
//     walk also inserts into the TLB, so today the TLB-generation premise
//     re-check sends it back to the outer loop too; the horizon re-check
//     keeps this argument from depending on that.) The
//     run's final instruction may overshoot the deadline — exactly as a
//     single instruction may under per-step execution — and the outer
//     loop catches that at the next boundary. When the bound crosses the
//     deadline at entry, the entry is degraded to single-step pacing
//     (HorizonCutoffs) instead.
//  4. A side exit of a run of pre-bound ops (taken branch, JAL, JALR) may
//     continue at its target without returning to the outer loop
//     (Chains). The outer loop's boundary work cannot answer differently
//     there: pre-bound ops leave PendingInterrupt's inputs, MTIP, the
//     bus, the TLB and the translation epochs alone, so the interrupt
//     sample, the MTIP clear and the fetch entry's validity still stand.
//     What remains is checked at the chain: the target is 4-byte aligned,
//     on the same page (the same fetch entry and decoded page), its slot
//     has a pre-bound op, Cycles+sbWorst of its run is below the deadline
//     (so the deadline check, and every hoisted check of that run, passes
//     as in point 3), Step budget remains, and the page is still live (a
//     peer hart's store may have invalidated it; the outer loop would
//     notice at the next block entry, and so does the chain).
//
// Bit-identity with per-instruction execution is preserved the way the
// whole fast path preserves it: execute() and the pre-bound ops run the
// same opTable handlers, and the dispatch loop replays the exact per-fetch
// accounting (TLB tick/LRU/hits, TLBHit cycles, PMP check count) the
// slow path would have produced. Blocks never span a page, so the fetch
// micro-TLB entry that admitted the block — whole-page exec permission,
// whole-page PMP verdict, stable translation epochs — is the page-span/
// perm summary for every instruction in it.

// sbWorstCycles returns the worst-case simulated cycles one mid-block
// instruction can charge when it retires through a pre-bound op. Trap paths
// need no bound: a trap ends the block, so no hoisted boundary check
// follows it. An instruction that retires through execute() may charge
// more (a page walk); the dispatch loop re-checks the horizon after each
// one (point 3 above). Every instruction's fetch may charge TLBHit (under
// translation); a memory op adds one data-side TLB hit and Mem per access
// it makes.
func sbWorstCycles(c *Costs, op isa.Op) uint64 {
	mem := c.TLBHit + c.Mem
	fetch := c.TLBHit
	switch cls := opTable[op].cls; cls {
	case clsBranch:
		return fetch + c.Base + c.Branch
	case clsLoad, clsStore, clsLRSC:
		return fetch + c.retire(cls) + mem
	case clsAMO:
		return fetch + c.retire(cls) + 2*mem
	default:
		return fetch + c.retire(cls)
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
// premises and the horizon and goes back to pre-bound ops at the next slot
// that has one. A run's side exit to a same-page target chains to the
// block there (point 4) instead of returning to the outer loop.
//
// A fetch the micro-TLB cannot fill (after a world switch's TLB flush,
// the first fetch of every run) is answered by the reference Step in
// place: at that boundary the deadline has not been reached and MTIP is
// clear, exactly what Run's timer refresh would leave, so the batch goes
// on unless the step trapped or touched a device.
//
// It returns the number of Step-equivalents performed and, when ok is
// true, the terminating event (trap, WFI), which counts as the final
// step. ok=false means the batch stopped without an event: deadline
// reached, a misaligned PC or write-hot page, budget exhausted, or a
// device access that may have rearmed the hart's own timer. Run then
// refreshes MTIP and takes one Step before the next batch.
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
				// The reference Step answers the fetch here (see above).
				// After a TLB flush its walk is what lets the next fill
				// succeed.
				g0 := h.asyncGen
				n++
				if ev := h.Step(); ev.Kind != EvNone {
					return n, ev, true
				}
				if h.asyncGen != g0 {
					return n, Event{}, false // a device access: fresh timer sample
				}
				continue
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
				// they stop.
				k := e.runOps(h, dp, idx+i, blen-i, ent)
				i += k
				traced += k
				if want += 4 * k; h.PC != want {
					// A side exit (taken branch/jump) chains to the block
					// at its target (point 4 above) or ends the dispatch.
					t := (h.PC & (isa.PageSize - 1)) >> 2
					if n+i >= max || h.PC&3 != 0 || h.PC>>isa.PageShift != vaPage ||
						ops[t].oi == nil || armed && h.Cycles+dp.sbWorst[t] >= deadline || !dp.live.Load() {
						break
					}
					if e.sbHist != nil && i > traced {
						e.sbLen.Observe(i - traced)
					}
					e.stats.FetchHits += i
					n += i
					e.stats.Chains++
					idx, i, traced, want = t, 0, 0, h.PC
					if blen = min(uint64(dp.sbLen[idx]), max-n); blen > 1 {
						e.stats.SBHits++
					}
					continue
				}
				if i == blen {
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
			// executing block), a data-side walk may have inserted into —
			// and thereby evicted from — the TLB, changing fetch
			// accounting, and the instruction may have charged more than
			// its share of sbWorst (a walk), so the rest of the run must
			// still end before the deadline.
			if h.asyncGen != g0 || !dp.live.Load() || !bare && h.TLB.Gen() != tgen ||
				armed && h.Cycles+dp.sbWorst[idx+i] >= deadline {
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
