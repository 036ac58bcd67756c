package hart

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"zion/internal/isa"
	"zion/internal/mem"
	"zion/internal/pmp"
	"zion/internal/ptw"
	"zion/internal/telemetry"
)

const (
	mtlbSize = 64 // direct-mapped entries per access type
	mtlbMask = mtlbSize - 1
)

// mtlbEntry caches one page's fully resolved access verdict: the host
// slice backing the physical page, the TLB entry that justified the
// translation, and the epochs under which all of it was established. The
// entry is valid only while every epoch still matches — any architectural
// event that could change the outcome (TLB insert/flush, PMP reprogram,
// satp/mstatus write, privilege change) bumps an epoch and silently
// retires the entry.
type mtlbEntry struct {
	page   []byte // backing bytes of the physical page; nil = invalid
	vaPage uint64 // VA >> PageShift tag
	paPage uint64 // page-aligned physical address
	// ep is the translation context the entry was filled under. A bare
	// entry answers whatever ep.tlb says; slotMiss re-stamps it so the
	// inlined hit check, which compares ep whole, keeps taking it.
	ep     epochs
	bare   bool  // no TLB involved (M-mode, or S/U with satp=Bare)
	tlbIdx int32 // TLB entry TouchN credits hits to (bare=false)
	// Write entries: the code-page registry generation under which the
	// page was last seen not to be a code page (0 = not yet seen).
	memGen uint64
	// Fetch entries: decoded instructions for the page.
	dp *decodedPage
}

// decodedPage holds the eager decode of one physical page: the
// instructions, their superblock metadata and their pre-bound ops, all
// built in one pass by decodePageLocked and read-only afterwards. live
// flips to false when the underlying bytes change; every fetch revalidates
// it, so self-modifying code observes its own stores exactly like the
// slow path (which re-fetches every instruction). live is atomic because
// under the parallel engine the invalidating store may come from a peer
// hart's goroutine (mem watcher dispatch); the fast path is semantically
// transparent, so a cross-hart invalidation landing mid-quantum changes
// only host-side cache effectiveness, never simulated results.
type decodedPage struct {
	live atomic.Bool

	// Superblock metadata (superblock.go). For each slot i:
	//
	//	sbLen[i]   — number of instructions in the straight-line run
	//	             starting at i, up to and including the next
	//	             block-terminating boundary (control transfer that
	//	             always leaves the line, CSR access, privileged op,
	//	             invalid encoding) or the end of the page.
	//	sbWorst[i] — worst-case simulated cycles of that run excluding
	//	             its final instruction, with no page walk: the
	//	             cycles that can accrue before the last
	//	             per-instruction boundary check a per-step engine
	//	             would have performed, exact for pre-bound ops (an
	//	             execute() instruction that walks is re-checked).
	//
	// Conditional branches are NOT boundaries: they stay mid-line and the
	// dispatch loop detects a taken branch as a side exit (PC left the
	// straight line), so blocks survive the not-taken common case.
	sbLen   [isa.PageSize / 4]uint16
	sbWorst [isa.PageSize / 4]uint64

	// ops[i] is slot i (trace.go): the instruction and, unless only
	// execute() runs it, its pre-bound op.
	ops [tracePageSlots]traceOp
}

// FastPathStats counts engine effectiveness; exported as fp/* telemetry
// gauges by the bench harness. Pure host-side counters — they influence
// nothing in the simulation.
type FastPathStats struct {
	FetchHits   uint64 // instructions issued from a decoded page
	FetchMisses uint64 // fetch micro-TLB misses (entry invalid or absent)
	// Data misses and fills count a declined miss once per (page,
	// access, translation context): a repeat that slotMiss answers from
	// the entry's declined stamp is not counted again.
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	Fills       uint64 // micro-TLB fill attempts
	FillFails   uint64 // fills declined (TLB miss, PMP, MMIO, ...)
	BlockBuilds uint64 // pages decoded into the block cache
	BlockInvals uint64 // decoded pages dropped after a write hit them

	// Superblock dispatch (superblock.go).
	SBHits         uint64 // multi-instruction superblock entries dispatched
	HorizonCutoffs uint64 // block entries degraded to single-step because the worst-case cycle bound crossed the event horizon
	Chains         uint64 // side exits of pre-bound runs that went on at a same-page target without leaving the dispatch loop

	// Pre-bound ops (trace.go).
	TCOps      uint64 // instructions retired by pre-bound ops
	TCBailouts uint64 // pre-bound runs stopped at an unresolvable data slot
}

// fastPath is one hart's execution accelerator: three direct-mapped
// micro-TLBs (fetch/read/write) plus a decoded-instruction cache keyed by
// physical page. It never produces a result the slow path wouldn't: every
// cacheable case replays the exact counter mutations (TLB tick/LRU/hits,
// PMP checks, TLBHit/Mem cycles) the slow path performs, and everything
// else falls back.
type fastPath struct {
	mem   *mem.PhysMemory
	fetch [mtlbSize]mtlbEntry
	read  [mtlbSize]mtlbEntry
	write [mtlbSize]mtlbEntry

	// mu guards the decoded-page registry below: InvalidateCodePage may
	// be dispatched from a peer hart's goroutine (its store hit one of
	// our registered code pages), while the owner decodes and blacklists
	// on its own goroutine. The per-instruction hit path (micro-TLB entry
	// valid, decoded page live) never takes it.
	mu    sync.Mutex
	pages map[uint64]*decodedPage // pa page -> decoded
	// Pages invalidated blacklistThreshold times stop being block-cached:
	// every rebuild is a full decode, so code and hot data sharing a page
	// (or a self-modifying loop) would otherwise rebuild it per store.
	invCount  map[uint64]uint32
	blacklist map[uint64]bool
	stats     FastPathStats

	// sb dispatches whole superblocks instead of single instructions; tc
	// additionally runs their pre-bound ops instead of execute(). Both
	// start on; SetSuperblocks and SetTraces flip them for engine
	// comparisons.
	sb bool
	tc bool

	// Optional per-tier dispatch-length histograms (SetDispatchHists):
	// instructions retired through execute() per superblock entry, and per
	// run of pre-bound ops. Nil when the observability plane is dark. The
	// dispatch loop records into the plain single-writer locals — an armed
	// observation is a few non-atomic increments — and FlushDispatchHists
	// drains them into the shared atomic histograms; per-observation CAS
	// traffic on the hot loop would blow the plane's 3% overhead budget.
	sbHist *telemetry.Histogram
	tcHist *telemetry.Histogram
	sbLen  telemetry.LocalHist
	tcLen  telemetry.LocalHist
}

const blacklistThreshold = 16

func newFastPath(h *Hart) *fastPath {
	e := &fastPath{
		mem:       h.Mem,
		pages:     make(map[uint64]*decodedPage),
		invCount:  make(map[uint64]uint32),
		blacklist: make(map[uint64]bool),
		sb:        true,
		tc:        true,
	}
	h.Mem.AddCodeWatcher(e)
	return e
}

// DisableFastPath detaches the engine, dropping its caches and code-page
// registrations.
func (h *Hart) DisableFastPath() {
	if h.fp == nil {
		return
	}
	h.fp.mu.Lock()
	for pa, dp := range h.fp.pages {
		dp.live.Store(false)
		h.Mem.UnregisterCodePage(pa)
	}
	h.fp.mu.Unlock()
	h.Mem.RemoveCodeWatcher(h.fp)
	h.fp = nil
}

// SetSuperblocks toggles the superblock dispatch loop on an attached
// engine (no-op when the fast path is disabled). Turning it off degrades
// Run's batches to the per-instruction fast path; cached metadata stays
// valid and is simply ignored.
func (h *Hart) SetSuperblocks(on bool) {
	if h.fp != nil {
		h.fp.sb = on
	}
}

// FastPathStats returns the engine counters (zero value when disabled).
func (h *Hart) FastPathStats() FastPathStats {
	if h.fp == nil {
		return FastPathStats{}
	}
	h.fp.mu.Lock()
	defer h.fp.mu.Unlock()
	return h.fp.stats
}

// InvalidateCodePage implements mem.CodeWatcher: a write landed in a page
// this engine decoded. Under the parallel engine the writer may be a
// peer hart, so the registry mutations are lock-protected.
func (e *fastPath) InvalidateCodePage(paPage uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	dp, ok := e.pages[paPage]
	if !ok {
		return
	}
	dp.live.Store(false)
	delete(e.pages, paPage)
	e.mem.UnregisterCodePage(paPage)
	e.stats.BlockInvals++
	if c := e.invCount[paPage] + 1; c >= blacklistThreshold {
		e.blacklist[paPage] = true
	} else {
		e.invCount[paPage] = c
	}
}

// epochs is a translation context: the privilege mode plus the MMU, PMP
// and TLB generations micro-TLB entries are stamped with.
type epochs struct {
	mode          isa.PrivMode
	mmu, pmp, tlb uint64
}

// epochs returns the hart's current translation context.
func (h *Hart) epochs() epochs {
	return epochs{mode: h.Mode, mmu: h.mmuGen, pmp: h.PMP.Gen(), tlb: h.TLB.Gen()}
}

// valid reports whether ent still answers for vaPage under ep.
func (ent *mtlbEntry) valid(vaPage uint64, ep *epochs) bool {
	if ent.page == nil || ent.vaPage != vaPage || ent.ep.mode != ep.mode ||
		ent.ep.mmu != ep.mmu || ent.ep.pmp != ep.pmp {
		return false
	}
	return ent.bare || ent.ep.tlb == ep.tlb
}

// fill tries to establish a micro-TLB entry for the page-aligned va. It is
// side-effect-free on the architectural state: translation uses TLB.Peek
// (no stats, no LRU) and protection uses PMP.Probe (no stats), so a
// declined fill leaves everything exactly as the slow path expects to find
// it. A fill succeeds only when a later hit is provably bit-identical to
// slow-path execution: present TLB entry (or bare translation) whose
// cached permissions pass the same permsAllow the slow path applies, PMP
// allowing the access for the whole page within one entry, and the target
// page fully inside RAM.
//
// A fetch entry keeps its decoded page across the refill when the new
// translation lands on the same physical page: after a world switch's
// TLB flush the guest's code page is the one it left, and runBatch still
// checks the page is live before it dispatches from it. A declined fill
// keeps the page too, with the entry invalid (page nil), for the refill
// after the slow path's walk.
func (e *fastPath) fill(h *Hart, ent *mtlbEntry, va uint64, acc ptw.Access) bool {
	e.stats.Fills++
	*ent = mtlbEntry{paPage: ent.paPage, dp: ent.dp}
	bare := false
	tlbIdx := -1
	var pa uint64
	switch h.Mode {
	case isa.ModeM:
		bare, pa = true, va
	case isa.ModeS, isa.ModeU:
		satp := h.csr.raw(isa.CSRSatp)
		if satpRoot(satp) == 0 {
			bare, pa = true, va
		} else {
			opts := h.transOpts()
			opts.User = h.Mode == isa.ModeU
			asid := uint16(satp >> 44 & 0xFFFF)
			idx, ppn, perms, level, hit := h.TLB.Peek(va, asid, 0)
			if !hit || !permsAllow(perms, acc, opts) {
				e.stats.FillFails++
				return false
			}
			tlbIdx = idx
			pa = ppn<<uint(isa.PageShift+9*level) | va&pageMask(level)
		}
	default: // VS / VU
		vsatp := h.csr.raw(isa.CSRVsatp)
		if satpRoot(h.csr.raw(isa.CSRHgatp)) == 0 {
			// The slow path access-faults before any TLB lookup; never cache.
			e.stats.FillFails++
			return false
		}
		opts := h.transOpts()
		opts.User = h.Mode == isa.ModeVU
		if satpRoot(vsatp) == 0 {
			// Mirror Translate's Bare-stage-1 hit rule: no guest privilege
			// check, U pages reachable from both VS and VU.
			opts.User, opts.SUM = false, true
		}
		idx, ppn, perms, level, hit := h.TLB.Peek(va, uint16(vsatp>>44&0xFFFF), h.vmid())
		if !hit || !permsAllow(perms, acc, opts) {
			e.stats.FillFails++
			return false
		}
		tlbIdx = idx
		pa = ppn<<uint(isa.PageShift+9*level) | va&pageMask(level)
	}

	var pacc pmp.AccessType
	switch acc {
	case ptw.AccessRead:
		pacc = pmp.AccessRead
	case ptw.AccessWrite:
		pacc = pmp.AccessWrite
	default:
		pacc = pmp.AccessExec
	}
	// Probe the whole page: a pass means one PMP entry fully contains it,
	// so every sub-access resolves against that same entry with the same
	// verdict the slow path's per-access Check would produce.
	if !h.PMP.Probe(pa, isa.PageSize, pacc, h.Mode == isa.ModeM) {
		e.stats.FillFails++
		return false
	}
	if !h.Mem.Contains(pa, isa.PageSize) {
		e.stats.FillFails++ // MMIO or partial page: bus accesses stay slow
		return false
	}
	dp := ent.dp
	if ent.paPage != pa {
		dp = nil
	}
	*ent = mtlbEntry{
		page:   e.mem.PageSlice(pa),
		vaPage: va >> isa.PageShift,
		paPage: pa,
		ep:     h.epochs(),
		bare:   bare,
		tlbIdx: int32(tlbIdx),
		dp:     dp,
	}
	return true
}

// hitAccounting replays the slow path's state changes for n consecutive
// accesses through a validated entry: n TLB hits (tick, LRU, stats, TLBHit
// cycles) unless the translation was bare — the slow path consults no TLB
// then — and n PMP check counts. Crediting n hits at once leaves the same
// state as n single hits as long as no other TLB entry is touched between
// them; n == 0 changes nothing.
func (e *fastPath) hitAccounting(h *Hart, ent *mtlbEntry, n uint64) {
	if !ent.bare {
		h.TLB.TouchN(int(ent.tlbIdx), n)
		h.Cycles += n * h.Cost.TLBHit
	}
	h.PMP.NoteChecks(n)
}

// decodePageLocked returns the decoded page for a physical page, building
// it on first use and registering it for write-invalidation. One backward
// pass fills every slot: the instruction, its superblock run length and
// worst-case cycle bound (which read the following slot's), and its
// pre-bound op. The cost table is captured here; it is set once at hart
// construction and never mutated mid-run. Caller holds e.mu.
func (e *fastPath) decodePageLocked(c *Costs, paPage uint64, page []byte) *decodedPage {
	if dp, ok := e.pages[paPage]; ok {
		return dp
	}
	dp := &decodedPage{}
	dp.live.Store(true)
	last := len(dp.ops) - 1
	for i := last; i >= 0; i-- {
		bindOp(c, isa.Decode(binary.LittleEndian.Uint32(page[i*4:])), &dp.ops[i])
		op := dp.ops[i].in.Op
		if opTable[op].ends || i == last {
			dp.sbLen[i] = 1
			continue
		}
		dp.sbLen[i] = dp.sbLen[i+1] + 1
		// sbWorst excludes the run's final instruction: checks happen
		// before each instruction, so the last one's cycles land after
		// every hoisted check already passed.
		dp.sbWorst[i] = sbWorstCycles(c, op) + dp.sbWorst[i+1]
	}
	e.pages[paPage] = dp
	e.mem.RegisterCodePage(paPage)
	e.stats.BlockBuilds++
	return dp
}

// slot and slotMiss resolve the micro-TLB entry and host bytes for a
// size-byte data access at va under translation context ep without
// charging anything. slot is the hit check, small enough for the compiler
// to inline into runOps and access: it answers only from an entry that is
// already valid (for a store, also with a current non-code verdict) and
// returns nil otherwise. The caller then takes slotMiss, which decides
// the access in full. size must be 1, 2, 4 or 8. An empty entry (page nil)
// never matches: its ep.mmu is 0, and a hart's mmuGen starts at 1.
func (e *fastPath) slot(ep *epochs, va, size uint64, write bool) (*mtlbEntry, []byte) {
	off, vaPage := va&(isa.PageSize-1), va>>isa.PageShift
	ent := &e.read[vaPage&mtlbMask]
	if write {
		ent = &e.write[vaPage&mtlbMask]
	}
	if off+size > isa.PageSize || ent.ep != *ep || ent.vaPage != vaPage ||
		write && ent.memGen != e.mem.CodeGen() {
		return nil, nil
	}
	return ent, ent.page[off:]
}

// declinedTag marks a data entry whose fill was declined: the entry keeps
// page nil and is stamped with the declined page's vaPage|declinedTag and
// the context the fill ran under. No VA page number has the bit, so the
// stamp never passes slot's hit check.
const declinedTag = 1 << 63

// slotMiss is slot's out-of-line half. It returns nil when the access must
// take the slow path: a page-straddling access, a miss that can't fill, or
// a store into a decoded code page (the slow path's mem.WriteUint
// triggers the block invalidation those need). On a miss it counts the
// miss and fills the entry; for a store it refreshes the entry's cached
// code-page verdict.
//
// A declined fill is tried once. fill reads only the TLB, the PMP, the
// CSRs and the privilege mode, all covered by the context it ran under,
// so it answers the same until that context moves: a miss on a page
// whose entry carries the declined stamp for the current context goes to
// the slow path uncounted, without a second fill. Without it, one access
// that misses is declined twice, by the trace loop and again by
// execute's access.
func (e *fastPath) slotMiss(h *Hart, ep *epochs, va, size uint64, write bool) (*mtlbEntry, []byte) {
	off := va & (isa.PageSize - 1)
	if off+size > isa.PageSize {
		return nil, nil
	}
	vaPage := va >> isa.PageShift
	ent, acc := &e.read[vaPage&mtlbMask], ptw.AccessRead
	if write {
		ent, acc = &e.write[vaPage&mtlbMask], ptw.AccessWrite
	}
	if !ent.valid(vaPage, ep) {
		if ent.vaPage == vaPage|declinedTag && ent.ep == *ep {
			return nil, nil
		}
		if write {
			e.stats.WriteMisses++
		} else {
			e.stats.ReadMisses++
		}
		if !e.fill(h, ent, va&^uint64(isa.PageSize-1), acc) {
			ent.vaPage, ent.ep = vaPage|declinedTag, *ep
			return nil, nil
		}
	}
	ent.ep.tlb = ep.tlb
	if write {
		if g := e.mem.CodeGen(); ent.memGen != g {
			if e.mem.IsCodePage(ent.paPage) {
				return nil, nil
			}
			ent.memGen = g
		}
	}
	return ent, ent.page[off:]
}

// access performs a load or store through the micro-TLB, or reports
// ok=false for the slow path: an odd width, or whatever slotMiss refuses.
func (e *fastPath) access(h *Hart, va uint64, size int, write bool, val uint64) (uint64, bool) {
	switch size {
	case 1, 2, 4, 8:
	default:
		return 0, false
	}
	ep := h.epochs()
	ent, p := e.slot(&ep, va, uint64(size), write)
	if p == nil {
		if ent, p = e.slotMiss(h, &ep, va, uint64(size), write); p == nil {
			return 0, false
		}
	}
	e.hitAccounting(h, ent, 1)
	h.Cycles += h.Cost.Mem
	if write {
		e.stats.WriteHits++
		storeLE(p, size, val)
		return 0, true
	}
	e.stats.ReadHits++
	return loadLE(p, size), true
}
