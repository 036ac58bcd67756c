// Parallel multi-hart execution with deterministic quantum barriers.
//
// Each hart runs on its own goroutine and executes up to Quantum
// simulated cycles before rendezvousing with every other hart at a
// barrier. Cross-hart effects — CLINT MSIP/mtimecmp writes, IPI-driven
// TLB shootdowns, PMP reprogramming by the Secure Monitor, any mutation
// of a peer hart's architectural state — are never applied mid-quantum:
// they are collected in the posting hart's private outbox and merged
// into the destinations' inboxes in one batch when the poster reaches
// the barrier, then applied on the destination's own goroutine when it
// is released into the next epoch.
//
// Determinism model:
//
//   - A hart's own instruction stream, cycle accounting, and trap mix
//     depend only on its architectural state at each quantum boundary,
//     never on host scheduling. Workloads with no cross-hart traffic are
//     therefore bit-identical to the sequential engine.
//   - An op posted during epoch G is visible to its destination at the
//     start of epoch G+1, regardless of which hart posted it or when
//     within the quantum. Ready ops are sorted by (epoch, source hart,
//     per-source sequence number) before application, so free-running
//     mode and Ordered mode (one hart at a time, ascending ID — the
//     reference interleaving) deliver identical op streams.
//   - Cross-hart *reads* of shared device state (a hart polling a peer's
//     CLINT registers) see barrier-granularity snapshots; the paper
//     workloads and the lockstep suite never read a peer's registers
//     mid-quantum.
//
// The delivery latency of an IPI is therefore bounded by one quantum of
// simulated time — the modeling analogue of interconnect latency — and
// is exactly reproducible for a fixed quantum schedule.
//
// Adaptive quantum sizing: with EngineConfig.Adaptive, the engine
// resizes the quantum at each epoch boundary from the cross-hart
// traffic observed *in simulated state* — the count of ops posted
// during the epoch just ended. A quiet epoch doubles the quantum (fewer
// rendezvous, less host-side barrier overhead); a chatty epoch (more
// ops than active harts) halves it (tighter IPI latency). Because the
// op counts are themselves deterministic — which quantum an op is
// posted in depends only on simulated state — the resize schedule, and
// with it every deadline and delivery epoch, is identical across reruns
// and across free-running/Ordered modes. Seeded runs stay bit-identical.
package platform

import (
	"fmt"
	"sort"
	"sync"

	"zion/internal/hart"
	"zion/internal/telemetry"
)

// DefaultQuantum is the barrier period in simulated cycles. 100k cycles
// is ~1ms of simulated time at the paper's 100 MHz Rocket clock: long
// enough to amortize barrier cost (sub-microsecond on the host) over
// tens of thousands of instructions, short enough that IPI delivery
// latency stays well under a scheduler tick.
const DefaultQuantum = 100_000

// Adaptive-quantum clamp defaults: the resize rule never shrinks below
// DefaultMinQuantum (IPI latency floor ~82 µs of simulated time) nor
// grows beyond DefaultMaxQuantum (~10 ms — one hart can run at most
// this far ahead of a peer's view of its device registers).
const (
	DefaultMinQuantum = 8_192
	DefaultMaxQuantum = 1 << 20
)

// EngineConfig configures RunParallel.
type EngineConfig struct {
	// Quantum is the barrier period in simulated cycles (0 = DefaultQuantum).
	// With Adaptive set it is only the starting value.
	Quantum uint64
	// Ordered releases harts one at a time in ascending hart-ID order
	// within each epoch instead of letting them run concurrently. It is
	// the reference interleaving the free-running mode is validated
	// against: both must produce identical results for any workload.
	Ordered bool

	// Adaptive resizes the quantum at each epoch boundary from the
	// cross-hart op count of the epoch just ended: zero ops doubles the
	// quantum (clamped to MaxQuantum), more ops than active harts halves
	// it (clamped to MinQuantum). The schedule depends only on simulated
	// state, so seeded runs remain bit-identical (see package comment).
	Adaptive bool
	// MinQuantum/MaxQuantum clamp adaptive resizing (0 = the defaults).
	MinQuantum uint64
	MaxQuantum uint64

	// OnEpoch, when non-nil, is invoked at each quantum-barrier epoch
	// transition while every hart is parked at the rendezvous — the one
	// point where a consistent cross-hart snapshot exists (the monitor
	// endpoint's scrape consistency relies on it). It runs under the
	// engine lock on the last-arriving hart's goroutine: it may read hart
	// and device state freely but must not call Machine.Epoch or post
	// cross-hart ops.
	OnEpoch func(epoch uint64)
}

// EngineStats summarizes one RunParallel invocation: the barrier and
// adaptive-quantum bookkeeping the bench scaling rows and the
// "engine/*" telemetry gauges are built from. All counts are in the
// simulated domain and therefore deterministic for a seeded run.
type EngineStats struct {
	Adaptive bool
	// Epochs is the number of quantum barriers crossed.
	Epochs uint64
	// CrossOps is the total number of cross-hart ops delivered (an op
	// whose target finished first is never delivered);
	// MergedBatches counts the outbox→inbox merge operations that
	// carried them (the locked sections per-op posting used to pay).
	CrossOps      uint64
	MergedBatches uint64
	// QuantumGrows/QuantumShrinks count adaptive resizes; Final/Min/Max
	// record the quantum trajectory (Min/Max as observed, not the clamps).
	QuantumGrows   uint64
	QuantumShrinks uint64
	FinalQuantum   uint64
	MinQuantum     uint64
	MaxQuantum     uint64
}

// HartRunner drives one hart to completion (e.g. a closure over
// Machine.RunHart or hv.RunCVM).
type HartRunner func(h *hart.Hart) error

// xop is one deferred cross-hart operation, inbox-resident.
type xop struct {
	src   int    // posting hart
	seq   uint64 // per-source monotonic sequence number
	epoch uint64 // engine epoch at post time
	fn    func() // applied on the destination hart's goroutine
}

// outOp is one not-yet-merged cross-hart operation in the posting
// hart's private outbox. No lock protects outboxes: each is touched
// only by its owning hart's goroutine (posts while executing, merge at
// its own barrier arrival under the engine lock).
type outOp struct {
	dst int
	fn  func()
}

// engine is the quantum-barrier scheduler state. All fields below mu are
// guarded by it; the engine pointer itself is published to Machine
// before the hart goroutines start and cleared after they join. outbox
// is the exception: outbox[i] is owned by hart i's goroutine.
type engine struct {
	m        *Machine
	quantum  uint64
	minQ     uint64
	maxQ     uint64
	adaptive bool
	ordered  bool
	onEpoch  func(epoch uint64)

	outbox [][]outOp // per-hart pending posts, owned by the posting goroutine

	mu       sync.Mutex
	cond     *sync.Cond
	gen      uint64   // current epoch; 0 = entry barrier, not yet running
	arrived  int      // active harts waiting at the barrier
	nActive  int      // harts that have not finished their runner
	turn     int      // Ordered mode: hart currently released (-1 = none)
	deadline uint64   // cycle deadline of the current epoch
	halted   bool     // every active hart idle: global halt
	epochOps uint64   // ops posted during the current epoch (adaptive input)
	idle     []bool   // per-hart: cannot make progress without peer help
	done     []bool   // per-hart: runner returned
	inbox    [][]xop  // per-hart pending cross-hart ops (epoch-nondecreasing)
	seq      []uint64 // per-hart op sequence counters
	stats    EngineStats
}

// barrier parks hart src until every active hart has arrived and the
// next epoch begins. idle declares that the hart cannot make progress on
// its own (WFI with no wakeup in sight); when every active hart is idle
// and no cross-hart ops are pending, the engine halts and barrier
// returns false ("stop running, nothing will ever wake you"). On a true
// return, the hart's quantum deadline has been advanced and all
// cross-hart ops from previous epochs have been applied.
func (e *engine) barrier(src int, idle bool) bool {
	e.mu.Lock()
	if e.halted {
		e.mu.Unlock()
		return false
	}
	// Merge this hart's outbox before the epoch decision: the arrival
	// that completes the rendezvous must see every op posted this epoch,
	// both for the all-idle halt verdict and for the adaptive resize
	// input. One locked merge per quantum replaces one locked append per
	// op — the batched-bookkeeping half of the barrier cost model.
	e.mergeLocked(src)
	e.idle[src] = idle
	e.arrived++
	myGen := e.gen
	if e.arrived == e.nActive {
		e.beginEpochLocked()
	} else if e.ordered && e.turn == src {
		e.turn = e.nextTurnLocked(src)
		e.cond.Broadcast()
	}
	for !e.halted && (e.gen == myGen || (e.ordered && e.turn != src)) {
		e.cond.Wait()
	}
	if e.halted {
		e.mu.Unlock()
		return false
	}
	ops := e.takeReadyLocked(src)
	h := e.m.Harts[src]
	h.QuantumDeadline = e.deadline
	e.mu.Unlock()
	// Apply outside the engine lock: ops touch the destination hart's
	// TLB/PMP/CSRs and may post further ops (which land in this hart's
	// outbox and merge at its next arrival).
	for _, op := range ops {
		op.fn()
	}
	return true
}

// mergeLocked moves hart src's outbox into the destination inboxes,
// assigning per-source sequence numbers in posting order and tagging
// each op with the current epoch. Called with e.mu held, always on
// src's own goroutine (barrier arrival or finish), always while e.gen
// still names the epoch the ops were posted in — gen cannot advance
// until every active hart has arrived, and src has not yet.
//
// An op for a hart that finishes in the posting epoch is never applied,
// but whether the target had finished before src took the lock (the op
// is dropped here) or finishes after (finish discards its inbox) is
// host scheduling. So every post counts toward epochOps whatever its
// fate, and CrossOps counts deliveries in takeReadyLocked: both then
// depend on simulated state only.
func (e *engine) mergeLocked(src int) {
	out := e.outbox[src]
	if len(out) == 0 {
		return
	}
	e.stats.MergedBatches++
	for i, op := range out {
		e.epochOps++
		if !e.done[op.dst] && !e.halted {
			e.seq[src]++
			e.inbox[op.dst] = append(e.inbox[op.dst],
				xop{src: src, seq: e.seq[src], epoch: e.gen, fn: op.fn})
		}
		out[i] = outOp{} // release the closure
	}
	e.outbox[src] = out[:0]
}

// beginEpochLocked transitions the barrier to the next epoch, or
// declares global halt when every active hart is idle with an empty
// inbox (the multi-hart generalization of the sequential engine's
// "idle forever: nothing to wake the hart" exit). With Adaptive set it
// first applies the resize rule to the quantum the new epoch will use.
func (e *engine) beginEpochLocked() {
	allIdle := true
	for i, d := range e.done {
		if d {
			continue
		}
		if !e.idle[i] || len(e.inbox[i]) > 0 {
			allIdle = false
			break
		}
	}
	if e.nActive == 0 || allIdle {
		e.halted = true
		e.cond.Broadcast()
		return
	}
	if e.adaptive && e.gen > 0 {
		// Deterministic resize: input is the simulated-domain op count of
		// the epoch just ended, never host timing. Quiet epoch → double
		// (amortize barrier overhead); chattier than one op per active
		// hart → halve (bound IPI latency).
		switch {
		case e.epochOps == 0 && e.quantum < e.maxQ:
			e.quantum *= 2
			if e.quantum > e.maxQ {
				e.quantum = e.maxQ
			}
			e.stats.QuantumGrows++
		case e.epochOps > uint64(e.nActive) && e.quantum > e.minQ:
			e.quantum /= 2
			if e.quantum < e.minQ {
				e.quantum = e.minQ
			}
			e.stats.QuantumShrinks++
		}
		if e.quantum < e.stats.MinQuantum {
			e.stats.MinQuantum = e.quantum
		}
		if e.quantum > e.stats.MaxQuantum {
			e.stats.MaxQuantum = e.quantum
		}
	}
	e.epochOps = 0
	e.gen++
	e.stats.Epochs = e.gen
	e.arrived = 0
	e.deadline += e.quantum
	if e.ordered {
		e.turn = e.nextTurnLocked(-1)
	}
	// Black-box the rendezvous: one event per still-active hart. Epoch
	// numbers are deterministic for a fixed quantum schedule, so seeded
	// flight dumps stay byte-identical.
	for i, d := range e.done {
		if !d {
			e.m.Flight.Ring(i).Record(e.m.Harts[i].Cycles, telemetry.FlightBarrier,
				telemetry.NoCVM, e.gen, 0, "")
		}
	}
	if e.onEpoch != nil {
		e.onEpoch(e.gen)
	}
	e.cond.Broadcast()
}

// nextTurnLocked returns the lowest active hart ID greater than prev.
// Within an epoch harts are released in strictly ascending ID order, so
// every active hart above prev has not yet run this epoch.
func (e *engine) nextTurnLocked(prev int) int {
	for i := prev + 1; i < len(e.done); i++ {
		if !e.done[i] {
			return i
		}
	}
	return -1
}

// takeReadyLocked removes and returns the ops visible to hart src in the
// current epoch: exactly those posted in earlier epochs. Same-epoch ops
// stay queued (in Ordered mode a lower-ID hart may post before a
// higher-ID hart is released into the same epoch; free-running mode
// could never deliver those early, so neither may Ordered mode). Merges
// append with the then-current epoch tag and gen only grows, so each
// inbox is epoch-nondecreasing: the ready set is a prefix, split off
// without copying the remainder. The (epoch, src, seq) sort then makes
// application order independent of the host-level interleaving of
// merges from different harts.
func (e *engine) takeReadyLocked(dst int) []xop {
	q := e.inbox[dst]
	if len(q) == 0 {
		return nil
	}
	cut := len(q)
	for i, op := range q {
		if op.epoch >= e.gen {
			cut = i
			break
		}
	}
	if cut == 0 {
		return nil
	}
	ready := q[:cut]
	e.inbox[dst] = q[cut:]
	e.stats.CrossOps += uint64(cut)
	sort.Slice(ready, func(i, j int) bool {
		a, b := ready[i], ready[j]
		if a.epoch != b.epoch {
			return a.epoch < b.epoch
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	return ready
}

// post queues fn for application on hart dst's goroutine at a later
// barrier release. Lock-free: the op lands in src's private outbox and
// is merged into dst's inbox when src next reaches the barrier (or
// finishes). post must be called on hart src's own goroutine — true for
// every existing caller: the bus defers a hart's own MMIO stores, and
// Machine.OnHart names the hart the SM/hypervisor is executing on.
func (e *engine) post(src, dst int, fn func()) {
	e.outbox[src] = append(e.outbox[src], outOp{dst: dst, fn: fn})
}

// finish retires hart src from the barrier after its runner returns,
// merging any ops it posted in its final partial quantum. Ops still
// pending *for* it are never applied (see mergeLocked); if it was the
// last hart the others were waiting for, the next epoch begins without
// it.
func (e *engine) finish(src int) {
	e.mu.Lock()
	if e.done[src] {
		e.mu.Unlock()
		return
	}
	e.mergeLocked(src)
	e.done[src] = true
	e.inbox[src] = nil
	e.nActive--
	if !e.halted && e.nActive > 0 {
		if e.arrived == e.nActive {
			e.beginEpochLocked()
		} else if e.ordered && e.turn == src {
			e.turn = e.nextTurnLocked(src)
			e.cond.Broadcast()
		}
	}
	e.mu.Unlock()
}

// OnHart runs fn against hart dst's architectural state. Under the
// sequential scheduler, or when src == dst, it runs immediately (the
// pre-parallel behaviour). Under the parallel engine a cross-hart fn is
// posted to dst's inbox and applied on dst's goroutine at its next
// barrier release — the only way the Secure Monitor and hypervisor are
// allowed to touch a peer hart's PMP/TLB/CSR state while it runs.
func (m *Machine) OnHart(src, dst int, fn func()) {
	if e := m.engine; e != nil && src != dst {
		e.post(src, dst, fn)
		return
	}
	fn()
}

// Epoch returns the parallel engine's current quantum epoch, or 0 under
// the sequential scheduler. Fault post-mortems record it so a quarantine
// can be tied to the barrier generation in which the fault originated —
// not the (possibly later) epoch in which a peer hart observed it.
func (m *Machine) Epoch() uint64 {
	e := m.engine
	if e == nil {
		return 0
	}
	e.mu.Lock()
	gen := e.gen
	e.mu.Unlock()
	return gen
}

// EngineStats returns the barrier/quantum bookkeeping of the most
// recent completed RunParallel (zero value if none ran). Deterministic
// for a seeded run; exported as "engine/*" telemetry gauges
// by the bench harness.
func (m *Machine) EngineStats() EngineStats { return m.lastEngine }

// RunParallel runs every hart on its own goroutine under the quantum
// barrier: runners[i] drives hart i (typically a closure over RunHart or
// a hypervisor run loop). It returns when every runner has returned or
// the engine halts with all harts idle, propagating the lowest-numbered
// hart's error. The machine reverts to the sequential scheduler on
// return.
func (m *Machine) RunParallel(cfg EngineConfig, runners []HartRunner) error {
	n := len(m.Harts)
	if len(runners) != n {
		return fmt.Errorf("platform: %d runners for %d harts", len(runners), n)
	}
	q := cfg.Quantum
	if q == 0 {
		q = DefaultQuantum
	}
	minQ, maxQ := cfg.MinQuantum, cfg.MaxQuantum
	if minQ == 0 {
		minQ = DefaultMinQuantum
	}
	if maxQ == 0 {
		maxQ = DefaultMaxQuantum
	}
	if minQ > q {
		minQ = q
	}
	if maxQ < q {
		maxQ = q
	}
	e := &engine{
		m: m, quantum: q, minQ: minQ, maxQ: maxQ,
		adaptive: cfg.Adaptive, ordered: cfg.Ordered, onEpoch: cfg.OnEpoch,
		nActive: n, turn: -1,
		outbox: make([][]outOp, n),
		idle:   make([]bool, n), done: make([]bool, n),
		inbox: make([][]xop, n), seq: make([]uint64, n),
	}
	e.stats = EngineStats{
		Adaptive:   cfg.Adaptive,
		MinQuantum: q, MaxQuantum: q, FinalQuantum: q,
	}
	e.cond = sync.NewCond(&e.mu)
	// The first epoch deadline lands on the next quantum boundary above
	// the most-advanced hart, so a machine resumed mid-run still gives
	// every hart a non-empty first quantum.
	var maxc uint64
	for _, h := range m.Harts {
		if h.Cycles > maxc {
			maxc = h.Cycles
		}
	}
	e.deadline = maxc / q * q // beginEpochLocked adds the first quantum
	m.engine = e
	for i, h := range m.Harts {
		i := i
		h.Yield = func(idle bool) bool { return e.barrier(i, idle) }
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range m.Harts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer e.finish(i)
			// Entry barrier: no hart executes until all goroutines are
			// up, so epoch 1 starts from a fully-populated rendezvous.
			if e.barrier(i, false) {
				errs[i] = runners[i](m.Harts[i])
			}
		}(i)
	}
	wg.Wait()
	e.stats.FinalQuantum = e.quantum
	m.lastEngine = e.stats
	m.engine = nil
	for _, h := range m.Harts {
		h.Yield = nil
		h.QuantumDeadline = 0
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
