package sm

import (
	"crypto/sha256"
	"fmt"

	"zion/internal/hart"
	"zion/internal/pmp"
	"zion/internal/telemetry"
)

// Privilege separation of the Secure Monitor itself (Dorami-style): the
// monitor is split into four compartments — lifecycle, the secure-memory
// allocator, attestation/sealing, and the world switch — each owning a
// disjoint slice of SM state. Every cross-compartment call goes through
// an audited gate that validates the crossing against a static legality
// matrix, charges the architectural crossing cost, verifies the callee's
// PMP-modeled boundary and state integrity, and can deny the call with a
// typed error when the callee has been quarantined. A compartment whose
// state fails its integrity self-check is quarantined with a post-mortem
// record while its siblings keep serving: losing attestation refuses new
// creates but existing CVMs still run and tear down; losing the
// allocator refuses new memory but accepts give-backs, so teardown and
// leak accounting survive.

// Compartment identifies one privilege-separated monitor compartment.
type Compartment int

// Monitor compartments. Each owns a disjoint slice of SM state:
// lifecycle owns the CVM table and quarantine records, alloc owns the
// secure pool, attest owns the platform key and DRBG, and the world
// switch owns only per-run context (hvCtx, pending exits) — it holds no
// long-lived monitor state of its own.
const (
	CompLifecycle Compartment = iota
	CompAlloc
	CompAttest
	CompSwitch

	NumCompartments = iota
)

// CompHost is the pseudo-source of gate crossings entering the monitor
// from the hypervisor's ecall path. It names the untrusted caller, owns
// no monitor state, and may call into any compartment (argument
// validation happens behind the gate, as before).
const CompHost Compartment = -1

// String implements fmt.Stringer.
func (c Compartment) String() string {
	switch c {
	case CompHost:
		return "host"
	case CompLifecycle:
		return "lifecycle"
	case CompAlloc:
		return "alloc"
	case CompAttest:
		return "attest"
	case CompSwitch:
		return "switch"
	}
	return fmt.Sprintf("compartment(%d)", int(c))
}

// Each compartment's private state is modeled at a fixed window of the
// monitor's own address space, so the isolation boundary can be expressed
// with the same PMP machinery that guards the secure pool: compartment
// c's gate unit grants R/W to its own 64 KiB window and nothing else.
// A crossing first proves the callee's unit still admits the callee's own
// window — a corrupted gate unit means the boundary itself is broken and
// the compartment is quarantined rather than entered.
const (
	compRegionBase = uint64(0x0100_0000)
	compRegionSize = uint64(64 << 10)
)

// CompRegion returns the monitor-address-space window modeling
// compartment c's private state (exported for the fault-injection
// harness and the auditor's plan checks).
func CompRegion(c Compartment) uint64 {
	return compRegionBase + uint64(c)*compRegionSize
}

// CompartmentRecord is the post-mortem preserved when a compartment is
// quarantined: the first fault wins and the record is immutable.
type CompartmentRecord struct {
	Compartment Compartment
	Cause       error
	Op          string // gate operation that detected the fault
	Cycle       uint64 // cycle at detection on the detecting hart
	Hart        int    // detecting hart (-1 when no hart context)
	Epoch       uint64 // parallel-engine epoch at detection (0 sequential)
	Salvage     string // state salvage performed ("" = none needed)
	// Flight is the detecting hart's flight-recorder tail at quarantine
	// time (rendered, oldest first): the traps, world switches, and gate
	// crossings that led to the fault. Carried into RunCompromise reports.
	Flight []string
}

// compartmentState is the SM's per-compartment health and gate record.
type compartmentState struct {
	down   bool
	record *CompartmentRecord
	// gate is the PMP unit modeling this compartment's isolation
	// boundary: entry 0 NAPOT over the compartment's own window, R/W.
	gate   pmp.Unit
	calls  uint64
	denied uint64
}

// gateLegal is the static call-graph the gates enforce: lifecycle and
// the world switch are the only internal callers (lifecycle builds and
// tears down CVMs, the switch services faults and guest SBI); alloc and
// attest are leaves and never call out. The host enters anywhere.
var gateLegal = [NumCompartments][NumCompartments]bool{
	CompLifecycle: {CompAlloc: true, CompAttest: true},
	CompSwitch:    {CompAlloc: true, CompAttest: true},
}

// gateAllowed reports whether the static matrix admits a from→to call.
func gateAllowed(from, to Compartment) bool {
	if from == CompHost {
		return true
	}
	if from < 0 || from >= NumCompartments || to < 0 || to >= NumCompartments {
		return false
	}
	return gateLegal[from][to]
}

// defaultGateWatchdog is the cycle budget a compartment may consume in
// its gate prologue before the gate declares it hung (Config.GateWatchdog
// overrides). Generous: three orders of magnitude above the most
// expensive legitimate prologue.
const defaultGateWatchdog = uint64(2_000_000)

// programGatePMP installs compartment c's boundary plan into its gate
// unit: entry 0 NAPOT over the compartment's own window with R/W, every
// other entry off.
func (s *SM) programGatePMP(c Compartment) {
	u := &s.comp[c].gate
	addr, err := pmp.EncodeNAPOT(CompRegion(c), compRegionSize)
	if err != nil {
		// Region constants are NAPOT-encodable by construction.
		panic(fmt.Sprintf("sm: compartment region not NAPOT: %v", err))
	}
	for i := 0; i < pmp.NumEntries; i++ {
		u.SetCfg(i, 0)
		u.SetAddr(i, 0)
	}
	u.SetAddr(0, addr)
	u.SetCfg(0, pmp.PermR|pmp.PermW|pmp.ANAPOT<<3)
}

// compDownErr is the typed refusal a quarantined compartment returns:
// recoverable (the call is rejected, nothing else changes), carrying the
// compartment name and the original cause for the operator.
func (s *SM) compDownErr(to Compartment, op string) error {
	cs := &s.comp[to]
	detail := fmt.Errorf("%w: %s compartment quarantined", ErrCompartment, to)
	if cs.record != nil && cs.record.Cause != nil {
		detail = fmt.Errorf("%w: %s compartment quarantined (cause: %v)",
			ErrCompartment, to, cs.record.Cause)
	}
	return smErr(CodeCompartment, SevRecoverable, 0, op, detail)
}

// gateEnter is the audited crossing prologue every cross-compartment
// call passes through. It charges the crossing cost, validates the
// crossing against the legality matrix, refuses calls into quarantined
// compartments with a typed error, verifies the callee's PMP boundary
// and state integrity (quarantining the callee on failure), and runs the
// watchdogged fault-injection hook. force marks teardown-direction
// crossings (destroy, give-backs): they are audited and integrity-checked
// but never denied, so a down compartment can always be drained.
func (s *SM) gateEnter(h *hart.Hart, from, to Compartment, op string, force bool) error {
	if h != nil {
		prev := s.tel.AttrPush(h.ID, h.Cycles, telemetry.AttrGate)
		h.Advance(h.Cost.GateCross)
		s.tel.AttrPop(h.ID, h.Cycles, prev)
		// Black-box the crossing (A/B are the signed compartment ids;
		// CompHost = -1 wraps). op is a static string, so recording stays
		// allocation-free.
		h.Flight.Record(h.Cycles, telemetry.FlightGate, telemetry.NoCVM,
			uint64(int64(from)), uint64(int64(to)), op)
	}
	if to < 0 || to >= NumCompartments {
		s.Stats.GateDenied++
		s.tel.Counter("sm/gate_denied").Inc()
		return smErr(CodeBadArgs, SevRecoverable, 0, op,
			fmt.Errorf("%w: no such compartment %d", ErrBadArgs, int(to)))
	}
	cs := &s.comp[to]
	cs.calls++
	s.Stats.GateCalls++
	s.tel.Counter("sm/gate_calls").Inc()
	if !gateAllowed(from, to) {
		cs.denied++
		s.Stats.GateDenied++
		s.tel.Counter("sm/gate_denied").Inc()
		return smErr(CodeBadArgs, SevRecoverable, 0, op,
			fmt.Errorf("%w: illegal gate crossing %s->%s", ErrBadArgs, from, to))
	}
	if cs.down {
		if force {
			return nil // teardown direction: audited, never denied
		}
		cs.denied++
		s.Stats.GateDenied++
		s.tel.Counter("sm/gate_denied").Inc()
		return s.compDownErr(to, op)
	}
	// Boundary check: the callee's gate unit must still admit the
	// callee's own window. A unit that denies its owner is corrupt — the
	// isolation boundary itself can no longer be trusted.
	if !cs.gate.Check(CompRegion(to), 8, pmp.AccessWrite, false) {
		s.quarantineCompartment(h, to, op,
			fmt.Errorf("gate PMP boundary corrupt: unit denies own window %#x", CompRegion(to)))
		if force {
			return nil
		}
		return s.compDownErr(to, op)
	}
	// Integrity self-check of the callee's owned state.
	if err := s.compVerify(to); err != nil {
		s.quarantineCompartment(h, to, op, err)
		if force {
			return nil
		}
		return s.compDownErr(to, op)
	}
	// Fault-injection hook, under the gate watchdog: a compartment that
	// burns its cycle budget before reaching its service body is declared
	// hung and quarantined — the body never runs.
	if s.cfg.GateHook != nil && h != nil {
		budget := s.cfg.GateWatchdog
		if budget == 0 {
			budget = defaultGateWatchdog
		}
		start := h.Cycles
		s.cfg.GateHook(to, op, h)
		if h.Cycles-start > budget {
			s.quarantineCompartment(h, to, op,
				fmt.Errorf("compartment hang: gate prologue consumed %d cycles (budget %d)",
					h.Cycles-start, budget))
			if force {
				return nil
			}
			return s.compDownErr(to, op)
		}
	}
	return nil
}

// gate runs fn inside compartment to on behalf of from, denying or
// degrading per gateEnter. fn's own error passes through untouched, so
// sentinel flows (ErrPoolEmpty driving stage-3 expansion) survive the
// compartment boundary.
func (s *SM) gate(h *hart.Hart, from, to Compartment, op string, fn func() error) error {
	if err := s.gateEnter(h, from, to, op, false); err != nil {
		return err
	}
	return fn()
}

// gateForce is gate for teardown-direction crossings: the crossing is
// audited and integrity-checked but never denied (destroy and give-backs
// must drain even a quarantined compartment, or blast radius would grow
// into a resource leak).
func (s *SM) gateForce(h *hart.Hart, from, to Compartment, op string, fn func() error) error {
	if err := s.gateEnter(h, from, to, op, true); err != nil {
		return err
	}
	return fn()
}

// compVerify is the per-compartment state integrity self-check run on
// every gate crossing. It is not cheap: CompAlloc walks the whole
// free-list ring and checks its counters, O(free blocks) per crossing,
// and CompAttest hashes the platform key with SHA-256 on every crossing
// to compare it with its boot-time digest. Lifecycle and the world
// switch hold map/slice state whose corruption surfaces through the
// cross-layer auditor instead.
func (s *SM) compVerify(c Compartment) error {
	switch c {
	case CompAlloc:
		return s.alloc.pool.verify()
	case CompAttest:
		if sha256.Sum256(s.att.key) != s.att.keyDigest {
			return fmt.Errorf("platform key failed digest self-check: key smashed")
		}
	}
	return nil
}

// quarantineCompartment takes compartment c out of service: an immutable
// post-mortem record is preserved (first fault wins), salvageable state
// is repaired so sibling compartments see a consistent view, and every
// future non-forced crossing into c is refused with a typed error. It
// never fails — this IS the error path.
func (s *SM) quarantineCompartment(h *hart.Hart, c Compartment, op string, cause error) *CompartmentRecord {
	cs := &s.comp[c]
	if cs.down {
		return cs.record
	}
	rec := &CompartmentRecord{
		Compartment: c,
		Cause:       cause,
		Op:          op,
		Hart:        -1,
		Epoch:       s.machine.Epoch(),
	}
	if h != nil {
		rec.Cycle = h.Cycles
		rec.Hart = h.ID
	}
	fnote := fmt.Sprintf("compartment-quarantine %s", c)
	if cause != nil {
		fnote += ": " + cause.Error()
	}
	// Hartless quarantines (detected off the execution path, e.g. failed
	// attestation verification) still get a tail: the boot hart's ring
	// holds the gate crossings that led here.
	fhart := rec.Hart
	if fhart < 0 {
		fhart = 0
	}
	s.machine.Flight.Ring(fhart).Record(rec.Cycle, telemetry.FlightQuarantine,
		telemetry.NoCVM, uint64(c), 0, fnote)
	s.tel.Instant(fhart, "sm", "quarantine", rec.Cycle, telemetry.NoCVM, uint64(c), fnote)
	rec.Flight = s.machine.Flight.RenderTail(fhart, flightTailLen)
	if c == CompAlloc {
		// The allocator's free list is authoritative shared state: repair
		// it to a consistent view (free-list blocks are wholly free by
		// definition) so teardown give-backs and leak accounting still
		// balance for every surviving CVM.
		rec.Salvage = s.alloc.pool.salvage()
	}
	cs.down = true
	cs.record = rec
	s.Stats.CompartmentQuarantines++
	s.tel.Counter("sm/compartment_quarantines").Inc()
	return rec
}

// CompartmentDown reports whether compartment c is quarantined.
func (s *SM) CompartmentDown(c Compartment) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c < 0 || c >= NumCompartments {
		return false
	}
	return s.comp[c].down
}

// CompartmentRecordOf returns the post-mortem of a quarantined
// compartment.
func (s *SM) CompartmentRecordOf(c Compartment) (*CompartmentRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c < 0 || c >= NumCompartments {
		return nil, false
	}
	cs := &s.comp[c]
	return cs.record, cs.down
}

// GateStats reports (calls, denied) for compartment c's gate.
func (s *SM) GateStats(c Compartment) (calls, denied uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c < 0 || c >= NumCompartments {
		return 0, 0
	}
	return s.comp[c].calls, s.comp[c].denied
}

// GateProbe drives one raw gate crossing with unvalidated arguments —
// the fault-injection seam for gate-argument fuzzing. The gate must
// reject every illegal (from, to) pair with a typed recoverable error
// and quarantine nothing.
func (s *SM) GateProbe(h *hart.Hart, from, to int64, op string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gateEnter(h, Compartment(from), Compartment(to), op, false)
}

// CorruptAttestKey flips one bit of the platform key in place — the
// attestation-key-smash fault-injection seam. The next gate crossing
// into the attest compartment fails the digest self-check and
// quarantines it.
func (s *SM) CorruptAttestKey(bit uint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.att.key) == 0 {
		return
	}
	i := int(bit/8) % len(s.att.key)
	s.att.key[i] ^= 1 << (bit % 8)
}

// CorruptAllocMeta corrupts one piece of allocator metadata selected by
// sel — the allocator-bit-flip fault-injection seam. Even sel flips a
// head free-block counter bit; odd sel flips a page bit in its bitmap.
// Returns a description of the corruption and whether a target existed.
func (s *SM) CorruptAllocMeta(sel uint64) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.alloc.pool.head
	if b == nil {
		return "", false
	}
	if sel%2 == 0 {
		bit := uint((sel / 2) % 6) // counter fits in 6 bits (64 pages)
		b.free ^= 1 << bit
		return fmt.Sprintf("block %#x free counter bit %d flipped", b.base, bit), true
	}
	i := int((sel / 2) % BlockPages)
	b.used ^= 1 << i
	return fmt.Sprintf("block %#x bitmap page %d flipped", b.base, i), true
}

// CorruptGatePMP flips one bit of compartment c's gate-unit address —
// the boundary-corruption fault-injection seam. The next crossing into c
// detects that the unit no longer admits its own window and quarantines
// the compartment; Audit reports AuditCompartmentPMP until
// RepairGatePMP.
func (s *SM) CorruptGatePMP(c Compartment, bit uint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c < 0 || c >= NumCompartments {
		return
	}
	u := &s.comp[c].gate
	u.SetAddr(0, u.Addr(0)^(1<<(bit%54)))
}

// RepairGatePMP reprograms every compartment's gate unit from the SM's
// authoritative boundary plan, recovering from injected or transient
// corruption. It returns the number of units rewritten. Repairing the
// boundary does not lift a quarantine: the post-mortem stands until the
// platform is rebooted.
func (s *SM) RepairGatePMP() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := Compartment(0); c < NumCompartments; c++ {
		s.programGatePMP(c)
	}
	return int(NumCompartments)
}
