package sm

import (
	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/telemetry"
)

// Quarantine is the SM's graceful-degradation policy for fatal per-CVM
// faults (Check-after-Load tampering, internal memory escapes, corrupted
// page tables): instead of panicking — or silently destroying evidence —
// the SM scrubs and releases every secure frame the CVM owned, so the
// pool loses nothing, while preserving an immutable diagnostic record
// (cause, final vCPU state, measurement) the operator can inspect.
// Co-resident CVMs are unaffected; Dorami calls this compartmentalizing
// the monitor's own failures.

// flightTailLen is how many flight-recorder events a quarantine or
// compartment post-mortem embeds: enough to cover several world switches
// and the gate crossings around them without bloating JSON reports.
const flightTailLen = 16

// QuarantineRecord is the preserved post-mortem of a quarantined CVM.
// Hart, Compartment, Epoch, and Cycle name the fault's *origin*: under
// the parallel quantum-barrier engine the hart that observes a recorded
// fatal fault (and performs the quarantine) is routinely not the hart
// whose world switch hit it, so attribution is captured where the fault
// is detected and carried to the quarantine site.
type QuarantineRecord struct {
	CVMID       int
	Cause       error
	Cycle       uint64              // cycle at fault origin on the originating hart
	Hart        int                 // originating hart (-1 when no hart context)
	Compartment Compartment         // SM compartment the fault originated in
	Epoch       uint64              // parallel-engine epoch at origin (0 sequential)
	Measurement []byte              // sealed launch measurement (nil if never sealed)
	VCPUs       []hart.GuestContext // final protected register state, for diagnosis
	PagesFreed  int                 // secure frames scrubbed and returned to the pool
	// Flight is the originating hart's flight-recorder tail at quarantine
	// time (rendered, oldest first): the last high-level events — traps,
	// world switches, gate crossings, barriers, fault injections — that
	// led to the fault.
	Flight []string
}

// faultOrigin pins a fatal fault to the hart, engine epoch, cycle, and
// monitor compartment where it originated — recorded at the fault site,
// not at the (possibly later, possibly cross-hart) quarantine site.
type faultOrigin struct {
	hart  int
	epoch uint64
	cycle uint64
	comp  Compartment
}

// originHere captures the fault origin at the current execution point.
func (s *SM) originHere(h *hart.Hart, comp Compartment) faultOrigin {
	o := faultOrigin{hart: -1, epoch: s.machine.Epoch(), comp: comp}
	if h != nil {
		o.hart = h.ID
		o.cycle = h.Cycles
	}
	return o
}

// fatalFault is a fatal per-CVM fault recorded mid-run together with its
// origin; RunVCPU quarantines the CVM once the world switch unwinds.
type fatalFault struct {
	err    error
	origin faultOrigin
}

// quarantine moves a live CVM into the quarantine set: frames scrubbed
// and returned, VMID flushed, diagnostic state preserved. It is
// idempotent per CVM (the record of the first fault wins) and never
// fails: scrub errors are recorded in the cause chain rather than
// propagated, because quarantine IS the error path.
func (s *SM) quarantine(h *hart.Hart, c *CVM, cause error, origin faultOrigin) {
	if _, done := s.life.quarantined[c.ID]; done {
		return
	}
	rec := &QuarantineRecord{
		CVMID:       c.ID,
		Cause:       cause,
		Cycle:       origin.cycle,
		Hart:        origin.hart,
		Compartment: origin.comp,
		Epoch:       origin.epoch,
	}
	if rec.Cycle == 0 && h != nil {
		rec.Cycle = h.Cycles
	}
	// Black-box the decision, then snapshot the originating hart's recent
	// history into the post-mortem (fall back to the observing hart when
	// the origin carried no hart context).
	fhart := origin.hart
	if fhart < 0 && h != nil {
		fhart = h.ID
	}
	if fhart < 0 {
		fhart = 0 // no hart context at all: use the boot hart's ring
	}
	note := "quarantine"
	if cause != nil {
		note = "quarantine: " + cause.Error()
	}
	s.machine.Flight.Ring(fhart).Record(rec.Cycle, telemetry.FlightQuarantine,
		c.ID, uint64(origin.comp), 0, note)
	s.tel.Instant(fhart, "sm", "quarantine", rec.Cycle, c.ID, uint64(origin.comp), note)
	rec.Flight = s.machine.Flight.RenderTail(fhart, flightTailLen)
	if c.measurer != nil && c.measurer.sealed {
		rec.Measurement = append([]byte(nil), c.measurer.value()...)
	}
	for _, v := range c.vcpus {
		rec.VCPUs = append(rec.VCPUs, v.sec)
	}
	// Scrub before the pool can hand any frame to another CVM. A frame
	// that cannot be zeroed (RAM escape — itself a fault-injection
	// scenario) is still released, but leaves the owned set first, so it
	// comes back without a clean bit: the pool zero-fills every frame not
	// marked clean on allocation, so stale secrets cannot leak through
	// the allocator.
	for pa, ok := c.owned.next(0); ok; pa, ok = c.owned.next(pa + isa.PageSize) {
		if err := s.ram.Zero(pa, isa.PageSize); err == nil {
			rec.PagesFreed++
		} else {
			c.owned.remove(pa)
		}
		h.Advance(uint64(isa.PageSize/64) * h.Cost.CacheLineCopy / 2)
	}
	s.releaseCaches(h, c)
	c.state = stQuarantined
	delete(s.life.cvms, c.ID)
	s.life.quarantined[c.ID] = rec
	s.Stats.Quarantines++
	s.tel.Counter("sm/quarantines").Inc()
	// The dead VMID's cached translations are flushed on every hart.
	s.shootdownVMID(h, c.vmid, h.Cost.TLBFlushAll)
}

// Quarantined returns the diagnostic record of a quarantined CVM.
func (s *SM) Quarantined(id int) (*QuarantineRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.life.quarantined[id]
	return rec, ok
}

// releaseQuarantine drops the diagnostic record (FnDestroy on a
// quarantined id: the hypervisor finished its post-mortem). The frames
// were already scrubbed and released at quarantine time.
func (s *SM) releaseQuarantine(id int) bool {
	if _, ok := s.life.quarantined[id]; !ok {
		return false
	}
	delete(s.life.quarantined, id)
	return true
}
