// Package platform assembles the simulated machine: harts, physical RAM,
// the CLINT timer, a UART, the IOPMP, and an MMIO bus. RunHart drives a
// hart through hart.Run and dispatches its trap events to the
// Go-implemented privileged software (the Secure Monitor at M, the
// hypervisor at HS, the mini guest kernel at VS).
package platform

import (
	"fmt"

	"zion/internal/hart"
	"zion/internal/iopmp"
	"zion/internal/isa"
	"zion/internal/mem"
	"zion/internal/telemetry"
)

// Physical memory map of the simulated SoC (matches common RISC-V virt
// platforms: CLINT low, UART at 0x1000_0000, DRAM from 2 GiB).
const (
	CLINTBase = 0x0200_0000
	CLINTSize = 0x0001_0000
	UARTBase  = 0x1000_0000
	UARTSize  = 0x100
	RAMBase   = 0x8000_0000
)

// MMIODevice is a device mapped on the physical bus.
type MMIODevice interface {
	// Range returns the device's physical window.
	Range() (base, size uint64)
	// Access performs a read (write=false) or write. The return value is
	// the loaded value for reads.
	Access(hartID int, offset uint64, size int, write bool, val uint64) uint64
}

// TrapHandler is implemented by the Go privileged components.
type TrapHandler interface {
	// HandleTrap services a trap that architecturally entered this
	// handler's privilege level. The handler must leave the hart in a
	// runnable state (typically by preparing CSRs and calling MRet/SRet)
	// or return false to stop the run loop.
	HandleTrap(h *hart.Hart, t hart.Trap) bool
}

// TrapHandlerFunc adapts a function to the TrapHandler interface.
type TrapHandlerFunc func(h *hart.Hart, t hart.Trap) bool

// HandleTrap implements TrapHandler.
func (f TrapHandlerFunc) HandleTrap(h *hart.Hart, t hart.Trap) bool { return f(h, t) }

// Machine is the simulated SoC.
type Machine struct {
	RAM   *mem.PhysMemory
	Harts []*hart.Hart
	CLINT *CLINT
	UART  *UART
	IOPMP *iopmp.Unit

	devices []MMIODevice

	// Privileged software, registered by the integration layer.
	MHandler  TrapHandler // Secure Monitor (M-mode)
	HSHandler TrapHandler // hypervisor (HS-mode)
	VSHandler TrapHandler // guest kernel's Go half (VS-mode)

	// Flight is the machine's event recorder: one bounded ring of recent
	// high-level events per hart (traps, world switches, gate crossings,
	// quantum barriers, fault injections), always on as the black box and,
	// once SetTelemetry arms the machine, deeper and the source of the
	// trace export. Created at boot; each hart holds its own ring handle.
	// Recording never touches simulated state, so it cannot perturb
	// bit-identity.
	Flight *telemetry.FlightRecorder

	// engine is non-nil while RunParallel drives the harts on their own
	// goroutines under the quantum barrier (engine.go). It is published
	// before the hart goroutines start and cleared after they join, so
	// hart-goroutine reads are ordered by goroutine create/join.
	engine *engine

	// lastEngine is the bookkeeping of the most recent completed
	// RunParallel (EngineStats accessor). Written after the hart
	// goroutines join, read from the caller's goroutine only.
	lastEngine EngineStats
}

// SetTelemetry arms the machine under sc before it runs: its event rings
// take the armed-only kinds, deepen to the sink's trace capacity and feed
// the sink's exports as sc's PID, and every hart gets its sampling
// profiler if the sink samples. A nil sc leaves the machine unarmed.
func (m *Machine) SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		return
	}
	sc.Attach(m.Flight)
	for _, h := range m.Harts {
		h.Prof = sc.Profiler(h.ID)
	}
}

// New builds a machine with the given hart count and RAM size.
func New(nharts int, ramSize uint64) *Machine {
	m := &Machine{
		RAM:   mem.NewPhysMemory(RAMBase, ramSize),
		IOPMP: iopmp.New(),
	}
	m.CLINT = NewCLINT(nharts)
	m.UART = &UART{}
	m.AddDevice(m.CLINT)
	m.AddDevice(m.UART)
	m.Flight = telemetry.NewFlightRecorder(nharts, 0)
	for i := 0; i < nharts; i++ {
		h := hart.New(i, m.RAM, (*busAdapter)(m))
		h.Flight = m.Flight.Ring(i)
		m.Harts = append(m.Harts, h)
	}
	// Reflect msip doorbell writes into the target hart's mip CSR. The
	// bus defers cross-hart writes to the target's quantum barrier, so
	// this always runs on the goroutine that owns the target hart.
	m.CLINT.onMSIP = func(hartID int, set bool) {
		if set {
			m.Harts[hartID].SetPending(isa.IntMSoft)
		} else {
			m.Harts[hartID].ClearPending(isa.IntMSoft)
		}
	}
	return m
}

// AddDevice maps a device on the bus.
func (m *Machine) AddDevice(d MMIODevice) { m.devices = append(m.devices, d) }

// busAdapter implements hart.Bus over the device list.
type busAdapter Machine

// Access implements hart.Bus. Under the parallel engine, a write that
// targets a *peer* hart's CLINT register (an IPI doorbell store or a
// cross-hart mtimecmp program) is not applied inline: it is posted to
// the target hart and applied at its next quantum-barrier release, which
// is what makes IPI delivery deterministic (engine.go).
func (b *busAdapter) Access(hartID int, pa uint64, size int, write bool, val uint64) (uint64, bool) {
	for _, d := range b.devices {
		base, dsz := d.Range()
		if pa >= base && pa+uint64(size) <= base+dsz {
			off := pa - base
			if write && d == MMIODevice(b.CLINT) {
				if e := (*Machine)(b).engine; e != nil {
					if target, ok := b.CLINT.targetHart(off); ok && target != hartID {
						e.post(hartID, target, func() {
							d.Access(hartID, off, size, write, val)
						})
						return 0, true
					}
				}
			}
			return d.Access(hartID, off, size, write, val), true
		}
	}
	return 0, false
}

// ErrUnhandledTrap reports a trap that reached a privilege level with no
// registered handler. The run loop stops and returns it instead of
// panicking: one VM's stray trap must not take down the whole platform.
var ErrUnhandledTrap = fmt.Errorf("platform: unhandled trap")

// RunHart steps hart i until a handler stops the loop or maxSteps guest
// instructions retire. It returns the number of steps executed and a
// non-nil error if a trap reached a privilege level with no handler.
func (m *Machine) RunHart(i int, maxSteps uint64) (uint64, error) {
	h := m.Harts[i]
	var steps uint64
	for steps < maxSteps {
		n, ev := h.Run(m.CLINT, maxSteps-steps)
		steps += n
		switch ev.Kind {
		case hart.EvNone:
			continue
		case hart.EvHalt:
			return steps, nil // global halt: every hart idle
		case hart.EvWFI:
			if h.Yield != nil {
				if !m.parallelWFI(h) {
					return steps, nil // global halt: no peer will ever wake this hart
				}
				continue
			}
			// Advance virtual time to the next timer deadline so the
			// machine makes progress while the guest idles.
			if !h.IdleUntilTimer(m.CLINT) {
				return steps, nil // idle forever: nothing to wake the hart
			}
		case hart.EvTrap:
			cont, err := m.dispatch(h, ev.Trap)
			if err != nil {
				return steps, err
			}
			if !cont {
				return steps, nil
			}
		}
	}
	return steps, nil
}

// parallelWFI idles a hart under the quantum barrier until its own timer
// fires or a peer's cross-hart event (IPI doorbell, mtimecmp program)
// arrives at a barrier release. Unlike the sequential engine, an idle
// hart may not simply return "idle forever": it must keep participating
// in the rendezvous, both so the other harts are never blocked waiting
// for it and so a peer's MSIP write can still wake it — the idle-hart
// livelock this file's sequential exit would otherwise cause. Returns
// false only on global halt (every hart idle with no pending events),
// which is when "idle forever" becomes provably true machine-wide.
func (m *Machine) parallelWFI(h *hart.Hart) bool {
	for {
		dl, armed := m.CLINT.NextDeadline(h.ID)
		if armed && dl > h.Cycles && dl <= h.QuantumDeadline {
			// The timer fires within this quantum: take the same virtual-
			// time jump the sequential engine takes.
			h.Cycles = dl
			h.Advance(h.Cost.WFIWake)
			return true
		}
		// A timer beyond the quantum still counts as progress; an armed-
		// but-already-fired comparator does not (were its interrupt
		// deliverable the hart would never have retired WFI), matching
		// the sequential engine's idle-forever verdict for that state.
		canProgress := armed && dl > h.Cycles
		if h.Cycles < h.QuantumDeadline {
			h.Cycles = h.QuantumDeadline // idle simulated time is free
		}
		if !h.Yield(!canProgress) {
			return false
		}
		// Barrier released: cross-hart ops have been applied. Re-sample
		// the timer and wake on any now-deliverable interrupt.
		h.SyncTimer(m.CLINT)
		if _, ok := h.PendingInterrupt(); ok {
			h.Advance(h.Cost.WFIWake)
			return true
		}
	}
}

// dispatch routes a trap event to the registered privileged component.
func (m *Machine) dispatch(h *hart.Hart, t hart.Trap) (bool, error) {
	var handler TrapHandler
	switch t.Target {
	case isa.ModeM:
		handler = m.MHandler
	case isa.ModeS:
		handler = m.HSHandler
	case isa.ModeVS:
		handler = m.VSHandler
	}
	if handler == nil {
		return false, fmt.Errorf("%w: %s to %v at pc=%#x",
			ErrUnhandledTrap, isa.CauseName(t.Cause), t.Target, t.PC)
	}
	return handler.HandleTrap(h, t), nil
}
