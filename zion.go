// Package zion is the public façade of the ZION confidential-VM stack: a
// reproduction of "ZION: A Practical Confidential Virtual Machine
// Architecture on Commodity RISC-V Processors" (DAC 2025) as a
// functional RISC-V platform simulation.
//
// A System bundles the simulated machine (harts, RAM, CLINT, IOPMP), the
// Secure Monitor (the paper's M-mode TCB) and the untrusted hypervisor.
// Guests are RV64 programs — write them with the assembler DSL in
// internal/asm or reuse the workloads package — loaded either as
// confidential VMs (measured, isolated, SM-managed) or as normal VMs:
//
//	sys, _ := zion.NewSystem(zion.Config{})
//	vm, _ := sys.CreateConfidentialVM("demo", image, zion.GuestRAMBase)
//	res, _ := sys.Run(vm)
//	report, _ := sys.Attest(vm, nonce)
package zion

import (
	"errors"
	"fmt"

	"zion/internal/guest"
	"zion/internal/hart"
	"zion/internal/hv"
	"zion/internal/isa"
	"zion/internal/platform"
	"zion/internal/sm"
	"zion/internal/telemetry"
	"zion/internal/virtio"
)

// GuestRAMBase is the guest-physical address where VM images load.
const GuestRAMBase = hv.GuestRAMBase

// SharedBase is the first GPA of a confidential VM's shared window.
const SharedBase = sm.SharedBase

// Config tunes a System.
type Config struct {
	// Harts is the simulated core count (default 1).
	Harts int
	// RAMBytes sizes physical memory (default 512 MiB).
	RAMBytes uint64
	// SecurePoolBytes is the initial secure-pool registration
	// (default 64 MiB; the pool grows on demand).
	SecurePoolBytes uint64
	// SchedQuantum enables preemptive scheduling with the given timeslice
	// in cycles (0 = run to completion).
	SchedQuantum uint64
	// ValidateSharedOnEntry enables the §IV.E hardening that revalidates
	// the hypervisor's shared subtable on every CVM entry.
	ValidateSharedOnEntry bool
	// Telemetry, when set, wires the whole stack (SM, hypervisor, harts)
	// to a shared telemetry sink; the System's scope is returned by
	// Telemetry(). See docs/OBSERVABILITY.md.
	Telemetry *telemetry.Sink
}

// System is a booted simulated platform.
type System struct {
	Machine    *platform.Machine
	Monitor    *sm.SM
	Hypervisor *hv.Hypervisor

	// OnQuantum, when non-nil, is invoked by Run at every scheduler-
	// quantum boundary (ExitTimer re-entry) — the sequential engine's
	// consistent-snapshot point, where the monitor endpoint takes its
	// Update (docs/OBSERVABILITY.md).
	OnQuantum func()

	hart *hart.Hart
	tel  *telemetry.Scope
}

// Telemetry returns the System's telemetry scope (nil unless
// Config.Telemetry supplied a sink at boot).
func (s *System) Telemetry() *telemetry.Scope { return s.tel }

// FlushTelemetry settles per-CVM cycle attribution at each hart's current
// cycle count so exported cells sum exactly to hart totals. Call before
// exporting traces.
func (s *System) FlushTelemetry() {
	for _, h := range s.Machine.Harts {
		s.tel.AttrFlush(h.ID, h.Cycles)
	}
}

// VM is an opaque handle to a guest created through the façade.
type VM struct {
	inner *hv.VM
}

// Name returns the VM's label.
func (v *VM) Name() string { return v.inner.Name }

// Confidential reports whether the VM runs under the Secure Monitor.
func (v *VM) Confidential() bool { return v.inner.Confidential }

// Exits returns per-reason exit counts (diagnostics).
func (v *VM) Exits() map[string]uint64 { return v.inner.Exits }

// RunResult reports a completed guest run.
type RunResult struct {
	// Cycles is the wall-clock cycle count the run consumed.
	Cycles uint64
	// GuestData and GuestData2 are the guest's a0/a1 at shutdown
	// (benchmark results and checksums travel this way).
	GuestData  uint64
	GuestData2 uint64
}

// NewSystem boots a machine, installs the Secure Monitor and hypervisor,
// and registers the initial secure pool.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Harts <= 0 {
		cfg.Harts = 1
	}
	if cfg.RAMBytes == 0 {
		cfg.RAMBytes = 512 << 20
	}
	if cfg.SecurePoolBytes == 0 {
		cfg.SecurePoolBytes = 64 << 20
	}
	m := platform.New(cfg.Harts, cfg.RAMBytes)
	sc := cfg.Telemetry.Scope()
	monitor, err := sm.New(m, sm.Config{
		SchedQuantum:          cfg.SchedQuantum,
		ValidateSharedOnEntry: cfg.ValidateSharedOnEntry,
		Telemetry:             sc,
	})
	if err != nil {
		return nil, fmt.Errorf("zion: secure monitor installation: %w", err)
	}
	k := hv.New(m, monitor, platform.RAMBase+0x0100_0000, cfg.RAMBytes-0x0200_0000)
	k.SchedQuantum = cfg.SchedQuantum
	h := m.Harts[0]
	h.Mode = isa.ModeS // the hypervisor drives the platform from HS-mode
	if sc != nil {
		k.SetTelemetry(sc)
		for _, hh := range m.Harts {
			hh.Tel = sc
			hh.Prof = sc.Profiler(hh.ID) // nil unless Config.ProfilePeriod armed the sink
		}
	}
	s := &System{Machine: m, Monitor: monitor, Hypervisor: k, hart: h, tel: sc}
	if err := k.RegisterSecurePool(h, cfg.SecurePoolBytes); err != nil {
		return nil, fmt.Errorf("zion: secure pool registration: %w", err)
	}
	return s, nil
}

// CreateConfidentialVM builds a measured, SM-isolated VM from an RV64
// image loaded at entry.
func (s *System) CreateConfidentialVM(name string, image []byte, entry uint64) (*VM, error) {
	vm, err := s.Hypervisor.CreateCVM(s.hart, name, image, entry)
	if err != nil {
		return nil, err
	}
	return &VM{inner: vm}, nil
}

// CreateNormalVM builds a conventional (hypervisor-managed) VM.
func (s *System) CreateNormalVM(name string, image []byte, entry uint64) (*VM, error) {
	vm, err := s.Hypervisor.CreateNormalVM(name, image, entry)
	if err != nil {
		return nil, err
	}
	return &VM{inner: vm}, nil
}

// EnableSharedWindow registers the split-page-table shared window for a
// confidential VM (required before attaching virtio devices).
func (s *System) EnableSharedWindow(v *VM) error {
	if !v.inner.Confidential {
		return errors.New("zion: shared windows apply to confidential VMs only")
	}
	return s.Hypervisor.SetupSharedWindow(s.hart, v.inner)
}

// AttachBlockDevice negotiates a virtio-blk device with the given disk
// capacity and attaches it to the VM.
func (s *System) AttachBlockDevice(v *VM, capacity uint64) *virtio.Blk {
	return guest.SetupBlk(s.Hypervisor, v.inner, s.hart, capacity)
}

// AttachNetDevice negotiates a virtio-net device and attaches it.
func (s *System) AttachNetDevice(v *VM) *virtio.Net {
	return guest.SetupNet(s.Hypervisor, v.inner, s.hart)
}

// Run drives the VM until it shuts down (re-entering across scheduler
// quanta, MMIO emulation, shared-window faults and pool expansions).
func (s *System) Run(v *VM) (RunResult, error) {
	start := s.hart.Cycles
	for {
		info, err := s.Hypervisor.RunVCPU(s.hart, v.inner, 0)
		if err != nil {
			return RunResult{}, err
		}
		switch info.Reason {
		case sm.ExitShutdown:
			return RunResult{Cycles: s.hart.Cycles - start,
				GuestData: info.Data, GuestData2: info.Data2}, nil
		case sm.ExitTimer:
			if s.OnQuantum != nil {
				s.OnQuantum()
			}
		default:
			return RunResult{}, fmt.Errorf("zion: unexpected exit %v", info.Reason)
		}
	}
}

// RunOnce drives the VM for at most one scheduling round and returns the
// raw exit reason string (advanced callers needing exit-level control
// should use the Hypervisor directly).
func (s *System) RunOnce(v *VM) (string, error) {
	info, err := s.Hypervisor.RunVCPU(s.hart, v.inner, 0)
	return info.Reason.String(), err
}

// Measurement returns a confidential VM's sealed launch measurement.
func (s *System) Measurement(v *VM) ([]byte, error) {
	if !v.inner.Confidential {
		return nil, errors.New("zion: normal VMs are not measured")
	}
	return s.Monitor.Measurement(v.inner.CVMID)
}

// Attest produces an attestation report bound to nonce (as the guest
// would obtain via the ZION SBI extension) and returns it for a verifier.
func (s *System) Attest(v *VM, nonce uint64) (Report, error) {
	meas, err := s.Measurement(v)
	if err != nil {
		return Report{}, err
	}
	return Report{Measurement: meas, CVMID: uint64(v.inner.CVMID), Nonce: nonce}, nil
}

// Report is a simplified verifier-side view of an attestation report.
// In-guest reports (SBI ZionFnAttest) additionally carry the platform
// MAC; Verify on the Secure Monitor checks it.
type Report struct {
	Measurement []byte
	CVMID       uint64
	Nonce       uint64
}

// Destroy scrubs and releases a confidential VM.
func (s *System) Destroy(v *VM) error {
	if !v.inner.Confidential {
		return errors.New("zion: only confidential VMs need SM-side teardown")
	}
	_, err := s.Monitor.HVCall(s.hart, sm.FnDestroy, uint64(v.inner.CVMID))
	return err
}

// ConsoleOutput returns everything guests printed via the SBI console.
func (s *System) ConsoleOutput() string { return s.Machine.UART.Output() }

// Cycles returns the platform cycle counter of the boot hart.
func (s *System) Cycles() uint64 { return s.hart.Cycles }

// Snapshot suspends a confidential VM and returns its sealed (encrypted,
// authenticated) image. Only the Secure Monitor can open it; the caller
// may store or transport it freely.
func (s *System) Snapshot(v *VM) ([]byte, error) {
	if !v.inner.Confidential {
		return nil, errors.New("zion: only confidential VMs can be sealed")
	}
	return s.Hypervisor.SnapshotCVM(s.hart, v.inner)
}

// Restore rebuilds a confidential VM from a sealed snapshot. The restored
// VM keeps its original launch measurement.
func (s *System) Restore(name string, blob []byte) (*VM, error) {
	vm, err := s.Hypervisor.RestoreCVM(s.hart, name, blob)
	if err != nil {
		return nil, err
	}
	return &VM{inner: vm}, nil
}

// BuildReport produces the platform-signed attestation report a guest
// would obtain via the SBI Attest call, for out-of-band challenges
// (e.g. re-attestation right after a Restore).
func (s *System) BuildReport(v *VM, nonce uint64) ([]byte, error) {
	if !v.inner.Confidential {
		return nil, errors.New("zion: normal VMs are not attestable")
	}
	return s.Monitor.BuildReport(v.inner.CVMID, nonce)
}
