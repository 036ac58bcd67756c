// Package isa defines the RISC-V architectural constants and instruction
// codec used throughout the ZION simulator: privilege modes, CSR addresses,
// trap causes, status-register bit layouts, Sv39/Sv39x4 page-table-entry
// fields, and an RV64IMA(+Zicsr, privileged) instruction encoder/decoder.
//
// Everything here follows the RISC-V privileged specification (v1.12 with
// the hypervisor extension); bit positions and encodings are the real ones
// so that simulated register state and page-table bytes are faithful to
// commodity hardware.
package isa

// PrivMode is a RISC-V privilege mode. With the hypervisor extension a
// hart's effective operating mode is the pair (PrivMode, V-bit); we fold
// the virtualization bit in so the simulator can switch on a single value.
type PrivMode uint8

// Privilege modes. The numeric values of U, S and M match the encoding used
// in mstatus.MPP; VS and VU are the virtualized forms (V=1).
const (
	ModeU  PrivMode = 0 // user
	ModeS  PrivMode = 1 // supervisor / HS when H-extension active
	ModeM  PrivMode = 3 // machine
	ModeVS PrivMode = 5 // virtual supervisor (V=1, priv=S)
	ModeVU PrivMode = 4 // virtual user (V=1, priv=U)
)

// Virtualized reports whether the mode executes with the V bit set.
func (m PrivMode) Virtualized() bool { return m == ModeVS || m == ModeVU }

// Base returns the architectural privilege encoding (0..3) with the V bit
// stripped, i.e. the value written to mstatus.MPP on trap entry.
func (m PrivMode) Base() uint64 {
	switch m {
	case ModeVS:
		return 1
	case ModeVU:
		return 0
	default:
		return uint64(m)
	}
}

// String implements fmt.Stringer.
func (m PrivMode) String() string {
	switch m {
	case ModeU:
		return "U"
	case ModeS:
		return "HS"
	case ModeM:
		return "M"
	case ModeVS:
		return "VS"
	case ModeVU:
		return "VU"
	}
	return "?"
}

// CSR addresses (12-bit). Only the registers the simulator implements are
// listed; accesses to others raise an illegal-instruction exception.
const (
	// Unprivileged counters.
	CSRCycle   = 0xC00
	CSRTime    = 0xC01
	CSRInstret = 0xC02

	// Supervisor-level CSRs.
	CSRSstatus    = 0x100
	CSRSie        = 0x104
	CSRStvec      = 0x105
	CSRScounteren = 0x106
	CSRSscratch   = 0x140
	CSRSepc       = 0x141
	CSRScause     = 0x142
	CSRStval      = 0x143
	CSRSip        = 0x144
	CSRSatp       = 0x180

	// Hypervisor CSRs.
	CSRHstatus    = 0x600
	CSRHedeleg    = 0x602
	CSRHideleg    = 0x603
	CSRHie        = 0x604
	CSRHcounteren = 0x606
	CSRHgeie      = 0x607
	CSRHtval      = 0x643
	CSRHip        = 0x644
	CSRHvip       = 0x645
	CSRHtinst     = 0x64A
	CSRHgeip      = 0xE12
	CSRHgatp      = 0x680

	// Virtual-supervisor CSRs.
	CSRVsstatus  = 0x200
	CSRVsie      = 0x204
	CSRVstvec    = 0x205
	CSRVsscratch = 0x240
	CSRVsepc     = 0x241
	CSRVscause   = 0x242
	CSRVstval    = 0x243
	CSRVsip      = 0x244
	CSRVsatp     = 0x280

	// Machine-level CSRs.
	CSRMstatus  = 0x300
	CSRMisa     = 0x301
	CSRMedeleg  = 0x302
	CSRMideleg  = 0x303
	CSRMie      = 0x304
	CSRMtvec    = 0x305
	CSRMscratch = 0x340
	CSRMepc     = 0x341
	CSRMcause   = 0x342
	CSRMtval    = 0x343
	CSRMip      = 0x344
	CSRMtinst   = 0x34A
	CSRMtval2   = 0x34B
	CSRMhartid  = 0xF14
	CSRMvendor  = 0xF11

	// PMP configuration and address registers. RV64 uses the even pmpcfg
	// registers only (pmpcfg0, pmpcfg2), each holding 8 entry configs.
	CSRPmpcfg0   = 0x3A0
	CSRPmpcfg2   = 0x3A2
	CSRPmpaddr0  = 0x3B0
	CSRPmpaddr15 = 0x3BF
)

// Exception cause codes (mcause/scause with interrupt bit clear).
const (
	ExcInstAddrMisaligned  = 0
	ExcInstAccessFault     = 1
	ExcIllegalInst         = 2
	ExcBreakpoint          = 3
	ExcLoadAddrMisaligned  = 4
	ExcLoadAccessFault     = 5
	ExcStoreAddrMisaligned = 6
	ExcStoreAccessFault    = 7
	ExcEcallU              = 8
	ExcEcallS              = 9  // ecall from HS-mode
	ExcEcallVS             = 10 // ecall from VS-mode
	ExcEcallM              = 11
	ExcInstPageFault       = 12
	ExcLoadPageFault       = 13
	ExcStorePageFault      = 15
	ExcInstGuestPageFault  = 20
	ExcLoadGuestPageFault  = 21
	ExcVirtualInst         = 22
	ExcStoreGuestPageFault = 23
)

// Interrupt cause codes (mcause/scause with interrupt bit set).
const (
	IntSSoft    = 1
	IntVSSoft   = 2
	IntMSoft    = 3
	IntSTimer   = 5
	IntVSTimer  = 6
	IntMTimer   = 7
	IntSExt     = 9
	IntVSExt    = 10
	IntMExt     = 11
	IntSGuestEx = 12
)

// CauseInterruptBit is the MSB of mcause/scause on RV64, set for interrupts.
const CauseInterruptBit = uint64(1) << 63

// CauseName renders a cause register value for diagnostics. It is a
// constant switch, so the per-trap callers (the flight recorder, fault
// notes) allocate nothing.
func CauseName(cause uint64) string {
	if cause&CauseInterruptBit != 0 {
		switch cause &^ CauseInterruptBit {
		case IntSSoft:
			return "supervisor-software-interrupt"
		case IntVSSoft:
			return "vs-software-interrupt"
		case IntMSoft:
			return "machine-software-interrupt"
		case IntSTimer:
			return "supervisor-timer-interrupt"
		case IntVSTimer:
			return "vs-timer-interrupt"
		case IntMTimer:
			return "machine-timer-interrupt"
		case IntSExt:
			return "supervisor-external-interrupt"
		case IntVSExt:
			return "vs-external-interrupt"
		case IntMExt:
			return "machine-external-interrupt"
		case IntSGuestEx:
			return "supervisor-guest-external-interrupt"
		}
		return "unknown-interrupt"
	}
	switch cause {
	case ExcInstAddrMisaligned:
		return "instruction-address-misaligned"
	case ExcInstAccessFault:
		return "instruction-access-fault"
	case ExcIllegalInst:
		return "illegal-instruction"
	case ExcBreakpoint:
		return "breakpoint"
	case ExcLoadAddrMisaligned:
		return "load-address-misaligned"
	case ExcLoadAccessFault:
		return "load-access-fault"
	case ExcStoreAddrMisaligned:
		return "store-address-misaligned"
	case ExcStoreAccessFault:
		return "store-access-fault"
	case ExcEcallU:
		return "ecall-from-u"
	case ExcEcallS:
		return "ecall-from-hs"
	case ExcEcallVS:
		return "ecall-from-vs"
	case ExcEcallM:
		return "ecall-from-m"
	case ExcInstPageFault:
		return "instruction-page-fault"
	case ExcLoadPageFault:
		return "load-page-fault"
	case ExcStorePageFault:
		return "store-page-fault"
	case ExcInstGuestPageFault:
		return "instruction-guest-page-fault"
	case ExcLoadGuestPageFault:
		return "load-guest-page-fault"
	case ExcVirtualInst:
		return "virtual-instruction"
	case ExcStoreGuestPageFault:
		return "store-guest-page-fault"
	}
	return "unknown-exception"
}

// mstatus bit positions and masks.
const (
	MstatusSIE  = uint64(1) << 1
	MstatusMIE  = uint64(1) << 3
	MstatusSPIE = uint64(1) << 5
	MstatusMPIE = uint64(1) << 7
	MstatusSPP  = uint64(1) << 8
	MstatusMPP  = uint64(3) << 11
	MstatusSUM  = uint64(1) << 18
	MstatusMXR  = uint64(1) << 19
	MstatusTVM  = uint64(1) << 20
	MstatusTW   = uint64(1) << 21
	MstatusTSR  = uint64(1) << 22
	MstatusGVA  = uint64(1) << 38
	MstatusMPV  = uint64(1) << 39

	MstatusMPPShift = 11
)

// hstatus bit positions.
const (
	HstatusVSBE = uint64(1) << 5
	HstatusGVA  = uint64(1) << 6
	HstatusSPV  = uint64(1) << 7
	HstatusSPVP = uint64(1) << 8
	HstatusHU   = uint64(1) << 9
	HstatusVTW  = uint64(1) << 21
)

// satp/hgatp MODE field values.
const (
	SatpModeBare    = 0
	SatpModeSv39    = 8
	SatpModeSv48    = 9
	HgatpModeSv39x4 = 8

	SatpModeShift  = 60
	SatpPPNMask    = (uint64(1) << 44) - 1
	HgatpVMIDShift = 44
	HgatpVMIDMask  = uint64(0x3FFF) << 44
)

// Page-table entry bits (Sv39/Sv39x4).
const (
	PTEValid  = uint64(1) << 0
	PTERead   = uint64(1) << 1
	PTEWrite  = uint64(1) << 2
	PTEExec   = uint64(1) << 3
	PTEUser   = uint64(1) << 4
	PTEGlobal = uint64(1) << 5
	PTEAccess = uint64(1) << 6
	PTEDirty  = uint64(1) << 7

	PTEPPNShift = 10
	PTEFlagMask = 0x3FF
)

// PageSize is the base page size; PageShift its log2.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)
