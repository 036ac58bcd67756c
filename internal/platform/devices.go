package platform

import (
	"sync"
	"sync/atomic"
)

// CLINT is the core-local interruptor: per-hart mtimecmp registers and a
// machine timer. In this simulator each hart's mtime is its own cycle
// counter (per-hart virtual time), which is exact for the single-vCPU
// macro benchmarks the paper runs and keeps multi-hart runs independent.
//
// Timer state is atomic rather than mutex-guarded because NextDeadline is
// polled at every batch boundary; writers store mtimecmp before setting
// armed and NextDeadline loads armed first, so a timer observed as armed
// always has its deadline visible.
//
// State is sharded per hart and padded to cache-line size: hart i's
// comparator poll is a pure read of its own line, so non-interacting
// harts under the parallel engine never false-share — with the packed
// []atomic layout this used to be a measurable fraction of the quantum-
// barrier engine's multi-core overhead. The writer mutex is sharded the
// same way: programming hart i's timer never contends with hart j's.
type clintHart struct {
	mu       sync.Mutex // serialises writers to this hart's registers only
	mtimecmp atomic.Uint64
	armed    atomic.Bool
	msip     atomic.Uint32
	_        [40]byte // pad to 64 bytes: one hart per cache line
}

// CLINT is the sharded core-local interruptor.
type CLINT struct {
	harts []clintHart

	// onMSIP, when non-nil, is called after an msip register changes so
	// the platform can reflect the bit into the target hart's mip CSR.
	// Under the parallel engine cross-hart msip writes are deferred to
	// the target's quantum barrier, so the callback always runs on the
	// goroutine that owns the target hart.
	onMSIP func(hartID int, set bool)
}

// NewCLINT creates a CLINT for n harts with all timers disarmed.
func NewCLINT(n int) *CLINT {
	return &CLINT{harts: make([]clintHart, n)}
}

// Range implements MMIODevice.
func (c *CLINT) Range() (uint64, uint64) { return CLINTBase, CLINTSize }

// Register layout, as on SiFive CLINTs: msip at offset 0 + 4*hart (the
// software-interrupt / IPI doorbell), mtimecmp at 0x4000 + 8*hart.
const (
	msipOff     = 0x0
	mtimecmpOff = 0x4000
)

// targetHart returns which hart's register an access at off touches, or
// ok=false for offsets outside any per-hart register. The platform uses
// this to route cross-hart CLINT writes through the quantum barrier.
func (c *CLINT) targetHart(off uint64) (int, bool) {
	if off < msipOff+uint64(4*len(c.harts)) {
		return int(off / 4), true
	}
	if off >= mtimecmpOff && off < mtimecmpOff+uint64(8*len(c.harts)) {
		return int((off - mtimecmpOff) / 8), true
	}
	return 0, false
}

// Access implements MMIODevice: guests and the hypervisor program
// mtimecmp through MMIO exactly as on hardware, and raise IPIs by
// storing to a peer's msip doorbell. Only the target hart's shard is
// locked, and only for writes.
func (c *CLINT) Access(hartID int, off uint64, size int, write bool, val uint64) uint64 {
	if off < msipOff+uint64(4*len(c.harts)) {
		idx := int(off / 4)
		hs := &c.harts[idx]
		if write {
			hs.mu.Lock()
			defer hs.mu.Unlock()
			bit := uint32(val & 1)
			hs.msip.Store(bit)
			if c.onMSIP != nil {
				c.onMSIP(idx, bit != 0)
			}
			return 0
		}
		return uint64(hs.msip.Load())
	}
	if off >= mtimecmpOff && off < mtimecmpOff+uint64(8*len(c.harts)) {
		hs := &c.harts[int((off-mtimecmpOff)/8)]
		if write {
			hs.mu.Lock()
			defer hs.mu.Unlock()
			hs.mtimecmp.Store(val)
			hs.armed.Store(true)
			return 0
		}
		return hs.mtimecmp.Load()
	}
	return 0
}

// MSIP reports hart i's software-interrupt doorbell.
func (c *CLINT) MSIP(i int) bool { return c.harts[i].msip.Load() != 0 }

// SetTimer arms hart i's comparator directly: the guest-timer rule both
// VM kinds share programs it through hart.TimerClock (on hardware, the
// firmware's side of the SBI TIME extension).
func (c *CLINT) SetTimer(i int, deadline uint64) {
	hs := &c.harts[i]
	hs.mu.Lock()
	defer hs.mu.Unlock()
	hs.mtimecmp.Store(deadline)
	hs.armed.Store(true)
}

// DisarmTimer cancels hart i's timer. A run with neither a quantum nor a
// guest deadline disarms at every entry, mostly a timer that is already
// disarmed; that case returns without the lock, and an arm racing with
// it simply takes effect after this disarm.
func (c *CLINT) DisarmTimer(i int) {
	hs := &c.harts[i]
	if !hs.armed.Load() {
		return
	}
	hs.mu.Lock()
	defer hs.mu.Unlock()
	hs.armed.Store(false)
}

// NextDeadline returns hart i's armed deadline. It implements hart.Clock.
func (c *CLINT) NextDeadline(i int) (uint64, bool) {
	hs := &c.harts[i]
	armed := hs.armed.Load()
	return hs.mtimecmp.Load(), armed
}

// UART is a write-only console device: bytes stored for inspection.
type UART struct {
	mu  sync.Mutex
	buf []byte
}

// Range implements MMIODevice.
func (u *UART) Range() (uint64, uint64) { return UARTBase, UARTSize }

// Access implements MMIODevice. Offset 0 is the THR (transmit) register;
// reads of offset 5 (LSR) report transmitter-empty, as drivers expect.
func (u *UART) Access(hartID int, off uint64, size int, write bool, val uint64) uint64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	switch {
	case off == 0 && write:
		u.buf = append(u.buf, byte(val))
	case off == 5 && !write:
		return 0x60 // THRE | TEMT
	}
	return 0
}

// Output returns everything written to the UART.
func (u *UART) Output() string {
	u.mu.Lock()
	defer u.mu.Unlock()
	return string(u.buf)
}

// Reset clears the captured output.
func (u *UART) Reset() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.buf = nil
}
