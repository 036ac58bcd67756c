package guest

import (
	"fmt"

	"zion/internal/telemetry"
	"zion/internal/virtio"
)

// BouncePool is a SWIOTLB-style reuse pool over the bounce region of a
// DMA layout: a LIFO free list of fixed-size slots in the shared GPA
// window, replacing per-request window allocation. Release scrubs the
// slot through the device's MemIO view — confidential payload must not
// linger in hypervisor-readable memory after the I/O that needed it, and
// routing the scrub through MemIO charges its simulated-cycle cost
// deterministically.
//
// The pool is driver-side state (one per VM), not safe for concurrent
// use — matching the one-vCPU driver model everywhere else in the guest
// package.
type BouncePool struct {
	mem      virtio.MemIO
	base     uint64
	slotSize uint64
	free     []int  // LIFO free list (indices)
	inUse    []bool // double-free / bad-slot detection

	// Stats (deterministic observables).
	Allocs, Releases, Failures uint64
	HWM                        int // high-water mark of in-use slots

	zero []byte

	gInUse, gHWM *telemetry.Gauge
	cFail        *telemetry.Counter
}

// PoolExhaustedError is the typed allocation failure: every slot is in
// flight. Callers either throttle (the serving generator bounds its
// request depth to the pool) or treat it as backpressure.
type PoolExhaustedError struct{ Slots int }

// Error implements error.
func (e *PoolExhaustedError) Error() string {
	return fmt.Sprintf("guest: bounce pool exhausted (%d slots all in flight)", e.Slots)
}

// PoolSlotError is the typed misuse failure: releasing a slot that is
// not in use (double free) or out of range.
type PoolSlotError struct{ Slot int }

// Error implements error.
func (e *PoolSlotError) Error() string {
	return fmt.Sprintf("guest: bad bounce-pool release of slot %d (not in use)", e.Slot)
}

// NewBouncePool carves the layout's bounce region into fixed slotSize
// slots (as many as fit) accessed through mem.
func NewBouncePool(mem virtio.MemIO, l DMALayout, slotSize uint64) *BouncePool {
	if slotSize == 0 {
		panic("guest: zero bounce slot size")
	}
	n := int(l.BounceSize / slotSize)
	p := &BouncePool{
		mem:      mem,
		base:     l.Bounce,
		slotSize: slotSize,
		free:     make([]int, n),
		inUse:    make([]bool, n),
		zero:     make([]byte, slotSize),
	}
	// LIFO with slot 0 on top: deterministic allocation order.
	for i := 0; i < n; i++ {
		p.free[i] = n - 1 - i
	}
	return p
}

// SetTelemetry attaches pool-pressure instruments (nil scope is fine).
func (p *BouncePool) SetTelemetry(sc *telemetry.Scope) {
	p.gInUse = sc.Gauge("bounce_pool/in_use")
	p.gHWM = sc.Gauge("bounce_pool/hwm")
	p.cFail = sc.Counter("bounce_pool/alloc_fail")
}

// Slots returns the pool capacity.
func (p *BouncePool) Slots() int { return len(p.inUse) }

// InUse returns the number of slots currently allocated.
func (p *BouncePool) InUse() int { return len(p.inUse) - len(p.free) }

// SlotGPA returns the guest-physical base of slot i.
func (p *BouncePool) SlotGPA(i int) uint64 { return p.base + uint64(i)*p.slotSize }

// Alloc takes a slot off the free list, returning its index and GPA.
func (p *BouncePool) Alloc() (slot int, gpa uint64, err error) {
	if len(p.free) == 0 {
		p.Failures++
		p.cFail.Inc()
		return 0, 0, &PoolExhaustedError{Slots: len(p.inUse)}
	}
	slot = p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.inUse[slot] = true
	p.Allocs++
	if u := p.InUse(); u > p.HWM {
		p.HWM = u
		p.gHWM.Set(uint64(u))
	}
	p.gInUse.Set(uint64(p.InUse()))
	return slot, p.SlotGPA(slot), nil
}

// Release scrubs the slot (zero-on-release) and returns it to the free
// list. Misuse — out of range or not in use — is a typed error.
func (p *BouncePool) Release(slot int) error {
	if slot < 0 || slot >= len(p.inUse) || !p.inUse[slot] {
		return &PoolSlotError{Slot: slot}
	}
	if err := p.mem.WriteBytes(p.SlotGPA(slot), p.zero); err != nil {
		return err
	}
	p.inUse[slot] = false
	p.free = append(p.free, slot)
	p.Releases++
	p.gInUse.Set(uint64(p.InUse()))
	return nil
}
