package telemetry

import "sync"

// ring is the bounded record ring behind both the flight recorder and the
// tracer: put appends, evicting the oldest record once the ring is full.
// The mutex orders a ring's writers (its own hart, a peer hart recording a
// quarantine, the parallel engine at a barrier) with a reader snapshotting
// it concurrently. Everything else is derived from the running total.
type ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int    // next write slot
	n    uint64 // total records ever put
}

func (r *ring[T]) put(v T) {
	r.mu.Lock()
	i := r.next
	r.buf[i] = v
	if i++; i == len(r.buf) {
		i = 0
	}
	r.next = i
	r.n++
	r.mu.Unlock()
}

// tail returns the most recent k records, oldest first. k <= 0 returns
// the whole retained window.
func (r *ring[T]) tail(k int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	have := len(r.buf)
	if r.n < uint64(have) {
		have = int(r.n)
	}
	if k <= 0 || k > have {
		k = have
	}
	if k == 0 {
		return nil
	}
	out := make([]T, 0, k)
	start := r.next - k
	if start < 0 {
		start += len(r.buf)
		out = append(out, r.buf[start:]...)
		start = 0
	}
	return append(out, r.buf[start:r.next]...)
}

// total returns the number of records ever put.
func (r *ring[T]) total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}
