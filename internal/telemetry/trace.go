package telemetry

import (
	"sort"
	"sync"
)

// RecKind distinguishes ring records.
type RecKind uint8

// Record kinds.
const (
	// RecSpan is a closed interval [Cycle, Cycle+Dur) — recorded once, at
	// the instant the span ends, so the ring never holds half-open spans.
	RecSpan RecKind = iota
	// RecInstant is a point event.
	RecInstant
)

// NoCVM marks a record (or attribution row) that belongs to no
// confidential VM: hypervisor, normal-VM, or boot-time work.
const NoCVM = -1

// Rec is one trace record. Timestamps are in the simulated cycle domain,
// never wall clock, so identical seeded runs produce identical traces.
type Rec struct {
	Cycle uint64 // start cycle
	Dur   uint64 // span length; 0 for instants
	PID   int32  // scope id (one simulated machine boot)
	TID   int32  // hart id
	Kind  RecKind
	Cat   string // taxonomy: "sm", "hv", "hart"
	Name  string
	CVM   int32  // owning confidential VM, or NoCVM
	Arg   uint64 // category-specific argument (stage, EID, exit reason…)
	Note  string // free-form annotation (error text, cause name)
}

// Tracer is a set of bounded rings of trace records, one per (PID, TID)
// stream, each holding up to the configured capacity. When a stream's ring
// fills it evicts that stream's oldest record; Dropped() reports how many
// were lost in total. All methods are safe for concurrent use from
// multiple hart goroutines; a nil Tracer ignores every call.
//
// Sharding by stream keeps the parallel engine's hart goroutines from
// serializing on a single tracer mutex, and keeps eviction deterministic:
// a global ring's drop set would depend on the cross-hart interleaving,
// while a per-stream ring drops the same records no matter how the host
// schedules the goroutines.
type Tracer struct {
	cap    int
	mu     sync.RWMutex
	shards map[uint64]*ring[Rec]
}

// NewTracer returns a tracer holding up to capacity records per stream.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		return nil
	}
	return &Tracer{cap: capacity, shards: make(map[uint64]*ring[Rec])}
}

func shardKey(pid, tid int32) uint64 {
	return uint64(uint32(pid))<<32 | uint64(uint32(tid))
}

func (t *Tracer) shard(pid, tid int32) *ring[Rec] {
	key := shardKey(pid, tid)
	t.mu.RLock()
	s := t.shards[key]
	t.mu.RUnlock()
	if s != nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s = t.shards[key]; s == nil {
		s = &ring[Rec]{buf: make([]Rec, t.cap)}
		t.shards[key] = s
	}
	return s
}

// Record appends one record, evicting its stream's oldest when that
// stream's ring is full.
func (t *Tracer) Record(r Rec) {
	if t == nil {
		return
	}
	t.shard(r.PID, r.TID).put(r)
}

// Snapshot returns the merged ring contents ordered by (Cycle, PID, TID),
// with each stream's records oldest-first. The order is a pure function of
// the simulated-cycle timestamps, so identical seeded runs produce
// identical snapshots regardless of host goroutine scheduling.
func (t *Tracer) Snapshot() []Rec {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	keys := make([]uint64, 0, len(t.shards))
	for k := range t.shards {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []Rec
	for _, k := range keys {
		out = append(out, t.shards[k].tail(0)...)
	}
	t.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return a.TID < b.TID
	})
	return out
}

// Dropped reports how many records were evicted by ring overflow, summed
// across streams.
func (t *Tracer) Dropped() uint64 {
	total, held := t.counts()
	return total - held
}

// Len reports how many records the rings currently hold, summed across
// streams.
func (t *Tracer) Len() int {
	_, held := t.counts()
	return int(held)
}

// counts sums, across streams, the records ever recorded and the records
// still held.
func (t *Tracer) counts() (total, held uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, s := range t.shards {
		n := s.total()
		total += n
		held += min(n, uint64(t.cap))
	}
	return total, held
}
