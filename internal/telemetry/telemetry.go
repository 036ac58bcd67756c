// Package telemetry is ZION's unified cross-layer observability
// subsystem: a typed metrics registry (counters, gauges, fixed-bucket
// cycle histograms), one event ring per hart that timestamps in the
// simulated cycle domain (never wall clock, so seeded runs emit
// byte-identical flight dumps and traces), and per-CVM cycle attribution
// that splits every hart's cycle counter across architectural-event
// buckets.
//
// The package is dependency-free (standard library only) so every layer —
// hart, SM, hypervisor, page-table walker, benchmark harness — can import
// it without cycles. Metric and attribution sites hold a *Scope and pay
// exactly one nil-check when telemetry is disabled, and an unarmed ring
// drops an armed-only event before taking its lock; no allocation, no
// atomic, no map touch happens on the disabled path, and nothing here
// advances simulated time, which keeps benchmark cycle results
// bit-identical with tracing off.
//
// See docs/OBSERVABILITY.md for the metric namespace, the event kinds,
// the attribution-bucket invariant, and a Perfetto walkthrough.
package telemetry

import (
	"fmt"
	"sync"
)

// Config tunes a Sink.
type Config struct {
	// TraceEvents is the depth (records, not bytes) each hart's event
	// ring may grow to once a scope of this sink arms the machine
	// (Scope.Attach); a ring never shrinks below DefaultFlightDepth.
	// 0 selects DefaultTraceEvents.
	TraceEvents int

	// ProfilePeriod arms the cycle-domain sampling profiler: a sample is
	// taken every ProfilePeriod simulated cycles on each hart. 0 leaves
	// profiling off — Scope.Profiler returns nil and the hart hook stays
	// a single nil-check, so an armed-but-unsampled sink remains
	// bit-identical to no sink at all.
	ProfilePeriod uint64
}

// DefaultTraceEvents is an armed ring's depth when Config leaves it 0.
const DefaultTraceEvents = 1 << 16

// Sink owns the shared observability state: one registry, one
// attribution table, and the event rings of the machines its scopes have
// armed. Multiple simulated machine boots (benchmark environments) share a
// sink; each takes a Scope, whose PID keeps their harts, CVM ids, and
// cycle domains apart in exports.
type Sink struct {
	Registry *Registry
	Attr     *Attribution

	nextPID  int32
	traceCap int

	mu       sync.Mutex
	machines []armedMachine

	profPeriod uint64
	profMu     sync.Mutex
	profilers  map[attrHartKey]*HartProfiler
}

// New builds a sink with all three facilities enabled.
func New(cfg Config) *Sink {
	cap := cfg.TraceEvents
	if cap <= 0 {
		cap = DefaultTraceEvents
	}
	return &Sink{
		Registry:   NewRegistry(),
		Attr:       NewAttribution(),
		traceCap:   cap,
		profPeriod: cfg.ProfilePeriod,
		profilers:  make(map[attrHartKey]*HartProfiler),
	}
}

// Scope allocates the next PID over this sink. Scopes are cheap handles;
// a nil *Scope disables every record site behind one nil-check.
func (s *Sink) Scope() *Scope {
	if s == nil {
		return nil
	}
	pid := s.nextPID
	s.nextPID++
	return &Scope{sink: s, pid: pid, prefix: fmt.Sprintf("p%d/", pid)}
}

// Scope is one machine boot's window onto a Sink. All record methods are
// nil-safe: a nil scope returns immediately. Metric names are prefixed
// with "p<pid>/" so independently booted machines never collide.
type Scope struct {
	sink   *Sink
	pid    int32
	prefix string
}

// PID returns the scope id (the "process" id in Chrome trace exports).
func (sc *Scope) PID() int32 {
	if sc == nil {
		return -1
	}
	return sc.pid
}

// Sink returns the underlying sink (nil for a nil scope).
func (sc *Scope) Sink() *Sink {
	if sc == nil {
		return nil
	}
	return sc.sink
}

// Attach arms one machine's event rings under this scope: each ring
// records the armed-only kinds and may grow to the sink's TraceEvents, and
// the sink's exports read the rings as this scope's PID, ring i as TID i.
// Call it once per machine, before its harts run.
func (sc *Scope) Attach(f *FlightRecorder) {
	if sc == nil {
		return
	}
	f.arm(sc.sink.traceCap)
	sc.sink.mu.Lock()
	sc.sink.machines = append(sc.sink.machines, armedMachine{pid: sc.pid, f: f})
	sc.sink.mu.Unlock()
}

// armedMachine is one attached machine's recorder and the PID its rings
// export as.
type armedMachine struct {
	pid int32
	f   *FlightRecorder
}

// Counter returns a registry counter namespaced to this scope's sink.
func (sc *Scope) Counter(name string) *Counter {
	if sc == nil {
		return nil
	}
	return sc.sink.Registry.Counter(sc.prefix + name)
}

// Gauge returns a registry gauge.
func (sc *Scope) Gauge(name string) *Gauge {
	if sc == nil {
		return nil
	}
	return sc.sink.Registry.Gauge(sc.prefix + name)
}

// Histogram returns a registry histogram.
func (sc *Scope) Histogram(name string) *Histogram {
	if sc == nil {
		return nil
	}
	return sc.sink.Registry.Histogram(sc.prefix + name)
}

// RegisterHistogram exposes an externally owned histogram in the
// registry under this scope's namespace prefix.
func (sc *Scope) RegisterHistogram(name string, h *Histogram) {
	if sc == nil {
		return
	}
	sc.sink.Registry.RegisterHistogram(sc.prefix+name, h)
}

// AttrSwitch charges elapsed cycles to hart tid's current attribution
// cell, then selects (cvm, bucket) for what follows.
func (sc *Scope) AttrSwitch(tid int, now uint64, cvm int, b AttrBucket) {
	if sc == nil {
		return
	}
	sc.sink.Attr.Switch(sc.pid, int32(tid), now, int32(cvm), b)
	if sc.sink.profPeriod != 0 {
		sc.sink.profSetCVM(sc.pid, int32(tid), int32(cvm))
	}
}

// AttrPush carves out a nested bucket (same CVM), returning the previous
// bucket for AttrPop.
func (sc *Scope) AttrPush(tid int, now uint64, b AttrBucket) AttrBucket {
	if sc == nil {
		return AttrHost
	}
	return sc.sink.Attr.Push(sc.pid, int32(tid), now, b)
}

// AttrPop restores the bucket saved by AttrPush.
func (sc *Scope) AttrPop(tid int, now uint64, prev AttrBucket) {
	if sc == nil {
		return
	}
	sc.sink.Attr.Pop(sc.pid, int32(tid), now, prev)
}

// AttrFlush charges every cycle up to now (each hart's final cycle count)
// so exported attribution cells sum to the hart total exactly. The hart's
// sampling profiler, if armed, is flushed to the same cycle so its matrix
// total matches the attribution total by construction.
func (sc *Scope) AttrFlush(tid int, now uint64) {
	if sc == nil {
		return
	}
	sc.sink.Attr.Flush(sc.pid, int32(tid), now)
	if sc.sink.profPeriod != 0 {
		sc.sink.profMu.Lock()
		p := sc.sink.profilers[attrHartKey{pid: sc.pid, tid: int32(tid)}]
		sc.sink.profMu.Unlock()
		p.Flush(now)
	}
}
