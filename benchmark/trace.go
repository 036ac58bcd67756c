package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing round span, -1 for a round
}

// tracer keeps spans in memory until the run ends. The parallel workload
// records from its hart goroutines, hence the lock. A nil tracer records
// nothing: untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	parent int
}

func newTracer() *tracer { return &tracer{origin: time.Now(), parent: -1} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: t.parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// beginRound opens a round span that becomes the parent of every span
// recorded until endRound.
func (t *tracer) beginRound() int {
	i := t.begin("round")
	if t != nil {
		t.mu.Lock()
		t.parent = i
		t.mu.Unlock()
	}
	return i
}

func (t *tracer) endRound(i int) {
	t.end(i)
	if t != nil {
		t.mu.Lock()
		t.parent = -1
		t.mu.Unlock()
	}
}

// durations returns the lengths in nanoseconds of the spans with a name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start))
		}
	}
	return d
}

func sum(v []float64) (s float64) {
	for _, x := range v {
		s += x
	}
	return s
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of v (0 for none); v is not modified.
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the p-quantile of v the way Python's
// statistics.quantiles computes it with its default exclusive method, so
// quantile(v, 0.25) and quantile(v, 0.75) are the quartiles
// statistics.quantiles(v, n=4) gives. It returns 0 for no values and the
// value itself for one; v is not modified.
func quantile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	pos := p * float64(len(s)+1)
	j := min(max(int(pos), 1), len(s)-1)
	return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
}

// tail returns the highest of p90, p95, p99 and p99.9 that still has at
// least ten samples beyond it, or the median when none has.
func tail(v []float64) (value, p float64) {
	p = 0.5
	for _, q := range []float64{0.9, 0.95, 0.99, 0.999} {
		if float64(len(v))*(1-q) >= 10 {
			p = q
		}
	}
	return quantile(v, p), p
}

// spanMetrics derives the per-layer span (S) metrics of the traced rounds.
func spanMetrics(t *tracer, rounds []round) (map[string]float64, []string) {
	var instret, exits, faults float64
	for _, r := range rounds {
		instret += float64(r.instret)
		exits += r.counts["sm.exits"]
		faults += r.counts["sm.faults"]
	}
	runNs := sum(t.durations("run_cvm"))
	m := map[string]float64{
		"hart.ns_per_instr":    div(runNs, instret),
		"sm.host_ns_per_exit":  div(runNs, exits),
		"sm.host_ns_per_fault": div(runNs, faults),
	}
	var notes []string
	for _, d := range []struct{ span, metric string }{
		{"create_cvm", "hv.create_cvm_us"},
		{"run_cvm", "hv.run_cvm_us"},
		{"destroy", "sm.destroy_us"},
	} {
		v := t.durations(d.span)
		for i := range v {
			v[i] /= 1e3
		}
		tv, p := tail(v)
		m[d.metric] = median(v)
		m[d.metric+".tail"] = tv
		m[d.metric+".n"] = float64(len(v))
		notes = append(notes, fmt.Sprintf("%s: median %.1f us, p%g %.1f us, n=%d", d.span, median(v), p*100, tv, len(v)))
	}
	return m, notes
}

// goSample is a reading of the Go runtime's own counters, or the
// difference of two.
type goSample struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

func readGo() goSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = x.Value.Float64()
		}
	}
	return goSample{allocBytes: v[0], gcCycles: v[1], gcCPU: v[2], totalCPU: v[3]}
}

func (a goSample) sub(b goSample) goSample {
	return goSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// goMetrics gives the runtime's cost over a set of rounds: bytes
// allocated per op, GC cycles per round and GC's share of CPU time.
func goMetrics(rounds []round) map[string]float64 {
	var ops float64
	var g goSample
	for _, r := range rounds {
		ops += float64(r.ops)
		g.allocBytes += r.rt.allocBytes
		g.gcCycles += r.rt.gcCycles
		g.gcCPU += r.rt.gcCPU
		g.totalCPU += r.rt.totalCPU
	}
	return map[string]float64{
		"go.alloc_bytes_per_op": div(g.allocBytes, ops),
		"go.gc_cycles":          div(g.gcCycles, float64(len(rounds))),
		"go.gc_cpu_frac":        div(g.gcCPU, g.totalCPU),
	}
}

// profileLayers are the layers a CPU-profile sample can be charged to, in
// report order. "other" takes the benchmark's own code, the internal
// packages not listed here, and stacks with no recognisable frame.
var profileLayers = []string{"hart", "isa", "mem", "tlb", "ptw", "pmp", "sm", "hv", "virtio",
	"guest", "telemetry", "platform", "workloads", "runtime", "other"}

// probeLayer marks the benchmark's speed probe, whose samples are left out
// of the profile shares: it runs between rounds, not in any layer.
const probeLayer = "probe"

// frameLayer names the layer a function belongs to, or "" for a
// standard-library function, whose time is charged to its caller.
func frameLayer(fn string) string {
	if fn == "main.probeSpeed" {
		return probeLayer
	}
	if rest, ok := strings.CutPrefix(fn, "zion/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range profileLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "main."):
		return "other"
	}
	return ""
}

// profileShares decodes a runtime/pprof CPU profile and returns each
// layer's share of the samples: every sample goes to the innermost frame
// that belongs to a layer, so a standard-library leaf counts for the
// layer that called it. It also returns the number of samples counted,
// which leaves out the speed probe's.
func profileShares(raw []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = pbFields(pb, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var values []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbRepeated(v, b, &s.locs)
				case 2:
					return pbRepeated(v, b, &values)
				}
				return nil
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	shares := make(map[string]float64, len(profileLayers))
	for _, l := range profileLayers {
		shares[l] = 0
	}
	var total int64
	for _, s := range samples {
		layer := "other"
	stack:
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				si := funcName[fid]
				if si >= uint64(len(strs)) {
					return nil, 0, errors.New("profile: function name out of the string table")
				}
				if l := frameLayer(strs[si]); l != "" {
					layer = l
					break stack
				}
			}
		}
		if layer == probeLayer {
			continue
		}
		shares[layer] += float64(s.count)
		total += s.count
	}
	for l := range shares {
		shares[l] = div(shares[l], float64(total))
	}
	return shares, total, nil
}

// pbFields calls fn for each field of a protobuf message: v is the value
// of a varint field, b the payload of a length-delimited one.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n == 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(msg)
			if n == 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := pbVarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends one element of a repeated varint field, which the
// encoder writes either one per field or packed into one payload.
func pbRepeated(v uint64, packed []byte, out *[]uint64) error {
	if packed == nil {
		*out = append(*out, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := pbVarint(packed)
		if n == 0 {
			return errors.New("bad packed varint")
		}
		*out = append(*out, x)
		packed = packed[n:]
	}
	return nil
}

// pbVarint decodes a base-128 varint, returning its length (0 if invalid).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
