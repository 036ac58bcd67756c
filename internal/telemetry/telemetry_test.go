package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestHistogramExactMoments(t *testing.T) {
	h := NewHistogram()
	vals := []uint64{3, 17, 17, 4096, 1_000_003, 0, 12}
	var sum uint64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count() != uint64(len(vals)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(vals))
	}
	if h.Sum() != sum {
		t.Errorf("Sum = %d, want %d (must be exact)", h.Sum(), sum)
	}
	if want := float64(sum) / float64(len(vals)); h.Mean() != want {
		t.Errorf("Mean = %v, want %v (must be exact)", h.Mean(), want)
	}
	if h.Min() != 0 || h.Max() != 1_000_003 {
		t.Errorf("Min/Max = %d/%d, want 0/1000003", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("empty histogram must read as all zeros")
	}
	var nilH *Histogram
	nilH.Observe(7) // must not panic
	if nilH.Count() != 0 {
		t.Errorf("nil histogram Count = %d", nilH.Count())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	// Relative bucket error is bounded by 2^-histSubBits.
	p50 := h.Quantile(0.50)
	if p50 < 450 || p50 > 550 {
		t.Errorf("p50 = %d, want ~500", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 920 || p99 > 1000 {
		t.Errorf("p99 = %d, want ~990", p99)
	}
	if h.Quantile(1) != 1000 {
		t.Errorf("p100 = %d, want exact max 1000", h.Quantile(1))
	}
	if q := h.Quantile(0.001); q != 1 {
		t.Errorf("p0.1 = %d, want exact min 1", q)
	}
	// Quantiles must be monotone in q.
	prev := uint64(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Errorf("Quantile(%v) = %d < previous %d", q, v, prev)
		}
		prev = v
	}
}

func TestBucketGeometry(t *testing.T) {
	// Every bucket's lower bound must map back to that bucket, and the
	// bounds must be strictly increasing.
	prev := uint64(0)
	for i := 1; i < numBuckets; i++ {
		lo := bucketLower(i)
		if lo <= prev && i > 1 {
			t.Fatalf("bucketLower(%d) = %d not increasing (prev %d)", i, lo, prev)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(bucketLower(%d)) = %d", i, got)
		}
		prev = lo
	}
	// The largest uint64 must land inside the array.
	if got := bucketIndex(^uint64(0)); got >= numBuckets {
		t.Fatalf("bucketIndex(max) = %d out of range %d", got, numBuckets)
	}
}

// TestTracerRingEviction: an armed ring grows to the sink's trace
// capacity, then evicts its oldest records; the export holds the newest,
// oldest first, and counts the evictions.
func TestTracerRingEviction(t *testing.T) {
	s := New(Config{TraceEvents: 4})
	f := NewFlightRecorder(1, 2)
	s.Scope().Attach(f)
	for i := 0; i < 6; i++ {
		f.Ring(0).Record(uint64(i), EvTrap, NoCVM, 0, 0, "e")
	}
	snap, dropped := s.events()
	if len(snap) != 4 {
		t.Fatalf("exported %d records, want 4", len(snap))
	}
	for i, r := range snap {
		if want := uint64(i + 2); r.Cycle != want {
			t.Errorf("snap[%d].Cycle = %d, want %d (oldest-first)", i, r.Cycle, want)
		}
	}
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
}

func TestNilScopeSafe(t *testing.T) {
	var sc *Scope
	// Every record-site method must be a no-op on a nil scope.
	sc.Attach(NewFlightRecorder(1, 4))
	sc.Counter("x").Inc()
	sc.Gauge("x").Set(3)
	sc.Histogram("x").Observe(9)
	sc.RegisterHistogram("x", NewHistogram())
	sc.AttrSwitch(0, 100, 1, AttrGuest)
	_ = sc.AttrPush(0, 100, AttrPMP)
	sc.AttrPop(0, 100, AttrHost)
	sc.AttrFlush(0, 100)
	if sc.PID() != -1 || sc.Sink() != nil {
		t.Errorf("nil scope accessors must return zero values")
	}
	var s *Sink
	if s.Scope() != nil {
		t.Errorf("nil sink must hand out nil scopes")
	}
	if err := s.ExportChromeTrace(&bytes.Buffer{}); err != nil {
		t.Errorf("nil sink export: %v", err)
	}
}

func TestAttributionSumsToTotal(t *testing.T) {
	a := NewAttribution()
	// Hart 0: host 100, entry 50, guest 800, carve 30 of the guest window
	// into TLB via push/pop, exit 40, host to 1100.
	a.Switch(0, 0, 100, 1, AttrSMEntry)
	a.Switch(0, 0, 150, 1, AttrGuest)
	prev := a.Push(0, 0, 600, AttrTLB)
	a.Pop(0, 0, 630, prev)
	a.Switch(0, 0, 950, 1, AttrSMExit)
	a.Switch(0, 0, 990, NoCVM, AttrHost)
	a.Flush(0, 0, 1100)

	rows, totals := a.Rows()
	if len(totals) != 1 || totals[0].Cycles != 1100 {
		t.Fatalf("totals = %+v, want one hart at 1100", totals)
	}
	var sum uint64
	for _, r := range rows {
		sum += r.Total()
	}
	if sum != 1100 {
		t.Fatalf("attribution rows sum to %d, want hart total 1100", sum)
	}
	// Spot-check the carve-out: TLB got exactly 30 inside CVM 1's row.
	for _, r := range rows {
		if r.CVM == 1 {
			if r.Buckets[AttrTLB] != 30 {
				t.Errorf("TLB carve-out = %d, want 30", r.Buckets[AttrTLB])
			}
			if got, want := r.Buckets[AttrGuest], uint64(800-30); got != want {
				t.Errorf("guest cycles = %d, want %d", got, want)
			}
		}
	}
	// A stale switch (now before the cursor) must charge nothing extra.
	a.Switch(0, 0, 900, NoCVM, AttrHost)
	rows2, totals2 := a.Rows()
	if totals2[0].Cycles != 1100 {
		t.Errorf("stale switch moved the cursor: %d", totals2[0].Cycles)
	}
	var sum2 uint64
	for _, r := range rows2 {
		sum2 += r.Total()
	}
	if sum2 != 1100 {
		t.Errorf("stale switch changed attributed cycles: %d", sum2)
	}
}

// TestScopePIDIsolation: two scopes arm two machines; each machine's
// records export under its own scope's PID and nowhere else.
func TestScopePIDIsolation(t *testing.T) {
	s := New(Config{TraceEvents: 16})
	a, b := s.Scope(), s.Scope()
	if a.PID() == b.PID() {
		t.Fatalf("scopes share PID %d", a.PID())
	}
	fa, fb := NewFlightRecorder(1, 4), NewFlightRecorder(1, 4)
	a.Attach(fa)
	b.Attach(fb)
	fa.Ring(0).Record(1, EvTrap, NoCVM, 0, 0, "ea")
	fb.Ring(0).Record(2, EvTrap, NoCVM, 0, 0, "eb")
	fb.Ring(0).Record(3, EvGate, NoCVM, 0, 0, "other")
	notes := map[int32][]string{}
	recs, _ := s.events()
	for _, r := range recs {
		notes[r.PID] = append(notes[r.PID], r.Note)
	}
	if got := notes[a.PID()]; len(got) != 1 || got[0] != "ea" {
		t.Errorf("scope a recorded %q", got)
	}
	if got := notes[b.PID()]; len(got) != 2 || got[0] != "eb" || got[1] != "other" {
		t.Errorf("scope b recorded %q", got)
	}
}

// chromeFile mirrors the exported JSON shape for round-trip decoding.
type chromeFile struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   uint64  `json:"ts"`
		Dur  *uint64 `json:"dur"`
		PID  int32   `json:"pid"`
		TID  int32   `json:"tid"`
		S    string  `json:"s"`
		Args struct {
			CVM  int32  `json:"cvm"`
			Arg  uint64 `json:"arg"`
			Note string `json:"note"`
		} `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
	OtherData       struct {
		ClockDomain string                    `json:"clockDomain"`
		Dropped     uint64                    `json:"droppedEvents"`
		Attribution []map[string]json.Number  `json:"attribution"`
		HartTotals  []struct{ Cycles uint64 } `json:"hartTotals"`
	} `json:"otherData"`
}

func TestChromeExportRoundTrip(t *testing.T) {
	s := New(Config{TraceEvents: 16})
	sc := s.Scope()
	rec := NewFlightRecorder(1, 4)
	sc.Attach(rec)
	sc.AttrSwitch(0, 10, 2, AttrGuest)
	rec.Ring(0).Span(EvWorldEnter, 10, 42, 2, 7, "")
	rec.Ring(0).Record(42, EvTrap, 2, 8, 0x80, "ecall")
	sc.AttrFlush(0, 100)

	var buf bytes.Buffer
	if err := s.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(f.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d, want 2", len(f.TraceEvents))
	}
	span, inst := f.TraceEvents[0], f.TraceEvents[1]
	if span.Ph != "X" || span.Ts != 10 || span.Dur == nil || *span.Dur != 32 {
		t.Errorf("span event wrong: %+v", span)
	}
	if span.Cat != "sm" || span.Name != "ws.entry" || span.Args.CVM != 2 || span.Args.Arg != 7 {
		t.Errorf("span args wrong: %+v", span)
	}
	if inst.Cat != "hart" || inst.Name != "trap" || inst.Ph != "i" || inst.S != "t" ||
		inst.Args.CVM != 2 || inst.Args.Arg != 8 || inst.Args.Note != "ecall" {
		t.Errorf("instant event wrong: %+v", inst)
	}
	if f.OtherData.ClockDomain != "simulated-cycles" {
		t.Errorf("clockDomain = %q", f.OtherData.ClockDomain)
	}
	// Attribution buckets must sum to the hart totals.
	if len(f.OtherData.HartTotals) != 1 || f.OtherData.HartTotals[0].Cycles != 100 {
		t.Fatalf("hartTotals = %+v", f.OtherData.HartTotals)
	}
	var sum uint64
	for _, row := range f.OtherData.Attribution {
		for k, v := range row {
			switch k {
			case "pid", "hart", "cvm", "cycles":
				continue
			}
			n, err := v.Int64()
			if err != nil {
				t.Fatalf("bucket %q: %v", k, err)
			}
			sum += uint64(n)
		}
	}
	if sum != 100 {
		t.Errorf("attribution buckets sum to %d, want 100", sum)
	}
}

func TestExportDeterminism(t *testing.T) {
	build := func() *Sink {
		s := New(Config{TraceEvents: 8})
		sc := s.Scope()
		f := NewFlightRecorder(2, 4)
		sc.Attach(f)
		sc.AttrSwitch(0, 5, 1, AttrSMEntry)
		f.Ring(0).Span(EvWorldEnter, 5, 9, 1, 0, "")
		sc.AttrSwitch(0, 9, 1, AttrGuest)
		f.Ring(1).Record(11, EvTrap, NoCVM, 2, 0, "x")
		f.Ring(1).Span(EvHVCall, 12, 15, NoCVM, 1, "create-cvm")
		sc.Counter("sm/hvcalls").Inc()
		sc.AttrFlush(0, 20)
		sc.AttrFlush(1, 20)
		return s
	}
	var a, b, at, bt, ar, br bytes.Buffer
	sa, sb := build(), build()
	if err := sa.ExportChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := sb.ExportChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("identical runs produced different Chrome traces:\n%s\n---\n%s", a.String(), b.String())
	}
	if err := sa.ExportTimeline(&at); err != nil {
		t.Fatal(err)
	}
	if err := sb.ExportTimeline(&bt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(at.Bytes(), bt.Bytes()) {
		t.Errorf("identical runs produced different timelines")
	}
	sa.Registry.Dump(&ar)
	sb.Registry.Dump(&br)
	if !bytes.Equal(ar.Bytes(), br.Bytes()) {
		t.Errorf("identical runs produced different registry dumps")
	}
}

func TestRegistryDumpStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Inc()
	r.Gauge("g").Set(5)
	r.Histogram("h").Observe(100)
	var buf bytes.Buffer
	r.Dump(&buf)
	want := "counter a"
	if got := buf.String(); len(got) == 0 || got[:9] != want {
		t.Errorf("dump should start with %q (sorted), got:\n%s", want, got)
	}
}
