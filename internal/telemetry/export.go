package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event JSON (the format Perfetto and chrome://tracing load).
// Spans become "X" (complete) events, instants become "i"; the simulated
// cycle domain maps onto the format's microsecond timestamps one cycle =
// one "us", which only relabels the axis. Attribution rows and hart totals
// ride along in otherData so a trace file is self-contained.
//
// Determinism: events are emitted in the armed rings' merged (Cycle, PID,
// TID) order, rows are pre-sorted, and encoding/json serializes struct
// fields in declaration order — two identical seeded runs produce
// byte-identical files.

// chromeEvent is one trace_event entry.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Ts   uint64          `json:"ts"`
	Dur  *uint64         `json:"dur,omitempty"`
	PID  int32           `json:"pid"`
	TID  int32           `json:"tid"`
	S    string          `json:"s,omitempty"` // instant scope ("t" = thread)
	Args chromeEventArgs `json:"args"`
}

type chromeEventArgs struct {
	CVM  int32  `json:"cvm"`
	Arg  uint64 `json:"arg"`
	Note string `json:"note,omitempty"`
}

// chromeAttrRow mirrors AttrRow with named buckets for readability.
type chromeAttrRow struct {
	PID     int32             `json:"pid"`
	Hart    int32             `json:"hart"`
	CVM     int32             `json:"cvm"`
	Cycles  uint64            `json:"cycles"`
	Buckets map[string]uint64 `json:"-"`
}

// MarshalJSON emits buckets in AttrBucket order (maps would randomize).
func (r chromeAttrRow) MarshalJSON() ([]byte, error) {
	buf := fmt.Appendf(nil, `{"pid":%d,"hart":%d,"cvm":%d,"cycles":%d`,
		r.PID, r.Hart, r.CVM, r.Cycles)
	for b := AttrBucket(0); b < NumAttrBuckets; b++ {
		name, _ := json.Marshal(b.String())
		buf = fmt.Appendf(buf, `,%s:%d`, name, r.Buckets[b.String()])
	}
	return append(buf, '}'), nil
}

type chromeHartTotal struct {
	PID    int32  `json:"pid"`
	Hart   int32  `json:"hart"`
	Cycles uint64 `json:"cycles"`
}

type chromeOtherData struct {
	ClockDomain string            `json:"clockDomain"`
	Dropped     uint64            `json:"droppedEvents"`
	Attribution []chromeAttrRow   `json:"attribution"`
	HartTotals  []chromeHartTotal `json:"hartTotals"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent   `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
	OtherData       chromeOtherData `json:"otherData"`
}

// tracedEvent is one ring record placed in its export stream.
type tracedEvent struct {
	Event
	PID, TID int32
}

// events merges the armed machines' rings ordered by (Cycle, PID, TID),
// each ring oldest first, and counts the records the rings have evicted.
// The order is a pure function of the simulated-cycle timestamps, so
// identical seeded runs produce identical exports regardless of host
// goroutine scheduling.
func (s *Sink) events() (out []tracedEvent, dropped uint64) {
	s.mu.Lock()
	machines := s.machines
	s.mu.Unlock()
	for _, m := range machines {
		for i, r := range m.f.rings {
			evs, n := r.snapshot(0)
			for _, e := range evs {
				out = append(out, tracedEvent{Event: e, PID: m.pid, TID: int32(i)})
			}
			dropped += n - uint64(len(evs))
		}
	}
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
	return out, dropped
}

// ExportChromeTrace writes the armed machines' event rings and the
// attribution table as Chrome trace_event JSON. Callers must AttrFlush
// each live hart first so the attribution rows sum to the hart totals.
func (s *Sink) ExportChromeTrace(w io.Writer) error {
	if s == nil {
		return nil
	}
	recs, dropped := s.events()
	events := make([]chromeEvent, 0, len(recs))
	for _, r := range recs {
		cat, name, note := r.trace()
		ev := chromeEvent{
			Name: name,
			Cat:  cat,
			Ts:   r.Cycle,
			PID:  r.PID,
			TID:  r.TID,
			Args: chromeEventArgs{CVM: r.CVM, Arg: r.A, Note: note},
		}
		if eventKinds[r.Kind].span {
			ev.Ph = "X"
			dur := r.Dur
			ev.Dur = &dur
		} else {
			ev.Ph = "i"
			ev.S = "t"
		}
		events = append(events, ev)
	}
	rows, totals := s.Attr.Rows()
	crows := make([]chromeAttrRow, 0, len(rows))
	for _, r := range rows {
		buckets := make(map[string]uint64, NumAttrBuckets)
		for b := AttrBucket(0); b < NumAttrBuckets; b++ {
			buckets[b.String()] = r.Buckets[b]
		}
		crows = append(crows, chromeAttrRow{
			PID: r.PID, Hart: r.Hart, CVM: r.CVM,
			Cycles: r.Total(), Buckets: buckets,
		})
	}
	ctotals := make([]chromeHartTotal, 0, len(totals))
	for _, t := range totals {
		ctotals = append(ctotals, chromeHartTotal{PID: t.PID, Hart: t.Hart, Cycles: t.Cycles})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ns",
		OtherData: chromeOtherData{
			ClockDomain: "simulated-cycles",
			Dropped:     dropped,
			Attribution: crows,
			HartTotals:  ctotals,
		},
	})
}

// ExportTimeline writes a plain-text, human-scannable rendering of the
// armed rings (merged oldest-first) followed by the attribution table.
func (s *Sink) ExportTimeline(w io.Writer) error {
	if s == nil {
		return nil
	}
	recs, dropped := s.events()
	for _, r := range recs {
		cvm := "-"
		if r.CVM != NoCVM {
			cvm = fmt.Sprintf("cvm%d", r.CVM)
		}
		cat, name, note := r.trace()
		if eventKinds[r.Kind].span {
			fmt.Fprintf(w, "%12d +%-8d p%d/h%d %-8s %-24s %-6s arg=%#x", r.Cycle, r.Dur, r.PID, r.TID, cat, name, cvm, r.A)
		} else {
			fmt.Fprintf(w, "%12d %9s p%d/h%d %-8s %-24s %-6s arg=%#x", r.Cycle, "", r.PID, r.TID, cat, name, cvm, r.A)
		}
		if note != "" {
			fmt.Fprintf(w, " %q", note)
		}
		fmt.Fprintln(w)
	}
	if dropped > 0 {
		fmt.Fprintf(w, "(%d older events dropped by ring overflow)\n", dropped)
	}
	rows, totals := s.Attr.Rows()
	if len(rows) > 0 {
		fmt.Fprintf(w, "\nper-CVM cycle attribution:\n")
		fmt.Fprintf(w, "%-4s %-4s %-6s", "pid", "hart", "cvm")
		for b := AttrBucket(0); b < NumAttrBuckets; b++ {
			fmt.Fprintf(w, " %12s", b)
		}
		fmt.Fprintf(w, " %14s\n", "total")
		for _, r := range rows {
			cvm := "-"
			if r.CVM != NoCVM {
				cvm = fmt.Sprintf("cvm%d", r.CVM)
			}
			fmt.Fprintf(w, "p%-3d h%-3d %-6s", r.PID, r.Hart, cvm)
			for _, v := range r.Buckets {
				fmt.Fprintf(w, " %12d", v)
			}
			fmt.Fprintf(w, " %14d\n", r.Total())
		}
		for _, t := range totals {
			fmt.Fprintf(w, "p%-3d h%-3d cycles attributed: %d\n", t.PID, t.Hart, t.Cycles)
		}
	}
	return nil
}
