// Package monitor is ZION's streaming observability endpoint: a small
// stdlib HTTP server exposing the live state of a running simulation —
// the metrics registry in Prometheus text exposition, the sampling
// profiler's folded stacks so far, each hart's flight-recorder ring, and
// a forward-progress health check.
//
// Scrape consistency: the server never renders from live simulation
// state. The driver calls Update at consistent points — quantum-barrier
// epoch transitions under the parallel engine (every hart parked at the
// rendezvous), scheduler-quantum boundaries under the sequential engine —
// and Update renders an immutable snapshot that HTTP handlers serve
// until the next one. A scrape therefore observes a cross-hart-consistent
// state, and two seeded runs scraped at the same quantum return
// byte-identical bodies.
//
// Liveness is judged in the simulated-cycle domain, never wall clock: a
// hart that reports the same cycle count across consecutive Updates
// while not done is stalled (livelocked or wedged), and /healthz turns
// 503 naming it.
package monitor

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"zion/internal/telemetry"
)

// HartProgress is one hart's forward-progress report, passed to Update.
type HartProgress struct {
	Hart   int
	Cycles uint64
	Done   bool // runner returned: no further progress is expected
}

// stallThreshold is how many consecutive no-progress Updates flag a
// hart as stalled. Two, not one: an Update pair can legitimately straddle
// a hart's own idle quantum, but a live hart always advances its cycle
// counter across two full quanta.
const stallThreshold = 2

// snapshot is one immutable render of the observability plane.
type snapshot struct {
	metrics []byte
	profile []byte
	flights map[int][]byte
	healthy bool
	stalled []int
	updates uint64
}

// Server owns the snapshot state and the HTTP listener. Construct with
// New, feed it Update at quantum boundaries, expose it with Serve (or
// mount Handler yourself).
type Server struct {
	sink   *telemetry.Sink           // may be nil: metrics/profile empty
	flight *telemetry.FlightRecorder // may be nil: flight rings absent

	mu     sync.Mutex
	snap   snapshot
	prev   map[int]uint64 // hart -> cycle count at previous update
	noMove map[int]int    // hart -> consecutive no-progress updates
	ln     net.Listener
}

// New builds a server over the given sink and flight recorder (either
// may be nil). The first snapshot is empty and healthy.
func New(sink *telemetry.Sink, flight *telemetry.FlightRecorder) *Server {
	return &Server{
		sink:   sink,
		flight: flight,
		prev:   make(map[int]uint64),
		noMove: make(map[int]int),
		snap:   snapshot{healthy: true},
	}
}

// Update renders a fresh snapshot from the current registry, profiler,
// and flight state plus the supplied per-hart progress reports. Call it
// only at consistent points (quantum barriers, scheduler-quantum exits);
// it is what gives scrapes their cross-hart consistency.
func (s *Server) Update(progress []HartProgress) {
	if s == nil {
		return
	}
	var met, prof bytes.Buffer
	s.mu.Lock()
	updates := s.snap.updates + 1
	// Forward-progress watchdog, simulated-cycle domain: a not-done hart
	// whose cycle counter did not move across stallThreshold consecutive
	// updates is stalled.
	var stalled []int
	for _, p := range progress {
		if p.Done {
			delete(s.noMove, p.Hart)
		} else if old, ok := s.prev[p.Hart]; ok && old == p.Cycles {
			s.noMove[p.Hart]++
		} else {
			s.noMove[p.Hart] = 0
		}
		s.prev[p.Hart] = p.Cycles
		if !p.Done && s.noMove[p.Hart] >= stallThreshold {
			stalled = append(stalled, p.Hart)
		}
	}
	s.mu.Unlock()

	renderProm(&met, s.sink, progress, updates)
	s.sink.ExportFoldedProfile(&prof)
	flights := make(map[int][]byte, s.flight.Harts())
	for i := 0; i < s.flight.Harts(); i++ {
		var fb bytes.Buffer
		s.flight.DumpHart(&fb, i)
		flights[i] = fb.Bytes()
	}

	s.mu.Lock()
	s.snap = snapshot{
		metrics: met.Bytes(),
		profile: prof.Bytes(),
		flights: flights,
		healthy: len(stalled) == 0,
		stalled: stalled,
		updates: updates,
	}
	s.mu.Unlock()
}

// current returns the latest snapshot.
func (s *Server) current() snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// Metrics returns the latest rendered /metrics body (CI artifact writers
// use this without going through HTTP).
func (s *Server) Metrics() []byte { return s.current().metrics }

// Profile returns the latest rendered /profile body (folded stacks).
func (s *Server) Profile() []byte { return s.current().profile }

// Handler returns the endpoint's HTTP mux:
//
//	/metrics        Prometheus text exposition of the registry
//	/profile        folded-stacks profile collected so far
//	/flight         every hart's flight ring
//	/flight/<hart>  one hart's flight ring
//	/healthz        200 "ok" or 503 naming the stalled harts
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(s.current().metrics)
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(s.current().profile)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		snap := s.current()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for i := 0; i < len(snap.flights); i++ {
			fmt.Fprintf(w, "# hart %d\n", i)
			w.Write(snap.flights[i])
		}
	})
	mux.HandleFunc("/flight/", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/flight/"))
		snap := s.current()
		body, ok := snap.flights[id]
		if err != nil || !ok {
			http.Error(w, "no such hart", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(body)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		snap := s.current()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if snap.healthy {
			fmt.Fprintf(w, "ok updates=%d\n", snap.updates)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "stalled harts: %v updates=%d\n", snap.stalled, snap.updates)
	})
	return mux
}

// Serve binds addr (":0" picks a free port) and serves the endpoint on a
// background goroutine. It returns the bound address for scrapers.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln) //nolint:errcheck // closed via Close; error is ErrServerClosed or listener teardown
	return ln.Addr().String(), nil
}

// Close stops the listener started by Serve (no-op otherwise).
func (s *Server) Close() {
	s.mu.Lock()
	ln := s.ln
	s.ln = nil
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// promName sanitizes a registry metric name into the Prometheus
// exposition alphabet [a-zA-Z0-9_:], prefixed "zion_".
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 5)
	b.WriteString("zion_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// renderProm writes the registry plus per-hart progress in Prometheus
// text exposition format. Registry points arrive pre-sorted, and the
// progress slice is in hart order, so the body is byte-stable for seeded
// runs scraped at the same quantum.
func renderProm(w *bytes.Buffer, sink *telemetry.Sink, progress []HartProgress, updates uint64) {
	fmt.Fprintf(w, "# TYPE zion_monitor_updates counter\nzion_monitor_updates %d\n", updates)
	for _, p := range progress {
		fmt.Fprintf(w, "zion_hart_cycles{hart=\"%d\"} %d\n", p.Hart, p.Cycles)
		done := 0
		if p.Done {
			done = 1
		}
		fmt.Fprintf(w, "zion_hart_done{hart=\"%d\"} %d\n", p.Hart, done)
	}
	if sink == nil {
		return
	}
	for _, pt := range sink.Registry.Points() {
		n := promName(pt.Name)
		switch pt.Kind {
		case "counter":
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, pt.Value)
		case "gauge":
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, pt.Value)
		case "hist":
			h := pt.Hist
			fmt.Fprintf(w, "# TYPE %s summary\n", n)
			fmt.Fprintf(w, "%s{quantile=\"0.5\"} %d\n", n, h.Quantile(0.50))
			fmt.Fprintf(w, "%s{quantile=\"0.99\"} %d\n", n, h.Quantile(0.99))
			fmt.Fprintf(w, "%s_count %d\n", n, h.Count())
			fmt.Fprintf(w, "%s_min %d\n", n, h.Min())
			fmt.Fprintf(w, "%s_max %d\n", n, h.Max())
		}
	}
}
