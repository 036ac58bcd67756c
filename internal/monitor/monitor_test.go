package monitor

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zion/internal/telemetry"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	resp := w.Result()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestHealthzFlagsLivelockedHart: a hart whose simulated cycle counter
// stops moving while not done must turn /healthz 503 after the stall
// threshold, and naming the hart. Liveness is judged purely in the
// cycle domain — no wall clocks anywhere.
func TestHealthzFlagsLivelockedHart(t *testing.T) {
	s := New(nil, nil)
	h := s.Handler()

	// Hart 0 advances, hart 1 is wedged at cycle 500.
	for i := 0; i < stallThreshold+1; i++ {
		s.Update([]HartProgress{
			{Hart: 0, Cycles: uint64(1000 * (i + 1))},
			{Hart: 1, Cycles: 500},
		})
	}
	code, body := get(t, h, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d, want 503 for a livelocked hart (body %q)", code, body)
	}
	if !strings.Contains(body, "1") || strings.Contains(body, "[0") {
		t.Errorf("stall report should name hart 1 only: %q", body)
	}

	// The wedged hart resuming progress clears the verdict.
	s.Update([]HartProgress{{Hart: 0, Cycles: 9000}, {Hart: 1, Cycles: 501}})
	if code, body = get(t, h, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d after recovery, want 200 (body %q)", code, body)
	}
}

// TestHealthzDoneHartIsNotStalled: a hart that finished its run reports
// Done and stops advancing — that is quiescence, not a livelock.
func TestHealthzDoneHartIsNotStalled(t *testing.T) {
	s := New(nil, nil)
	for i := 0; i < stallThreshold+2; i++ {
		s.Update([]HartProgress{{Hart: 0, Cycles: 7777, Done: true}})
	}
	code, body := get(t, s.Handler(), "/healthz")
	if code != http.StatusOK {
		t.Errorf("/healthz = %d for a done hart, want 200 (body %q)", code, body)
	}
}

// TestEndpoints: each route serves its snapshot slice; unknown harts 404.
func TestEndpoints(t *testing.T) {
	sink := telemetry.New(telemetry.Config{ProfilePeriod: 64})
	sc := sink.Scope()
	sc.Counter("sm/gate_calls").Inc()
	sc.Profiler(0).Sample(0x1000, "HS", telemetry.ProfTierSlow, 64)
	flight := telemetry.NewFlightRecorder(2, 8)
	flight.Ring(1).Record(42, telemetry.EvTrap, telemetry.NoCVM, 2, 0, "ecall")

	s := New(sink, flight)
	s.Update([]HartProgress{{Hart: 0, Cycles: 100}, {Hart: 1, Cycles: 200}})
	h := s.Handler()

	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"zion_monitor_updates 1",
		`zion_hart_cycles{hart="0"} 100`,
		`zion_hart_cycles{hart="1"} 200`,
		"zion_p0_sm_gate_calls 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if code, body = get(t, h, "/profile"); code != http.StatusOK || !strings.Contains(body, "pc=0x1000") {
		t.Errorf("/profile = %d %q", code, body)
	}
	if code, body = get(t, h, "/flight/1"); code != http.StatusOK || !strings.Contains(body, "ecall") {
		t.Errorf("/flight/1 = %d %q", code, body)
	}
	if code, _ = get(t, h, "/flight/7"); code != http.StatusNotFound {
		t.Errorf("/flight/7 = %d, want 404", code)
	}
	if code, _ = get(t, h, "/flight/bogus"); code != http.StatusNotFound {
		t.Errorf("/flight/bogus = %d, want 404", code)
	}
	if code, body = get(t, h, "/flight"); code != http.StatusOK ||
		!strings.Contains(body, "# hart 0") || !strings.Contains(body, "# hart 1") {
		t.Errorf("/flight = %d %q", code, body)
	}
}

// TestSnapshotImmutableAcrossUpdates: a body captured before an Update
// must not change underneath the reader — handlers serve the snapshot
// taken at the last consistent point, not live state.
func TestSnapshotImmutableAcrossUpdates(t *testing.T) {
	s := New(nil, nil)
	s.Update([]HartProgress{{Hart: 0, Cycles: 100}})
	before := s.Metrics()
	saved := append([]byte(nil), before...)
	s.Update([]HartProgress{{Hart: 0, Cycles: 200}})
	if !bytes.Equal(before, saved) {
		t.Error("earlier snapshot mutated by a later Update")
	}
	if bytes.Equal(s.Metrics(), saved) {
		t.Error("Update did not produce a fresh snapshot")
	}
}

// TestMetricsByteStable: identical state fed to two servers renders
// byte-identical bodies — the property that makes seeded runs scrape
// deterministically.
func TestMetricsByteStable(t *testing.T) {
	build := func() *Server {
		sink := telemetry.New(telemetry.Config{ProfilePeriod: 64})
		sc := sink.Scope()
		sc.Counter("sm/hvcalls").Add(7)
		sc.Gauge("hart0/tlb_hits").Set(123)
		sc.Histogram("sm/ws_entry_cycles").Observe(4000)
		sc.Profiler(0).Sample(0x2000, "VS", telemetry.ProfTierBlock, 64)
		s := New(sink, nil)
		s.Update([]HartProgress{{Hart: 0, Cycles: 500}})
		return s
	}
	a, b := build(), build()
	if !bytes.Equal(a.Metrics(), b.Metrics()) {
		t.Errorf("metrics bodies differ:\n--- a ---\n%s\n--- b ---\n%s", a.Metrics(), b.Metrics())
	}
	if !bytes.Equal(a.Profile(), b.Profile()) {
		t.Error("profile bodies differ for identical state")
	}
}

// TestServeAndClose: the real listener round-trips a scrape.
func TestServeAndClose(t *testing.T) {
	s := New(nil, nil)
	s.Update([]HartProgress{{Hart: 0, Cycles: 1, Done: true}})
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "ok") {
		t.Errorf("healthz over TCP = %d %q", resp.StatusCode, body)
	}
}

// TestNilComponentsAndNilServer: a monitor over a bare machine (no sink,
// no flight recorder) still serves, and a nil *Server ignores Update —
// callers keep the one nil-check contract.
func TestNilComponentsAndNilServer(t *testing.T) {
	var nilSrv *Server
	nilSrv.Update([]HartProgress{{Hart: 0, Cycles: 1}}) // must not panic

	s := New(nil, nil)
	s.Update(nil)
	if code, _ := get(t, s.Handler(), "/metrics"); code != http.StatusOK {
		t.Errorf("/metrics without a sink = %d", code)
	}
	if code, _ := get(t, s.Handler(), "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz without progress = %d", code)
	}
}
