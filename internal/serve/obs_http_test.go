package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"multihopbandit/internal/obs"
)

// newTracedServer builds a registry with decision-path tracing attached and
// an HTTP server over it.
func newTracedServer(t *testing.T) (*httptest.Server, *Client, *Registry, *obs.TraceRing) {
	t.Helper()
	ring := obs.NewTraceRing(4096)
	reg := NewRegistry(RegistryConfig{Shards: 2, Trace: ring})
	ts := httptest.NewServer(NewServer(reg))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return ts, NewClient(ts.URL), reg, ring
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// TestMetricsExpositionValidates is the golden-scrape gate of the
// observability plane: a live /metrics scrape from a serving workload must
// pass the strict exposition validator (HELP/TYPE pairing, counter
// monotonicity, histogram bucket invariants), parse back, and agree with
// the registry's own counters.
func TestMetricsExpositionValidates(t *testing.T) {
	ts, c, reg, _ := newTracedServer(t)
	if _, err := c.Create(InstanceConfig{ID: "a", Spec: gaussSpec(8, 2, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step("a", 64); err != nil {
		t.Fatal(err)
	}
	text := scrape(t, ts.URL+"/metrics")
	if err := obs.Validate(text); err != nil {
		t.Fatalf("live scrape failed validation: %v\n%s", err, text)
	}
	exp, err := obs.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := exp.Sum("banditd_slots_served_total"); got != float64(reg.Metrics().TotalSlots()) {
		t.Fatalf("exposed slots %v, registry says %d", got, reg.Metrics().TotalSlots())
	}
	if got := exp.Sum("banditd_decisions_total"); got != float64(reg.Metrics().TotalDecisions()) {
		t.Fatalf("exposed decisions %v, registry says %d", got, reg.Metrics().TotalDecisions())
	}
	// Regret is first-class: present without any opt-in flag.
	if _, ok := exp.Value("banditd_regret_kbps_total", obs.L("instance", "a")); !ok {
		t.Fatalf("regret family missing from default scrape:\n%s", text)
	}
	if _, ok := exp.Value("banditd_optimal_kbps", obs.L("instance", "a")); !ok {
		t.Fatal("optimal family missing from default scrape")
	}
	// The exposition parses as a document with HELP on every family.
	for _, name := range []string{"banditd_shards", "banditd_decide_phase_ns", "banditd_uptime_seconds"} {
		f, ok := exp.Families[name]
		if !ok || f.Help == "" {
			t.Fatalf("family %s missing or undocumented in scrape", name)
		}
	}
}

// TestMetricsTracingSurfaces checks the decision-path plane end to end
// through the serving runtime: spans land in the ring with instance and
// slot attribution, phase histograms populate, and the span phase sums
// account for the bulk of full-decide wall time (the CI gate asserts ≥95%
// on a real load; the bound here is slacker because micro-decides on a tiny
// test topology leave proportionally more residual).
func TestMetricsTracingSurfaces(t *testing.T) {
	ts, c, _, ring := newTracedServer(t)
	if _, err := c.Create(InstanceConfig{ID: "tr", Spec: gaussSpec(10, 2, 3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step("tr", 128); err != nil {
		t.Fatal(err)
	}
	if ring.Published() == 0 {
		t.Fatal("no spans published by a traced workload")
	}
	spans := ring.Snapshot(0)
	var fullTotal, fullPhases int64
	sawFull := false
	for _, s := range spans {
		if s.Instance != "tr" {
			t.Fatalf("span attributed to %q, want tr", s.Instance)
		}
		if s.Outcome == obs.OutcomeEpochSkip {
			continue
		}
		sawFull = true
		fullTotal += s.TotalNS
		fullPhases += s.BroadcastNS + s.ElectionNS + s.LocalMWISNS + s.FinalizeNS
	}
	if !sawFull {
		t.Fatal("no full-decide spans in 128 slots of a learning policy")
	}
	if fullPhases <= 0 || fullPhases > fullTotal {
		t.Fatalf("phase sum %d outside (0, total=%d]", fullPhases, fullTotal)
	}
	if cov := float64(fullPhases) / float64(fullTotal); cov < 0.80 {
		t.Errorf("span phase coverage %.2f, want >= 0.80", cov)
	}

	text := scrape(t, ts.URL+"/metrics")
	exp, err := obs.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"broadcast", "election", "local_mwis", "finalize", "total"} {
		n, ok := exp.Value("banditd_decide_phase_ns_count", obs.L("phase", phase))
		if !ok || n == 0 {
			t.Errorf("phase histogram %q empty in scrape", phase)
		}
	}
	if v, ok := exp.Value("banditd_trace_spans_total"); !ok || v == 0 {
		t.Error("trace span counter missing or zero")
	}
}
