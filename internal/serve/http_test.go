package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"multihopbandit/internal/spec"
)

func newTestServer(t *testing.T) (*httptest.Server, *Client, *Registry) {
	t.Helper()
	reg := NewRegistry(RegistryConfig{Shards: 2})
	ts := httptest.NewServer(NewServer(reg))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return ts, NewClient(ts.URL), reg
}

// TestHTTPWorkflow exercises the full API surface over real HTTP: create,
// step, assignment, observe (sync + async), snapshot, restore, list, info,
// metrics, delete.
func TestHTTPWorkflow(t *testing.T) {
	_, c, _ := newTestServer(t)
	if err := c.WaitHealthy(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := InstanceConfig{ID: "w", Spec: gaussSpec(8, 2, 1)}
	cfg.Spec.Decision.UpdateEvery = 2
	created, err := c.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if created.ID != "w" || created.K != 16 || created.Policy != "zhou-li" ||
		created.Channel != "gaussian" || created.UpdateEvery != 2 {
		t.Fatalf("create response = %+v", created)
	}

	step, err := c.Step("w", 50)
	if err != nil {
		t.Fatal(err)
	}
	if step.Slots != 50 || step.Slot != 50 || step.Decisions != 25 {
		t.Fatalf("step = %+v, want 50 slots, 25 decisions (y=2)", step)
	}
	if step.Observed <= 0 {
		t.Fatalf("step observed %v, want positive throughput", step.Observed)
	}

	as, err := c.Assignment("w")
	if err != nil {
		t.Fatal(err)
	}
	if as.Slot != 50 || len(as.Strategy) != 8 {
		t.Fatalf("assignment = %+v", as)
	}

	rewards := make([]float64, len(as.Winners))
	for i := range rewards {
		rewards[i] = 0.4
	}
	obs, err := c.Observe("w", []ObservationBatch{{Played: as.Winners, Rewards: rewards}})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Applied != 1 || obs.Slot != 51 {
		t.Fatalf("observe = %+v", obs)
	}

	snap, err := c.Snapshot("w")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Slot != 51 || snap.Learner.Policy != "zhou-li" {
		t.Fatalf("snapshot = slot %d policy %q", snap.Slot, snap.Learner.Policy)
	}

	w2 := InstanceConfig{ID: "w2", Spec: cfg.Spec}
	if _, err := c.Create(w2); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore("w2", snap); err != nil {
		t.Fatal(err)
	}
	info, err := c.Info("w2")
	if err != nil {
		t.Fatal(err)
	}
	if info.Slot != 51 {
		t.Fatalf("restored info = %+v", info)
	}

	list, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != "w" || list[1].ID != "w2" {
		t.Fatalf("list = %+v", list)
	}

	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"banditd_shards 2",
		"banditd_slots_served_total",
		"banditd_decisions_total",
		"banditd_decide_full_total",
		"banditd_decide_epoch_skips_total",
		"banditd_decide_leader_skips_total",
		"banditd_decide_leader_sensitivity_skips_total",
		"banditd_decide_leader_resolves_total",
		"banditd_decide_memo_struct_hits_total",
		"banditd_decide_memo_misses_total",
		"banditd_decide_budget_stops_total",
		"banditd_decide_mini_rounds_total",
		"banditd_decide_mini_timeslots_total",
		"banditd_artifact_cache_hits_total 1",
		`banditd_request_duration_seconds{op="step",quantile="0.50"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	if err := c.Delete("w"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Info("w"); err == nil {
		t.Fatal("info on deleted instance should 404")
	}
}

// TestHTTPSnapshotRestoreEpsGreedy snapshots a randomized-policy instance
// over HTTP, restores it into a fresh same-spec instance, and checks both
// continue bit-identically under the same observations: the snapshot
// carries the position of the policy's random stream.
func TestHTTPSnapshotRestoreEpsGreedy(t *testing.T) {
	_, c, _ := newTestServer(t)
	sp := gaussSpec(8, 2, 1)
	sp.Policy = spec.PolicySpec{Kind: spec.PolicyEpsGreedy, Epsilon: 0.5}
	if _, err := c.Create(InstanceConfig{ID: "orig", Spec: sp}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step("orig", 41); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot("orig")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Learner.Draws == 0 {
		t.Fatal("snapshot carries no random-stream position")
	}
	if _, err := c.Create(InstanceConfig{ID: "clone", Spec: sp}); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore("clone", snap); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 40; s++ {
		a, err := c.Assignment("orig")
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Assignment("clone")
		if err != nil {
			t.Fatal(err)
		}
		if a.Slot != b.Slot || !equalInts(a.Winners, b.Winners) || a.EstimatedWeight != b.EstimatedWeight {
			t.Fatalf("round %d: diverged: %+v vs %+v", s, a, b)
		}
		rewards := make([]float64, len(a.Winners))
		for i := range rewards {
			rewards[i] = float64((s+i)%10) / 10
		}
		batch := []ObservationBatch{{Played: a.Winners, Rewards: rewards}}
		if _, err := c.Observe("orig", batch); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Observe("clone", batch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHTTPSpecCreateRichModels creates Gilbert–Elliott and shifting
// instances over HTTP from spec-form payloads — the serving surface the
// spec redesign unlocks.
func TestHTTPSpecCreateRichModels(t *testing.T) {
	_, c, _ := newTestServer(t)
	ge := InstanceConfig{ID: "ge", Spec: spec.ScenarioSpec{
		Seed:     11,
		Topology: spec.TopologySpec{Kind: spec.TopologyGrid, Rows: 3, Cols: 3},
		Channel:  spec.ChannelSpec{Kind: spec.ChannelGilbertElliott, M: 2},
	}}
	created, err := c.Create(ge)
	if err != nil {
		t.Fatal(err)
	}
	if created.Channel != "gilbert-elliott" || created.N != 9 {
		t.Fatalf("create = %+v", created)
	}
	shift := InstanceConfig{ID: "shift", Spec: spec.ScenarioSpec{
		Seed:     12,
		Topology: spec.TopologySpec{N: 8, RequireConnected: true},
		Channel:  spec.ChannelSpec{Kind: spec.ChannelShifting, M: 2, Period: 25},
	}}
	if _, err := c.Create(shift); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"ge", "shift"} {
		step, err := c.Step(id, 32)
		if err != nil {
			t.Fatalf("step %s: %v", id, err)
		}
		if step.Decisions == 0 || step.Observed <= 0 {
			t.Fatalf("step %s = %+v, want decisions and throughput", id, step)
		}
	}
}

func TestHTTPAsyncObservations(t *testing.T) {
	ts, c, _ := newTestServer(t)
	if _, err := c.Create(InstanceConfig{ID: "a", Spec: gaussSpec(8, 2, 1)}); err != nil {
		t.Fatal(err)
	}
	as, err := c.Assignment("a")
	if err != nil {
		t.Fatal(err)
	}
	rewards := make([]float64, len(as.Winners))
	body := `{"batches":[{"played":[` + intsCSV(as.Winners) + `],"rewards":[` + zerosCSV(len(rewards)) + `]}]}`
	resp, err := http.Post(ts.URL+"/v1/instances/a/observations?async=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async observe status = %d", resp.StatusCode)
	}
	info, err := c.Info("a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Slot != 1 {
		t.Fatalf("async batch not applied: %+v", info)
	}
}

func intsCSV(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func zerosCSV(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = "0.1"
	}
	return strings.Join(parts, ",")
}

// TestHTTPErrorCodes checks every failure class carries its structured
// {"code","message"} payload and the typed client surfaces the code — a
// failed create and a missing instance are distinguishable without string
// matching.
func TestHTTPErrorCodes(t *testing.T) {
	ts, c, _ := newTestServer(t)

	// Missing instance → not_found.
	_, err := c.Step("nope", 1)
	if ErrorCode(err) != CodeNotFound {
		t.Fatalf("step on unknown instance: code %q (err %v), want %q", ErrorCode(err), err, CodeNotFound)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("step on unknown instance: %v, want APIError with 404", err)
	}

	// Invalid spec → invalid_spec.
	bad := InstanceConfig{Spec: gaussSpec(8, 2, 1)}
	bad.Spec.Policy.Kind = "no-such-policy"
	_, err = c.Create(bad)
	if ErrorCode(err) != CodeInvalidSpec {
		t.Fatalf("invalid spec create: code %q (err %v), want %q", ErrorCode(err), err, CodeInvalidSpec)
	}

	// Duplicate explicit ID → already_exists.
	dup := InstanceConfig{ID: "dup", Spec: gaussSpec(8, 2, 1)}
	if _, err := c.Create(dup); err != nil {
		t.Fatal(err)
	}
	_, err = c.Create(dup)
	if ErrorCode(err) != CodeAlreadyExists {
		t.Fatalf("duplicate create: code %q (err %v), want %q", ErrorCode(err), err, CodeAlreadyExists)
	}

	// Closed instance → instance_closed.
	if err := c.Delete("dup"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Step("dup", 1)
	if ErrorCode(err) != CodeNotFound {
		t.Fatalf("step on deleted instance: code %q, want %q", ErrorCode(err), CodeNotFound)
	}

	// Malformed body → invalid_request, as structured JSON (not plain text).
	resp, err := http.Post(ts.URL+"/v1/instances", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("error content-type = %q, want JSON", ct)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, c, _ := newTestServer(t)
	// Unknown instance.
	if _, err := c.Step("nope", 1); err == nil || !strings.Contains(err.Error(), "no instance") {
		t.Fatalf("step on unknown instance: %v", err)
	}
	// Bad JSON body.
	resp, err := http.Post(ts.URL+"/v1/instances", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", resp.StatusCode)
	}
	// Unknown field rejected (top level).
	resp, err = http.Post(ts.URL+"/v1/instances", "application/json", strings.NewReader(`{"n":8,"m":2,"frobnicate":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d", resp.StatusCode)
	}
	// Unknown field rejected (spec shape).
	resp, err = http.Post(ts.URL+"/v1/instances", "application/json",
		strings.NewReader(`{"spec":{"seed":1,"topology":{"n":8},"channel":{"m":2},"bogus":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown spec field status = %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/instances/x/step")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET step status = %d", resp.StatusCode)
	}
	// Unknown route.
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route status = %d", resp.StatusCode)
	}
	// Invalid config via HTTP.
	badSpec := gaussSpec(8, 2, 1)
	badSpec.Topology.N = -1
	if _, err := c.Create(InstanceConfig{Spec: badSpec}); err == nil {
		t.Fatal("invalid config should fail")
	}
}
