package serve

import (
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"multihopbandit/internal/spec"
)

// gaussSpec is the baseline test scenario: a connected random network with
// the paper's gaussian channels.
func gaussSpec(n, m int, seed int64) spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Seed:     seed,
		Topology: spec.TopologySpec{N: n, RequireConnected: true},
		Channel:  spec.ChannelSpec{M: m},
	}
}

func testConfig() InstanceConfig {
	return InstanceConfig{Spec: gaussSpec(8, 2, 1)}
}

func TestCreateDefaultsAndInfo(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Shards: 4})
	defer reg.Close()
	h, err := reg.Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := h.Spec()
	if s.V != spec.Version {
		t.Fatalf("spec version not pinned: %+v", s)
	}
	if s.Decision.R != 2 || s.Decision.D != 4 || s.Decision.UpdateEvery != 1 {
		t.Fatalf("decision defaults not filled: %+v", s.Decision)
	}
	if s.Policy.Kind != spec.PolicyZhouLi || s.Channel.Kind != spec.ChannelGaussian || s.Channel.Sigma != 0.05 {
		t.Fatalf("kind defaults not filled: %+v", s)
	}
	if s.Topology.Kind != spec.TopologyRandom || s.Topology.TargetDegree != 6 {
		t.Fatalf("topology defaults not filled: %+v", s.Topology)
	}
	if s.NoiseSeed != s.Seed {
		t.Fatalf("noise seed defaulted to %d, want %d", s.NoiseSeed, s.Seed)
	}
	if got := h.Config(); got.ID != h.ID() || got.Spec != s {
		t.Fatalf("config = %+v", got)
	}
	info, err := h.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.K != 16 || info.Policy != "zhou-li" || info.Channel != "gaussian" || info.Slot != 0 {
		t.Fatalf("info = %+v", info)
	}
	if info.Shard != h.Shard() {
		t.Fatalf("info shard %d, handle shard %d", info.Shard, h.Shard())
	}
}

func TestCreateValidation(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	defer reg.Close()
	mod := func(f func(*spec.ScenarioSpec)) InstanceConfig {
		s := gaussSpec(8, 2, 1)
		f(&s)
		return InstanceConfig{Spec: s}
	}
	bad := []InstanceConfig{
		mod(func(s *spec.ScenarioSpec) { s.Topology.N = 0 }),
		mod(func(s *spec.ScenarioSpec) { s.Channel.M = 0 }),
		mod(func(s *spec.ScenarioSpec) { s.Decision.UpdateEvery = -1 }),
		mod(func(s *spec.ScenarioSpec) { s.Channel.Sigma = -0.1 }),
		mod(func(s *spec.ScenarioSpec) { s.Decision.R = -1 }),
		mod(func(s *spec.ScenarioSpec) { s.Policy.Kind = "no-such-policy" }),
		mod(func(s *spec.ScenarioSpec) { s.Policy = spec.PolicySpec{Kind: spec.PolicyDiscountedZhouLi, Gamma: 1.5} }),
		mod(func(s *spec.ScenarioSpec) { s.Channel.Kind = "no-such-channel" }),
		mod(func(s *spec.ScenarioSpec) { s.Channel.Period = 10 }), // gaussian has no period
		mod(func(s *spec.ScenarioSpec) { s.V = 99 }),
	}
	for i, cfg := range bad {
		if _, err := reg.Create(cfg); err == nil {
			t.Errorf("config %d (%+v) should be rejected", i, cfg.Spec)
		}
	}

	// The rejections carry the spec package's typed errors.
	_, err := reg.Create(mod(func(s *spec.ScenarioSpec) { s.Policy.Kind = "no-such-policy" }))
	var ke *spec.KindError
	if !errors.As(err, &ke) || ke.Field != "policy.kind" {
		t.Fatalf("unknown policy error = %v, want KindError on policy.kind", err)
	}
	_, err = reg.Create(mod(func(s *spec.ScenarioSpec) { s.V = 99 }))
	var ve *spec.VersionError
	if !errors.As(err, &ve) || ve.Got != 99 {
		t.Fatalf("version error = %v, want VersionError", err)
	}
}

// TestInstanceConfigRejectsUnknownFields pins strict decoding: an unknown
// field at the top level or inside the spec fails, and so does the retired
// pre-spec flat shape, whose fields InstanceConfig does not define.
func TestInstanceConfigRejectsUnknownFields(t *testing.T) {
	for _, body := range []string{
		`{"n":8,"m":2,"frobnicate":true}`,
		`{"id":"flat","n":8,"m":2,"seed":1}`,
		`{"spec":{"seed":1,"topology":{"n":8},"channel":{"m":2}},"bogus":1}`,
		`{"spec":{"seed":1,"topology":{"n":8},"channel":{"m":2},"bogus":1}}`,
	} {
		var cfg InstanceConfig
		if err := json.Unmarshal([]byte(body), &cfg); err == nil {
			t.Errorf("%s decoded without error", body)
		}
	}
}

// TestDistnetExecutionRejected: the serving runtime hosts only the
// lock-step decider; a spec opting into the distnet execution is refused
// with the typed error (it is a simulator/bench configuration).
func TestDistnetExecutionRejected(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	defer reg.Close()
	cfg := testConfig()
	cfg.Spec.Decision.Execution = spec.ExecutionDistnet
	if _, err := reg.Create(cfg); !errors.Is(err, ErrExecutionUnsupported) {
		t.Fatalf("distnet create: err = %v, want ErrExecutionUnsupported", err)
	}
}

func TestDuplicateID(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	defer reg.Close()
	cfg := testConfig()
	cfg.ID = "dup"
	if _, err := reg.Create(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(cfg); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: err = %v, want ErrExists", err)
	}
}

func TestArtifactSharingAcrossInstances(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	defer reg.Close()
	for i := 0; i < 8; i++ {
		cfg := testConfig()
		cfg.Spec.NoiseSeed = int64(100 + i)
		if _, err := reg.Create(cfg); err != nil {
			t.Fatal(err)
		}
	}
	// Same artifact key across channel kinds and policies: a Gilbert–Elliott
	// ε-greedy replica still shares the build.
	cfg := testConfig()
	cfg.Spec.Channel.Kind = spec.ChannelGilbertElliott
	cfg.Spec.Policy = spec.PolicySpec{Kind: spec.PolicyEpsGreedy}
	if _, err := reg.Create(cfg); err != nil {
		t.Fatal(err)
	}
	st := reg.Cache().Stats()
	if st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache stats = %+v, want one build shared by 9 instances", st)
	}
	if st.Hits != 8 {
		t.Fatalf("cache hits = %d, want 8", st.Hits)
	}
}

func TestListAndRemove(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Shards: 3})
	defer reg.Close()
	ids := []string{"a", "b", "c"}
	for _, id := range ids {
		cfg := testConfig()
		cfg.ID = id
		if _, err := reg.Create(cfg); err != nil {
			t.Fatal(err)
		}
	}
	infos := reg.List()
	if len(infos) != 3 {
		t.Fatalf("list returned %d instances", len(infos))
	}
	for i, id := range ids {
		if infos[i].ID != id {
			t.Fatalf("list not sorted: %v", infos)
		}
	}
	if err := reg.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Remove("b"); err == nil {
		t.Fatal("double remove should fail")
	}
	if _, ok := reg.Get("b"); ok {
		t.Fatal("removed instance still resolvable")
	}
	if len(reg.List()) != 2 {
		t.Fatal("list after remove")
	}
}

func TestClosedInstanceErrors(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	h, err := reg.Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Remove(h.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Step(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("step on closed instance: %v", err)
	}
	if _, err := h.Assignment(); !errors.Is(err, ErrClosed) {
		t.Fatalf("assignment on closed instance: %v", err)
	}
	if err := h.PushObservations([]ObservationBatch{{}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("push on closed instance: %v", err)
	}
}

func TestPushObservationsAsync(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	defer reg.Close()
	h, err := reg.Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	as, err := h.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	rewards := make([]float64, len(as.Winners))
	for i := range rewards {
		rewards[i] = 0.5
	}
	for r := 0; r < 10; r++ {
		if err := h.PushObservations([]ObservationBatch{{Played: as.Winners, Rewards: rewards}}); err != nil {
			t.Fatal(err)
		}
	}
	// The mailbox serializes: a subsequent synchronous request observes all
	// queued batches applied.
	info, err := h.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Slot != 10 || info.Observations != 10 {
		t.Fatalf("async observations not applied: %+v", info)
	}
	// A bad async batch surfaces only in the error counter.
	if err := h.PushObservations([]ObservationBatch{{Played: []int{9999}, Rewards: []float64{1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Info(); err != nil {
		t.Fatal(err)
	}
	errs := reg.Metrics().Shards[h.Shard()].ObservationErrors.Load()
	if errs != 1 {
		t.Fatalf("observation errors = %d, want 1", errs)
	}
}

func TestObserveValidation(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	defer reg.Close()
	h, err := reg.Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Observe(nil); err == nil {
		t.Fatal("empty observe should fail")
	}
	if _, err := h.Observe([]ObservationBatch{{Played: []int{1, 2}, Rewards: []float64{0.5}}}); err == nil {
		t.Fatal("mismatched batch should fail")
	}
	if _, err := h.Observe([]ObservationBatch{{Played: []int{-1}, Rewards: []float64{0.5}}}); err == nil {
		t.Fatal("out-of-range arm should fail")
	}
	if _, err := h.Step(0); err == nil {
		t.Fatal("zero-slot step should fail")
	}
	// A bad reward is rejected before anything is applied, so the
	// instance keeps deciding.
	for i, x := range []float64{-100, math.NaN(), math.Inf(1)} {
		_, err := h.Observe([]ObservationBatch{
			{Played: []int{0}, Rewards: []float64{0.5}},
			{Played: []int{0}, Rewards: []float64{x}},
		})
		if err == nil {
			t.Fatalf("reward %v should fail", x)
		}
		res, err := h.Step(1)
		if err != nil {
			t.Fatalf("step after rejected reward %v: %v", x, err)
		}
		if res.Slot != i+1 {
			t.Fatalf("slot %d after rejected reward %v, want %d", res.Slot, x, i+1)
		}
	}
}

// TestConcurrentInstancesAreIndependent runs many replicas concurrently and
// checks every replica's trajectory matches its serial twin — the actor
// confinement claim under the race detector.
func TestConcurrentInstancesAreIndependent(t *testing.T) {
	const replicas = 16
	reg := NewRegistry(RegistryConfig{Shards: 4})
	defer reg.Close()
	var wg sync.WaitGroup
	for i := 0; i < replicas; i++ {
		cfg := testConfig()
		cfg.Spec.NoiseSeed = int64(1000 + i)
		h, err := reg.Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h *Instance) {
			defer wg.Done()
			total := 0
			for total < 120 {
				res, err := h.Step(30)
				if err != nil {
					t.Error(err)
					return
				}
				total += res.Slots
			}
		}(h)
	}
	wg.Wait()
	if got := reg.Metrics().TotalSlots(); got != replicas*120 {
		t.Fatalf("total slots = %d, want %d", got, replicas*120)
	}
	if reg.Metrics().TotalDecisions() != replicas*120 {
		t.Fatalf("total decisions = %d, want %d (update every slot)", reg.Metrics().TotalDecisions(), replicas*120)
	}
}

// TestConcurrentRequestsOneInstance hammers a single actor from many
// goroutines; the mailbox must serialize them without loss.
func TestConcurrentRequestsOneInstance(t *testing.T) {
	reg := NewRegistry(RegistryConfig{MailboxDepth: 4})
	defer reg.Close()
	h, err := reg.Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const (
		clients = 8
		batches = 25
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if _, err := h.Step(2); err != nil {
					t.Error(err)
					return
				}
				if _, err := h.Assignment(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	info, err := h.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Slot != clients*batches*2 {
		t.Fatalf("slot = %d, want %d", info.Slot, clients*batches*2)
	}
}

// TestHistogram pins the serving histogram's quantile semantics after the
// switch to obs.Histogram: quantiles interpolate inside the log₂ bucket
// (nanosecond recording unit) instead of returning the bucket's upper
// bound, so a mass of identical observations reads back inside its own
// bucket rather than at up to 2× its value.
func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should read zero")
	}
	for i := 0; i < 100; i++ {
		h.ObserveDuration(100 * time.Microsecond)
	}
	h.ObserveDuration(50 * time.Millisecond)
	if h.Count() != 101 {
		t.Fatalf("count = %d", h.Count())
	}
	// 100µs = 100000ns sits in bucket [2^16, 2^17) = [65.5µs, 131.1µs); the
	// old upper-bound estimator reported 128µs (the µs-bucket edge) for a
	// value that is exactly 100µs. Interpolation must stay inside the bucket.
	p50 := h.Quantile(0.5)
	if p50 < 65536 || p50 >= 131072 {
		t.Fatalf("p50 = %.0fns, want inside the [65536, 131072) bucket", p50)
	}
	// q=1 is the max: its rank is the outlier's, so the estimate must land
	// in the outlier's bucket (50ms ∈ [2^25, 2^26)).
	p100 := h.Quantile(1)
	if p100 < 33554432 || p100 >= 67108864 {
		t.Fatalf("max quantile = %.0fns, should land in the outlier's bucket", p100)
	}
	if h.Mean() < 100000 {
		t.Fatalf("mean = %.0fns", h.Mean())
	}
}

// TestObserveAtomicValidation sends a request whose second batch is
// invalid: nothing may be applied (clients retry whole requests, so a
// half-applied request would silently double-apply batch 0 on retry).
func TestObserveAtomicValidation(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	defer reg.Close()
	h, err := reg.Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	as, err := h.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	rewards := make([]float64, len(as.Winners))
	good := ObservationBatch{Played: as.Winners, Rewards: rewards}
	bad := ObservationBatch{Played: []int{99999}, Rewards: []float64{0.5}}
	if _, err := h.Observe([]ObservationBatch{good, bad}); err == nil {
		t.Fatal("mixed request should be rejected")
	}
	info, err := h.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Slot != 0 || info.Observations != 0 {
		t.Fatalf("rejected request was partially applied: %+v", info)
	}
	if got := reg.Metrics().TotalSlots(); got != 0 {
		t.Fatalf("rejected request counted %d slots", got)
	}
}

// TestAutoIDSkipsTakenNames reserves an explicit "inst-1" and checks
// auto-generation steps over it instead of failing.
func TestAutoIDSkipsTakenNames(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	defer reg.Close()
	cfg := testConfig()
	cfg.ID = "inst-1"
	if _, err := reg.Create(cfg); err != nil {
		t.Fatal(err)
	}
	h, err := reg.Create(testConfig())
	if err != nil {
		t.Fatalf("auto-ID create should skip the taken name: %v", err)
	}
	if h.ID() == "inst-1" {
		t.Fatal("auto ID collided with the explicit one")
	}
	if len(reg.List()) != 2 {
		t.Fatalf("want 2 instances, have %v", reg.List())
	}
}

// TestListDoesNotBlockOnBusyInstance parks an instance behind a slow step
// batch and checks List still answers from the published snapshots.
func TestListDoesNotBlockOnBusyInstance(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	defer reg.Close()
	h, err := reg.Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	stepDone := make(chan struct{})
	go func() {
		defer close(stepDone)
		if _, err := h.Step(5000); err != nil {
			t.Error(err)
		}
	}()
	listDone := make(chan []InstanceInfo, 1)
	go func() { listDone <- reg.List() }()
	select {
	case infos := <-listDone:
		if len(infos) != 1 {
			t.Fatalf("list = %v", infos)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("List blocked behind a busy instance")
	}
	<-stepDone
}
