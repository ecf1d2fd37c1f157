package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"multihopbandit/internal/channel"
	"multihopbandit/internal/policy"
	"multihopbandit/internal/spec"
)

// short returns the workload's inputs for seed on a short schedule.
func short(t *testing.T, w *workload, seed int64) *inputs {
	t.Helper()
	in, err := generate(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	in.warmRounds, in.rounds = 1, 2
	return in
}

func mustRep(t *testing.T, in *inputs, r rung, tr *tracer, dir string) *rep {
	t.Helper()
	m, err := runRep(in, r, tr, dir, nil)
	if err != nil {
		t.Fatalf("%s rung: %v", r, err)
	}
	if m.failedOps() != 0 {
		t.Fatalf("%s rung: %d failed operations", r, m.failedOps())
	}
	return m
}

func TestGenerateIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 7)
		c, _ := generate(w, 8)
		if !reflect.DeepEqual(a.specs, b.specs) || !reflect.DeepEqual(a.ids, b.ids) {
			t.Errorf("%s: same seed generated different inputs", w.name)
		}
		// The instances are fixed; the run seed orders the requests.
		if !reflect.DeepEqual(a.specs, c.specs) {
			t.Errorf("%s: seeds 7 and 8 generated different instances", w.name)
		}
		if !reflect.DeepEqual(a.order, b.order) || reflect.DeepEqual(a.order, c.order) {
			t.Errorf("%s: request order is not a function of the seed: %v %v %v", w.name, a.order, b.order, c.order)
		}
		if got, want := len(a.specs), w.networks*w.replicas; got != want {
			t.Errorf("%s: %d instances, want %d", w.name, got, want)
		}
		// Replicas share the topology seed and differ in noise.
		for net := 0; net < w.networks; net++ {
			for r := 1; r < w.replicas; r++ {
				x, y := a.specs[net*w.replicas], a.specs[net*w.replicas+r]
				if x.Seed != y.Seed || x.NoiseSeed == y.NoiseSeed {
					t.Errorf("%s: network %d replica %d seeds %d/%d vs %d/%d", w.name, net, r, y.Seed, y.NoiseSeed, x.Seed, x.NoiseSeed)
				}
			}
		}
	}
}

func TestReplayDigestIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a := mustRep(t, short(t, w, 7), rungLoop, nil, "")
		b := mustRep(t, short(t, w, 7), rungLoop, nil, "")
		c := mustRep(t, short(t, w, 8), rungLoop, nil, "")
		if a.c.d != b.c.d {
			t.Errorf("%s: same seed, digests %x and %x", w.name, uint64(a.c.d), uint64(b.c.d))
		}
		if a.c.d == c.c.d {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %x", w.name, uint64(a.c.d))
		}
		in := short(t, w, 7)
		if a.c.slots != in.timedSlots() || a.c.attempted != in.timedOps() || int64(len(a.c.lat)) != in.timedOps() {
			t.Errorf("%s: timed %d slots / %d ops / %d samples, want %d / %d", w.name,
				a.c.slots, a.c.attempted, len(a.c.lat), in.timedSlots(), in.timedOps())
		}
	}
}

// Every rung of the ladder must answer exactly as the serial replay.
func TestRungsReproduceReplay(t *testing.T) {
	for _, w := range workloads {
		in := short(t, w, 3)
		ref := mustRep(t, in, rungLoop, nil, "")
		for _, r := range w.ladder() {
			got := mustRep(t, in, r, newTracer(r.String(), 1), filepath.Join(t.TempDir(), "data"))
			if got.c.d != ref.c.d {
				t.Errorf("%s: %s rung digest %x, replay %x", w.name, r, uint64(got.c.d), uint64(ref.c.d))
			}
			if w.durable && r != rungSession && got.walBytes == 0 {
				t.Errorf("%s: %s rung wrote no WAL bytes", w.name, r)
			}
			if (r == rungWire) != (got.wireBytes > 0) {
				t.Errorf("%s: %s rung moved %d wire bytes", w.name, r, got.wireBytes)
			}
		}
	}
}

// The timing wrappers must be invisible to the kernel: a traced loop is
// bit-identical to an untraced one, including on a dynamic channel (whose
// Tick the sampler wrapper must forward).
func TestWrappersAreTransparent(t *testing.T) {
	ge := *workloads[0]
	ge.name = "fleet-drift-gilbert-elliott"
	ge.scenario = func(topo, noise int64) spec.ScenarioSpec {
		s := workloads[0].scenario(topo, noise)
		s.Channel = spec.ChannelSpec{Kind: spec.ChannelGilbertElliott, M: 2}
		return s
	}
	for _, w := range append(append([]*workload(nil), workloads...), &ge) {
		in := short(t, w, 5)
		plain := mustRep(t, in, rungLoop, nil, "")
		tr := newTracer("loop-traced", 1)
		traced := mustRep(t, in, rungLoop, tr, "")
		if plain.c.d != traced.c.d {
			t.Errorf("%s: traced digest %x, untraced %x", w.name, uint64(traced.c.d), uint64(plain.c.d))
		}
		if plain.stats != traced.stats {
			t.Errorf("%s: decide stats differ: %+v vs %+v", w.name, traced.stats, plain.stats)
		}
		if tr.count[spanDecide] == 0 || tr.count[spanPolicyIndices] == 0 || tr.count[spanPolicyUpdate] == 0 {
			t.Errorf("%s: wrappers recorded no spans: %v", w.name, tr.count)
		}
		// The decider's observer runs on every timed decide.
		if tr.decides != tr.count[spanDecide] {
			t.Errorf("%s: decide observer saw %d decides, %d were timed", w.name, tr.decides, tr.count[spanDecide])
		}
		if want := in.timedSlots(); w.stepSlots > 0 && tr.count[spanStepSampled] != want {
			t.Errorf("%s: %d kernel spans, want one per slot, %d", w.name, tr.count[spanStepSampled], want)
		}
		if len(tr.stack) != 0 {
			t.Errorf("%s: %d spans left open", w.name, len(tr.stack))
		}
	}
}

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	zl, err := policy.NewZhouLi(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapPolicy(zl, nil).(policy.IndexWriter); !ok {
		t.Error("wrapped ZhouLi lost policy.IndexWriter")
	}
	var bare struct{ policy.Policy }
	bare.Policy = zl
	if _, ok := wrapPolicy(bare, nil).(policy.IndexWriter); ok {
		t.Error("wrapping added policy.IndexWriter to a policy without it")
	}
	src := spec.NoiseStream(1)
	ge, err := channel.NewGilbertElliott(channel.GEConfig{N: 2, M: 2}, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapSampler(ge, nil).(channel.Dynamic); !ok {
		t.Error("wrapped Gilbert-Elliott sampler lost channel.Dynamic")
	}
	m, err := channel.NewModel(channel.Config{N: 2, M: 2}, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapSampler(m, nil).(channel.Dynamic); ok {
		t.Error("wrapping made a stationary sampler dynamic")
	}
}

func TestPercentileAndSampleRule(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(n - i) // unsorted on purpose
		}
		return s
	}
	s := summarizeLatency(seq(100))
	if s.p50 != 50 || s.p99 != 99 || s.beyondP99 != 1 || s.supported {
		t.Errorf("100 samples: %+v", s)
	}
	s = summarizeLatency(seq(1000))
	if s.p50 != 500 || s.p99 != 990 || s.beyondP99 != 10 || !s.supported {
		t.Errorf("1000 samples: %+v", s)
	}
	if s := summarizeLatency(seq(999)); s.beyondP99 != 9 || s.supported {
		t.Errorf("999 samples: %+v", s)
	}
	if s := summarizeLatency(nil); s.samples != 0 || s.supported {
		t.Errorf("no samples: %+v", s)
	}
}

// The tail is the median of per-group p99s, so one repetition that caught
// a stall does not set it.
func TestGroupedP99(t *testing.T) {
	withTail := func(tail int64) *rep {
		lat := make([]int64, 600)
		for i := range lat {
			lat[i] = int64(i)
		}
		for i := 590; i < 600; i++ {
			lat[i] = tail
		}
		return &rep{c: &caller{lat: lat}}
	}
	// Groups of two repetitions (1200 samples, 12 beyond p99); the seventh
	// repetition is a remainder and is dropped.
	reps := []*rep{withTail(1000), withTail(1000), withTail(50000), withTail(50000), withTail(1000), withTail(1000), withTail(7)}
	p99, groups, least := groupedP99(reps, 1000)
	if groups != 3 || least.samples != 1200 || least.beyondP99 != 12 || !least.supported {
		t.Fatalf("groups %d, least %+v", groups, least)
	}
	if p99 != 1000 {
		t.Errorf("p99 = %v, want 1000", p99)
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestFailureAccounting(t *testing.T) {
	for _, c := range []struct {
		attempted, failed int64
		want              float64
		err               bool
	}{
		{100, 0, 1, false},
		{100, 5, 0.95, false},
		{3, 3, 0, false},
		{0, 0, 0, true},
		{10, 11, 0, true},
		{10, -1, 0, true},
	} {
		got, err := okFrac(c.attempted, c.failed)
		if (err != nil) != c.err || (!c.err && got != c.want) {
			t.Errorf("okFrac(%d, %d) = %v, %v", c.attempted, c.failed, got, err)
		}
	}
	// WAL errors and wire decode errors count as failed operations even
	// when every request succeeded.
	r := &rep{c: &caller{attempted: 10, failed: 1}, walErrors: 2, wireDecodeErrors: 3}
	if got := r.failedOps(); got != 6 {
		t.Errorf("failedOps = %d, want 6", got)
	}
	// A wrong digest or any failed operation fails the run.
	for _, c := range []struct {
		res  result
		pass bool
	}{
		{result{Correct: true, Attempted: 10}, true},
		{result{Correct: false, Attempted: 10}, false},
		{result{Correct: true, Attempted: 10, Failed: 1}, false},
	} {
		if err := c.res.verdict(); (err == nil) != c.pass {
			t.Errorf("verdict(correct=%v, failed=%d) = %v", c.res.Correct, c.res.Failed, err)
		}
	}
}

// A result line must carry exactly the metrics BENCHMARK.json lists, with
// its units: the end-to-end ones untraced, the per-layer ones traced.
func TestResultsMatchBenchmarkFile(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	units := func(res *result) map[string]string {
		got := map[string]string{}
		for name, v := range res.Metrics {
			got[name] = v.Unit
		}
		return got
	}
	// paper-scale is left out for its set-up time; its result comes from
	// the same code.
	for _, w := range []*workload{workloads[0], workloads[2]} {
		dir := t.TempDir()
		b := &bench{in: short(t, w, 1), seconds: time.Millisecond, buildDir: dir, dataDir: filepath.Join(dir, "data")}
		res, err := b.endToEnd()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || !reflect.DeepEqual(units(res), endToEnd) {
			t.Errorf("%s untraced: correct %v, failed %d, metrics %v; want %v", w.name, res.Correct, res.Failed, units(res), endToEnd)
		}
		res, err = b.traced()
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || !reflect.DeepEqual(units(res), perLayer) {
			t.Errorf("%s traced: correct %v, failed %d, metrics %v; want %v", w.name, res.Correct, res.Failed, units(res), perLayer)
		}
	}
}
