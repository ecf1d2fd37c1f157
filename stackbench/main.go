// Command stackbench is the repository's benchmark: seeded, fixed-work
// workloads driven by one closed-loop caller through the real serving
// stack, every run checked against a serial core.Loop replay of the same
// inputs.
//
//	stackbench --workload fleet-drift --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of the workload's top
// rung; with --trace 1 it descends the layer ladder (wire, persisted
// session, session, core.Loop) and prints per-layer metrics. --aa N runs
// N seeds of every workload twice, interleaved, as child processes and
// reports whether the two sets agree within BENCHMARK.json's bounds. The
// last line of standard output is always the JSON result (or, in A/A mode,
// the A/A verdict); diagnostics go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"multihopbandit/internal/channel"
)

// Each run repeats the workload's fixed schedule at least minReps times
// (more if the pooled latencies need them for a supported p99) and at most
// maxReps times, as many as fit in --seconds, each against a freshly built
// stack, and reports medians over the repetitions.
const (
	minReps = 5
	maxReps = 100
	// minTraceRounds is the fewest times the traced run descends the whole
	// ladder; it descends again while --seconds last.
	minTraceRounds = 3
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("stackbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fleet-drift, paper-scale or observe-wire-durable")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measuring time per run")
	trace := fs.Int("trace", 0, "1 = traced layer-ladder run printing per-layer metrics")
	aa := fs.Int("aa", 0, "A/A mode: seeds per set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(1)
	if *aa > 0 {
		return runAA(*aa, *name, *seconds)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "stackbench: --trace must be 0 or 1")
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		return 1
	}
	b := &bench{
		seconds:  time.Duration(*seconds) * time.Second,
		buildDir: filepath.Join(cwd, ".bench_build"),
	}
	b.in, err = generate(w, *seed)
	if err == nil {
		b.dataDir = filepath.Join(b.buildDir, "stackbench-data", strconv.Itoa(os.Getpid()))
		var res *result
		if *trace == 1 {
			res, err = b.traced()
		} else {
			res, err = b.endToEnd()
		}
		if rmErr := os.RemoveAll(filepath.Dir(b.dataDir)); err == nil {
			err = rmErr
		}
		if err == nil {
			err = res.print()
		}
		if err == nil {
			err = res.verdict()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		return 1
	}
	return 0
}

type bench struct {
	in       *inputs
	seconds  time.Duration
	buildDir string
	dataDir  string
	ref      *rep // serial core.Loop replay
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	stamp *stamp
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// verdict fails a printed result whose outputs were wrong or whose
// operations failed: the line stands, but the run does not pass.
func (r *result) verdict() error {
	if !r.Correct || r.Failed != 0 {
		return fmt.Errorf("correct=%v, %d of %d operations failed", r.Correct, r.Failed, r.Attempted)
	}
	return nil
}

func (r *result) print() error {
	if r.stamp != nil {
		line, err := json.Marshal(map[string]*stamp{"stamp": r.stamp})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// replay computes the reference digest: the serial core.Loop replay of the
// generated inputs, outside every timed window.
func (b *bench) replay() error {
	ref, err := runRep(b.in, rungLoop, nil, "", nil)
	if err != nil {
		return fmt.Errorf("reference replay: %w", err)
	}
	if ref.c.failed != 0 {
		return fmt.Errorf("reference replay: %d operations failed", ref.c.failed)
	}
	b.ref = ref
	return nil
}

// check compares a repetition's digest with the replay's.
func (b *bench) check(r *rep, what string) bool {
	if r.c.d == b.ref.c.d {
		return true
	}
	fmt.Fprintf(os.Stderr, "stackbench: %s digest %016x != replay digest %016x\n", what, uint64(r.c.d), uint64(b.ref.c.d))
	return false
}

// endToEnd measures the workload's top rung with tracing off.
func (b *bench) endToEnd() (*result, error) {
	if err := b.replay(); err != nil {
		return nil, err
	}
	w := b.in.w
	top := w.topRung()
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	var (
		reps                                  []*rep
		slotsPerSec, cpuPerSlot, setup, heaps []float64
	)
	ops := int(b.in.timedOps())
	store, err := newSampleStore(maxReps * ops)
	if err != nil {
		return nil, err
	}
	defer store.close()
	// Nearest-rank p99 needs 100·minBeyondP99 samples to leave
	// minBeyondP99 beyond it.
	minOps := 100 * minBeyondP99
	need := max(minReps, (minOps+ops-1)/ops)
	deadline := time.Now().Add(b.seconds)
	for len(reps) < need || (len(reps) < maxReps && time.Now().Before(deadline)) {
		lat, err := store.next(ops)
		if err != nil {
			return nil, err
		}
		r, err := runRep(b.in, top, nil, b.dataDir, lat)
		if err != nil {
			return nil, fmt.Errorf("%s rung, repetition %d: %w", top, len(reps), err)
		}
		store.commit(r.c.lat)
		if !b.check(r, fmt.Sprintf("repetition %d", len(reps))) {
			res.Correct = false
		}
		reps = append(reps, r)
		res.Attempted += r.c.attempted
		res.Failed += r.failedOps()
		heaps = append(heaps, float64(r.heapLive)/(1<<20))
		setup = append(setup, r.setup.Seconds())
	}
	// The timed phase's medians come from the repetitions that ran at the
	// host's sustained speed; bursts above it would otherwise decide them.
	// Set-up is short and, when persisted, bound to the disk, so its median
	// takes every repetition. The tail uses every repetition too: the
	// slowest repetitions are also the ones that caught host stalls, and a
	// p99 taken from them follows the stalls.
	slow := sustained(reps, int64(minOps))
	var lat []int64
	for _, r := range slow {
		slotsPerSec = append(slotsPerSec, r.slotsPerSec())
		cpuPerSlot = append(cpuPerSlot, r.cpuPerSlotUS())
		lat = append(lat, r.c.lat...)
	}
	mid := summarizeLatency(lat)
	p99, groups, tail := groupedP99(reps, int64(minOps))
	if groups == 0 || !tail.supported {
		return nil, fmt.Errorf("%d latency samples leave %d beyond p99; need %d", tail.samples, tail.beyondP99, minBeyondP99)
	}
	ok, err := okFrac(res.Attempted, res.Failed)
	if err != nil {
		return nil, err
	}
	first := reps[0]
	res.set("slots_per_s", "slots/s", median(slotsPerSec))
	res.set("op_p50_ms", "ms", float64(mid.p50)/1e6)
	res.set("op_p99_ms", "ms", p99/1e6)
	res.set("cpu_us_per_slot", "us", median(cpuPerSlot))
	res.set("setup_s", "s", median(setup))
	res.set("heap_live_mb", "MiB", median(heaps))
	res.set("net_kbps", "kbps", channel.Kbps(first.c.reward/float64(first.c.slots)))
	res.set("ok_frac", "ratio", ok)

	res.stamp = b.newStamp(0, top, len(reps), tail)
	res.stamp.SustainedReps, res.stamp.P50Samples, res.stamp.P99Groups = len(slow), mid.samples, groups
	fmt.Fprintf(os.Stderr, "%s seed %d: %d reps at rung %s (throughput and CPU medians from the slowest %d, %d samples behind p50; set-up median over all), p99 median of %d groups of >= %d samples (>= %d beyond), digest %016x\n",
		w.name, b.in.seed, len(reps), top, len(slow), mid.samples, groups, tail.samples, tail.beyondP99, uint64(b.ref.c.d))
	for _, r := range reps {
		l := summarizeLatency(r.c.lat)
		fmt.Fprintf(os.Stderr, "  rep: setup %.1fms  timed %.3fs  %.0f slots/s  cpu %.2fus/slot  heap %.1fMiB  p50 %.4fms  p99 %.4fms\n",
			r.setup.Seconds()*1e3, r.wall.Seconds(), r.slotsPerSec(),
			r.cpuPerSlotUS(), float64(r.heapLive)/(1<<20), float64(l.p50)/1e6, float64(l.p99)/1e6)
	}
	return res, nil
}
