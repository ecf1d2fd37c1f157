// Command banditload is the closed-loop load generator for banditd: it
// creates N hosted instances (replicas of one cached network by default, so
// the server's artifact cache is exercised), then drives them with K
// concurrent clients issuing batched self-simulation step requests until
// the duration elapses. It reports served-decision throughput and
// client-side request latency, optionally as a machine-readable JSON
// summary (-json) for the operator; no summary is committed to the
// repository.
//
//	banditload -addr http://127.0.0.1:8650 -instances 64 -clients 4 \
//	    -batch 128 -duration 5s -json summary.json
//	banditload -transport binary -binary-addr 127.0.0.1:8660 ...
//
// Every served slot is one decision (an assignment served and a learner
// update applied); the MWIS strategy decisions actually run are reported
// separately (they occur every -update-every slots). The exit code is
// nonzero if any request fails or the throughput floor (-min-throughput)
// is missed, which is what the CI smoke job asserts.
//
// With -transport binary the step traffic rides the binary framed protocol
// (internal/wire) over persistent shard-affine TCP connections instead of
// HTTP/JSON — -binary-addr names the wire listener(s), while -addr still
// names the HTTP plane for instance management and the post-run /metrics
// scrape. The scrape then also reports the banditd_wire_* counters, and
// -max-decode-errors (default 0) makes any server-side frame-decode error
// fail the run.
//
// Both -addr and -binary-addr accept comma-separated lists for multi-server
// fan-out: instances are created round-robin across the servers, every
// client worker drives its subset across all of them, and the summary
// aggregates throughput, latency, and scraped counters over the whole
// fleet (the lists pair up positionally in binary mode).
//
// With -specs (a comma-separated list of ScenarioSpec files) the load
// generator creates one instance per spec file instead of -instances
// replicas — the CI spec-smoke job drives one instance per channel kind
// from the committed files under testdata/specs/ this way, asserting
// nonzero MWIS decisions with -min-mwis.
//
// With -attach nothing is created: the generator lists the servers'
// existing instances and drives those, leaving them in place afterwards.
// Combined with -expect-instances N (exit nonzero unless exactly N are
// listed) this is the post-recovery assertion of the CI recover-smoke job:
// kill a durable banditd under -persist load, restart it with -recover,
// then banditload -attach -expect-instances N proves every instance came
// back and still serves decisions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"multihopbandit/internal/benchmeta"
	"multihopbandit/internal/obs"
	"multihopbandit/internal/serve"
	"multihopbandit/internal/spec"
	"multihopbandit/internal/wire"
)

// summary is the machine-readable load-test report.
type summary struct {
	Timestamp   string        `json:"timestamp"`
	Addr        string        `json:"addr"`
	Addrs       []string      `json:"addrs,omitempty"`
	Transport   string        `json:"transport"`
	Env         benchmeta.Env `json:"env"`
	Instances   int           `json:"instances"`
	Clients     int           `json:"clients"`
	Batch       int           `json:"batch"`
	DurationSec float64       `json:"duration_sec"`
	N           int           `json:"n"`
	M           int           `json:"m"`
	UpdateEvery int           `json:"update_every"`
	Policy      string        `json:"policy"`
	Seed        int64         `json:"seed"`

	Requests        int64   `json:"requests"`
	Errors          int64   `json:"errors"`
	Slots           int64   `json:"slots"`
	MWISDecisions   int64   `json:"mwis_decisions"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	MWISPerSec      float64 `json:"mwis_decisions_per_sec"`

	// Decision-plane counters scraped from the servers' /metrics after the
	// run and summed across the fleet (cumulative over each server's
	// lifetime; on the fresh servers the bench targets start, they cover
	// exactly this run).
	Decide decideCounters `json:"decide"`

	// Wire is the binary data plane's server-side accounting, summed
	// across the fleet; present when any server exposes banditd_wire_*
	// families (i.e. runs with -listen-binary).
	Wire *wireCounters `json:"wire,omitempty"`

	// RegretKbpsTotal sums the servers' banditd_regret_kbps_total gauge
	// across instances at scrape time: observed-window throughput shortfall
	// versus each scenario's exact optimum, in kbps. Regret is a first-class
	// serving surface (on by default), so this is populated on every run.
	RegretKbpsTotal float64 `json:"regret_kbps_total"`

	LatencyMS latencyMS `json:"latency_ms"`
}

// decideCounters is the decision plane's server-side accounting.
type decideCounters struct {
	FullDecides      int64   `json:"full_decides"`
	EpochSkips       int64   `json:"epoch_skips"`
	LeaderSkips      int64   `json:"leader_skips"`
	SensitivitySkips int64   `json:"sensitivity_skips"`
	MemoStructHits   int64   `json:"memo_struct_hits"`
	MemoMisses       int64   `json:"memo_misses"`
	LeaderResolves   int64   `json:"leader_resolves"`
	MemoHitRate      float64 `json:"memo_hit_rate"`

	// PhaseNS breaks decision wall time down by protocol phase, scraped
	// from the banditd_decide_phase_ns histograms. Populated only when the
	// server runs with -debug-addr (decision-path tracing attached);
	// otherwise the map is empty and omitted from the JSON summary.
	PhaseNS map[string]phaseNS `json:"phase_ns,omitempty"`
}

// wireCounters is the binary plane's scraped accounting.
type wireCounters struct {
	ConnectionsTotal int64 `json:"connections_total"`
	FramesIn         int64 `json:"frames_in"`
	FramesOut        int64 `json:"frames_out"`
	BytesIn          int64 `json:"bytes_in"`
	BytesOut         int64 `json:"bytes_out"`
	DecodeErrors     int64 `json:"decode_errors"`
}

// phaseNS is one decide phase's scraped histogram summary.
type phaseNS struct {
	Count  int64   `json:"count"`
	MeanNS float64 `json:"mean_ns"`
}

type latencyMS struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// clientStats accumulates one worker's counters.
type clientStats struct {
	requests  int64
	errors    int64
	slots     int64
	decisions int64
	latencies []float64 // milliseconds
	firstErr  error
}

// target is one banditd in the fan-out set: its HTTP client (management +
// metrics) and, in binary mode, its wire client for the step hot path.
type target struct {
	addr string
	http *serve.Client
	bin  *wire.Client
}

// step drives one batched step request over the target's data plane,
// decoding into res (reused per worker on the binary path).
func (t *target) step(id string, batch int, res *serve.StepResult) error {
	if t.bin != nil {
		return t.bin.StepInto(id, batch, res)
	}
	r, err := t.http.Step(id, batch)
	if err != nil {
		return err
	}
	*res = *r
	return nil
}

// inst is one created instance and the target hosting it.
type inst struct {
	t  int
	id string
}

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8650", "banditd base URL(s), comma-separated for fan-out")
		transport   = flag.String("transport", "json", "step-request data plane: json|binary")
		binaryAddr  = flag.String("binary-addr", "", "binary data-plane address(es) for -transport binary, comma-separated, pairing with -addr")
		instances   = flag.Int("instances", 64, "hosted instances to create (across all servers)")
		clients     = flag.Int("clients", 4, "concurrent closed-loop clients")
		batch       = flag.Int("batch", 128, "slots per step request")
		duration    = flag.Duration("duration", 5*time.Second, "load duration")
		n           = flag.Int("n", 10, "nodes per instance")
		m           = flag.Int("m", 2, "channels per instance")
		updateEvery = flag.Int("update-every", 1, "strategy update period y in slots")
		policyName  = flag.String("policy", "zhou-li", "learning policy")
		seed        = flag.Int64("seed", 1, "artifact seed (all instances share it; noise seeds differ)")
		distinct    = flag.Int("distinct-topologies", 1, "spread instances over this many artifact seeds")
		jsonOut     = flag.String("json", "", "write a JSON summary to this file")
		minTput     = flag.Float64("min-throughput", 0, "exit nonzero below this many decisions/sec")
		minMWIS     = flag.Int64("min-mwis", 0, "exit nonzero below this many total MWIS strategy decisions")
		minSkips    = flag.Int64("min-epoch-skips", 0, "exit nonzero below this many weight-epoch skips (server /metrics)")
		minSens     = flag.Int64("min-sensitivity-skips", 0, "exit nonzero below this many leader sensitivity skips (server /metrics)")
		maxDecode   = flag.Int64("max-decode-errors", 0, "exit nonzero above this many server-side wire decode errors")
		specFiles   = flag.String("specs", "", "comma-separated ScenarioSpec files: create one instance per file instead of -instances replicas")
		attach      = flag.Bool("attach", false, "drive the server's existing instances instead of creating any (implies -keep)")
		expectInst  = flag.Int("expect-instances", 0, "with -attach, exit nonzero unless exactly this many instances are listed (0 = any)")
		persistSpec = flag.Bool("persist", false, "create instances with a persist block (durable when the server runs with -data-dir)")
		keep        = flag.Bool("keep", false, "leave the instances on the server afterwards")
		verbose     = flag.Bool("v", false, "print the server /metrics after the run")
	)
	flag.Parse()
	log.SetPrefix("banditload: ")
	log.SetFlags(0)
	if *instances <= 0 || *clients <= 0 || *batch <= 0 || *distinct <= 0 {
		log.Fatal("instances, clients, batch and distinct-topologies must be positive")
	}
	if *transport != "json" && *transport != "binary" {
		log.Fatalf("unknown -transport %q (want json or binary)", *transport)
	}

	addrs := splitList(*addr)
	if len(addrs) == 0 {
		log.Fatal("-addr named no servers")
	}
	var binAddrs []string
	if *transport == "binary" {
		binAddrs = splitList(*binaryAddr)
		if len(binAddrs) != len(addrs) {
			log.Fatalf("-binary-addr lists %d address(es) for %d server(s); the lists pair up positionally", len(binAddrs), len(addrs))
		}
	}

	targets := make([]*target, len(addrs))
	for i, a := range addrs {
		t := &target{addr: a, http: serve.NewClient(a)}
		if err := t.http.WaitHealthy(10 * time.Second); err != nil {
			log.Fatalf("%s: %v", a, err)
		}
		if *transport == "binary" {
			bc, err := wire.Dial(binAddrs[i], wire.Options{})
			if err != nil {
				log.Fatalf("dial binary plane %s: %v", binAddrs[i], err)
			}
			defer bc.Close()
			t.bin = bc
			log.Printf("%s: binary plane %s (%d shards)", a, binAddrs[i], bc.Hello().Shards)
		}
		targets[i] = t
	}

	var insts []inst
	if *attach {
		*keep = true
		for ti, t := range targets {
			infos, err := t.http.List()
			if err != nil {
				log.Fatalf("list instances on %s: %v", t.addr, err)
			}
			for _, info := range infos {
				insts = append(insts, inst{t: ti, id: info.ID})
			}
		}
		if *expectInst > 0 && len(insts) != *expectInst {
			log.Fatalf("servers host %d instance(s), expected %d", len(insts), *expectInst)
		}
		if len(insts) == 0 {
			log.Fatal("-attach found no instances to drive")
		}
		*instances = len(insts)
		log.Printf("attached to %d existing instance(s)", len(insts))
	} else if *specFiles != "" {
		i := 0
		for _, path := range strings.Split(*specFiles, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			s, err := spec.ParseFile(path)
			if err != nil {
				log.Fatal(err)
			}
			ti := i % len(targets)
			created, err := targets[ti].http.Create(serve.InstanceConfig{Spec: s})
			if err != nil {
				log.Fatalf("create from %s: %v", path, err)
			}
			insts = append(insts, inst{t: ti, id: created.ID})
			log.Printf("created %s from %s (N=%d M=%d channel=%s policy=%s y=%d)",
				created.ID, path, created.N, created.M, created.Channel, created.Policy, created.UpdateEvery)
			i++
		}
		if len(insts) == 0 {
			log.Fatal("-specs named no spec files")
		}
		*instances = len(insts)
	} else {
		insts = make([]inst, *instances)
		for i := range insts {
			s := spec.ScenarioSpec{
				Seed:      *seed + int64(i%*distinct),
				NoiseSeed: *seed + 7919*int64(i+1), // distinct trajectories per replica
				Topology: spec.TopologySpec{
					N:                *n,
					RequireConnected: true,
				},
				Channel:  spec.ChannelSpec{M: *m},
				Policy:   spec.PolicySpec{Kind: *policyName},
				Decision: spec.DecisionSpec{UpdateEvery: *updateEvery},
			}
			if *persistSpec {
				s.Persist = spec.PersistSpec{Enabled: true}
			}
			ti := i % len(targets)
			created, err := targets[ti].http.Create(serve.InstanceConfig{Spec: s})
			if err != nil {
				log.Fatalf("create instance %d: %v", i, err)
			}
			insts[i] = inst{t: ti, id: created.ID}
		}
		log.Printf("created %d instances on %d server(s) (N=%d M=%d policy=%s y=%d, %d distinct topologies)",
			*instances, len(targets), *n, *m, *policyName, *updateEvery, *distinct)
	}

	stats := make([]clientStats, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(*duration)
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			var res serve.StepResult
			// Each client owns a strided subset so no two clients contend
			// for one actor's mailbox in lockstep.
			for time.Now().Before(deadline) {
				for i := w; i < len(insts); i += *clients {
					if !time.Now().Before(deadline) {
						break
					}
					in := insts[i]
					t0 := time.Now()
					err := targets[in.t].step(in.id, *batch, &res)
					lat := time.Since(t0)
					st.requests++
					st.latencies = append(st.latencies, float64(lat.Nanoseconds())/1e6)
					if err != nil {
						st.errors++
						if st.firstErr == nil {
							st.firstErr = err
						}
						continue
					}
					st.slots += int64(res.Slots)
					st.decisions += int64(res.Decisions)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total clientStats
	var all []float64
	for i := range stats {
		total.requests += stats[i].requests
		total.errors += stats[i].errors
		total.slots += stats[i].slots
		total.decisions += stats[i].decisions
		all = append(all, stats[i].latencies...)
		if total.firstErr == nil {
			total.firstErr = stats[i].firstErr
		}
	}
	sort.Float64s(all)
	lat := latencyMS{}
	if len(all) > 0 {
		sum := 0.0
		for _, x := range all {
			sum += x
		}
		lat.Mean = sum / float64(len(all))
		lat.P50 = quantile(all, 0.50)
		lat.P90 = quantile(all, 0.90)
		lat.P99 = quantile(all, 0.99)
		lat.Max = all[len(all)-1]
	}
	// Scrape the decision plane, the wire plane, and the regret surface on
	// every server before deleting the instances, so the summary reflects
	// this run even against long-lived servers (and regret still has
	// instances to report on).
	var decide decideCounters
	var wireTotals *wireCounters
	var regret float64
	for _, t := range targets {
		text, err := t.http.Metrics()
		if err != nil {
			log.Printf("scrape %s/metrics: %v", t.addr, err)
			continue
		}
		exp, err := obs.Parse(text)
		if err != nil {
			log.Printf("parse %s/metrics: %v", t.addr, err)
			continue
		}
		addDecide(&decide, exp)
		regret += exp.Sum("banditd_regret_kbps_total")
		if w := scrapeWire(exp); w != nil {
			if wireTotals == nil {
				wireTotals = &wireCounters{}
			}
			wireTotals.ConnectionsTotal += w.ConnectionsTotal
			wireTotals.FramesIn += w.FramesIn
			wireTotals.FramesOut += w.FramesOut
			wireTotals.BytesIn += w.BytesIn
			wireTotals.BytesOut += w.BytesOut
			wireTotals.DecodeErrors += w.DecodeErrors
		}
	}
	decide.LeaderResolves = decide.MemoStructHits + decide.MemoMisses
	if lookups := decide.LeaderSkips + decide.SensitivitySkips + decide.MemoStructHits + decide.MemoMisses; lookups > 0 {
		decide.MemoHitRate = float64(lookups-decide.MemoMisses) / float64(lookups)
	}

	rep := summary{
		Timestamp:       start.UTC().Format(time.RFC3339),
		Addr:            addrs[0],
		Transport:       *transport,
		Env:             benchmeta.Capture(),
		Instances:       *instances,
		Clients:         *clients,
		Batch:           *batch,
		DurationSec:     elapsed.Seconds(),
		N:               *n,
		M:               *m,
		UpdateEvery:     *updateEvery,
		Policy:          *policyName,
		Seed:            *seed,
		Requests:        total.requests,
		Errors:          total.errors,
		Slots:           total.slots,
		MWISDecisions:   total.decisions,
		DecisionsPerSec: float64(total.slots) / elapsed.Seconds(),
		MWISPerSec:      float64(total.decisions) / elapsed.Seconds(),
		Decide:          decide,
		Wire:            wireTotals,
		RegretKbpsTotal: regret,
		LatencyMS:       lat,
	}
	if len(addrs) > 1 {
		rep.Addrs = addrs
	}

	log.Printf("%d requests (%d errors), %d decisions in %.2fs over %s", rep.Requests, rep.Errors, rep.Slots, rep.DurationSec, *transport)
	log.Printf("throughput: %.0f decisions/sec (%.0f MWIS strategy decisions/sec)", rep.DecisionsPerSec, rep.MWISPerSec)
	log.Printf("decision plane: %d full decides, %d epoch skips, leaders %d/%d/%d exact-skip/sensitivity-skip/re-solve (hit rate %.3f)",
		decide.FullDecides, decide.EpochSkips, decide.LeaderSkips, decide.SensitivitySkips, decide.LeaderResolves, decide.MemoHitRate)
	if wireTotals != nil {
		log.Printf("wire plane: %d conns, %d/%d frames in/out, %d/%d bytes in/out, %d decode errors",
			wireTotals.ConnectionsTotal, wireTotals.FramesIn, wireTotals.FramesOut,
			wireTotals.BytesIn, wireTotals.BytesOut, wireTotals.DecodeErrors)
	}
	log.Printf("regret: %.1f kbps total across instances", regret)
	if len(decide.PhaseNS) > 0 {
		for _, phase := range []string{"broadcast", "election", "local_mwis", "finalize", "total", "epoch_skip"} {
			if p, ok := decide.PhaseNS[phase]; ok {
				log.Printf("decide phase %-10s %8d obs, mean %.0f ns", phase, p.Count, p.MeanNS)
			}
		}
	}
	log.Printf("request latency ms: mean=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f",
		lat.Mean, lat.P50, lat.P90, lat.P99, lat.Max)

	if *verbose {
		for _, t := range targets {
			if m, err := t.http.Metrics(); err == nil {
				fmt.Fprintln(os.Stderr, m)
			}
		}
	}
	if !*keep {
		for _, in := range insts {
			if err := targets[in.t].http.Delete(in.id); err != nil {
				log.Printf("delete %s: %v", in.id, err)
			}
		}
	}
	if *jsonOut != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("marshal summary: %v", err)
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
			log.Fatalf("write %s: %v", *jsonOut, err)
		}
		log.Printf("wrote %s", *jsonOut)
	}

	if total.errors > 0 {
		log.Fatalf("%d requests failed; first error: %v", total.errors, total.firstErr)
	}
	if rep.DecisionsPerSec < *minTput {
		log.Fatalf("throughput %.0f decisions/sec is below the %.0f floor", rep.DecisionsPerSec, *minTput)
	}
	if rep.MWISDecisions < *minMWIS {
		log.Fatalf("%d MWIS strategy decisions is below the %d floor", rep.MWISDecisions, *minMWIS)
	}
	if decide.EpochSkips < *minSkips {
		log.Fatalf("%d weight-epoch skips is below the %d floor", decide.EpochSkips, *minSkips)
	}
	if decide.SensitivitySkips < *minSens {
		log.Fatalf("%d leader sensitivity skips is below the %d floor", decide.SensitivitySkips, *minSens)
	}
	if wireTotals != nil && wireTotals.DecodeErrors > *maxDecode {
		log.Fatalf("%d wire decode errors exceed the %d ceiling", wireTotals.DecodeErrors, *maxDecode)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// addDecide accumulates one server's decision-plane counters (summed
// across shards) and its per-phase decide-time breakdown (present only
// when the server traces, i.e. runs with -debug-addr).
func addDecide(d *decideCounters, exp *obs.Exposition) {
	d.FullDecides += int64(exp.Sum("banditd_decide_full_total"))
	d.EpochSkips += int64(exp.Sum("banditd_decide_epoch_skips_total"))
	d.LeaderSkips += int64(exp.Sum("banditd_decide_leader_skips_total"))
	d.SensitivitySkips += int64(exp.Sum("banditd_decide_leader_sensitivity_skips_total"))
	d.MemoStructHits += int64(exp.Sum("banditd_decide_memo_struct_hits_total"))
	d.MemoMisses += int64(exp.Sum("banditd_decide_memo_misses_total"))
	for _, phase := range []string{"broadcast", "election", "local_mwis", "finalize", "total", "epoch_skip"} {
		count, ok := exp.Value("banditd_decide_phase_ns_count", obs.L("phase", phase))
		if !ok || count == 0 {
			continue
		}
		sum, _ := exp.Value("banditd_decide_phase_ns_sum", obs.L("phase", phase))
		if d.PhaseNS == nil {
			d.PhaseNS = make(map[string]phaseNS)
		}
		p := d.PhaseNS[phase]
		mean := (p.MeanNS*float64(p.Count) + sum) / (float64(p.Count) + count)
		d.PhaseNS[phase] = phaseNS{Count: p.Count + int64(count), MeanNS: mean}
	}
}

// scrapeWire extracts the binary plane's counters, or nil when the server
// does not expose them (no -listen-binary).
func scrapeWire(exp *obs.Exposition) *wireCounters {
	if _, ok := exp.Value("banditd_wire_connections_total"); !ok {
		return nil
	}
	w := &wireCounters{}
	w.ConnectionsTotal = int64(exp.Sum("banditd_wire_connections_total"))
	fin, _ := exp.Value("banditd_wire_frames_total", obs.L("dir", "in"))
	fout, _ := exp.Value("banditd_wire_frames_total", obs.L("dir", "out"))
	bin, _ := exp.Value("banditd_wire_bytes_total", obs.L("dir", "in"))
	bout, _ := exp.Value("banditd_wire_bytes_total", obs.L("dir", "out"))
	w.FramesIn, w.FramesOut = int64(fin), int64(fout)
	w.BytesIn, w.BytesOut = int64(bin), int64(bout)
	w.DecodeErrors = int64(exp.Sum("banditd_wire_decode_errors_total"))
	return w
}

// quantile returns the q-quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
