// Command banditstat is the one-shot observability client for a running
// banditd: it scrapes /metrics, holds the scrape to the strict exposition
// validator, and prints a fleet summary — decision mix (full decides vs
// weight-epoch skips), the per-leader skip taxonomy (exact leader skips,
// sensitivity skips, re-solves), memo and artifact-cache hit rates, the per-phase
// decide-time breakdown with its span-coverage ratio, the binary data
// plane's wire counters (connections, frames, bytes, decode errors — when
// the server runs with -listen-binary), and the top-k instances by regret.
//
//	banditstat -addr http://127.0.0.1:8650
//	banditstat -addr http://127.0.0.1:8650 -debug-addr http://127.0.0.1:8651 \
//	    -min-phase-coverage 0.95 -min-spans 100
//	banditstat -catalog
//
// With -debug-addr it also exercises the debug plane: fetches the
// decision-path spans from /debug/trace and probes the pprof mux. The
// assertion flags turn the summary into a CI gate (the obs-smoke job): exit
// is nonzero if the scrape fails validation, if the span phase sums cover
// less than -min-phase-coverage of full-decide wall time, or if fewer than
// -min-spans spans come back from the trace ring.
//
// With -catalog no server is contacted: the command instantiates the
// serving registry in process and renders every registered metric family as
// a markdown table — the source of the OPERATIONS.md metrics catalog.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"multihopbandit/internal/obs"
	"multihopbandit/internal/serve"
	"multihopbandit/internal/wire"
)

// report is banditstat's machine-readable fleet summary (-json).
type report struct {
	Timestamp string `json:"timestamp"`
	Addr      string `json:"addr"`

	Shards      int64 `json:"shards"`
	Instances   int64 `json:"instances"`
	Slots       int64 `json:"slots"`
	Decisions   int64 `json:"decisions"`
	FullDecides int64 `json:"full_decides"`
	EpochSkips  int64 `json:"epoch_skips"`

	// Per-leader cache accounting inside full decides: exact-equality
	// replays, drift-within-slack replays, actual local MWIS re-solves
	// (structure hits + misses), and the re-solves stopped at the node
	// budget.
	LeaderSkips      int64 `json:"leader_skips"`
	SensitivitySkips int64 `json:"sensitivity_skips"`
	LeaderResolves   int64 `json:"leader_resolves"`
	BudgetStops      int64 `json:"budget_stops"`

	EpochSkipRate float64 `json:"epoch_skip_rate"`
	MemoHitRate   float64 `json:"memo_hit_rate"`
	CacheHitRate  float64 `json:"artifact_cache_hit_rate"`

	// Phases is the decide-time breakdown from the banditd_decide_phase_ns
	// histograms; empty when the server runs without -debug-addr.
	Phases map[string]phaseNS `json:"phase_ns,omitempty"`
	// SpanCoverage is the fraction of full-decide wall time the four phase
	// sums account for (0 when tracing is off).
	SpanCoverage float64 `json:"span_coverage"`
	// TraceSpans is the number of spans fetched from /debug/trace
	// (-debug-addr only).
	TraceSpans int64 `json:"trace_spans,omitempty"`

	RegretKbpsTotal float64          `json:"regret_kbps_total"`
	RegretTopK      []instanceRegret `json:"regret_top_k,omitempty"`

	// Wire is the binary data plane's accounting (banditd_wire_* families);
	// nil when the server runs without -listen-binary.
	Wire *wireStats `json:"wire,omitempty"`
}

// wireStats is the binary plane's scraped accounting.
type wireStats struct {
	ConnectionsOpen  int64 `json:"connections_open"`
	ConnectionsTotal int64 `json:"connections_total"`
	FramesIn         int64 `json:"frames_in"`
	FramesOut        int64 `json:"frames_out"`
	BytesIn          int64 `json:"bytes_in"`
	BytesOut         int64 `json:"bytes_out"`
	DecodeErrors     int64 `json:"decode_errors"`
}

// phaseNS is one decide phase's histogram summary.
type phaseNS struct {
	Count  int64   `json:"count"`
	MeanNS float64 `json:"mean_ns"`
}

// instanceRegret is one instance's regret surface.
type instanceRegret struct {
	Instance    string  `json:"instance"`
	RegretKbps  float64 `json:"regret_kbps"`
	OptimalKbps float64 `json:"optimal_kbps"`
	WindowSlots float64 `json:"window_slots"`
}

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8650", "banditd base URL")
		debugAddr = flag.String("debug-addr", "", "banditd debug-plane base URL (fetch /debug/trace and probe pprof)")
		topK      = flag.Int("top", 5, "instances to list in the top-regret table")
		minCov    = flag.Float64("min-phase-coverage", 0, "exit nonzero if span phase sums cover less than this fraction of full-decide wall time")
		minPhase  = flag.Int64("min-phase-samples", 1, "full-decide phase observations required before -min-phase-coverage asserts")
		minSpans  = flag.Int64("min-spans", 0, "exit nonzero if /debug/trace returns fewer spans (requires -debug-addr)")
		jsonOut   = flag.String("json", "", "write the JSON fleet summary to this file")
		catalog   = flag.Bool("catalog", false, "print the metrics catalog as markdown and exit (no server contacted)")
	)
	flag.Parse()
	log.SetPrefix("banditstat: ")
	log.SetFlags(0)

	if *catalog {
		printCatalog(os.Stdout)
		return
	}

	c := serve.NewClient(*addr)
	if err := c.WaitHealthy(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		log.Fatalf("scrape /metrics: %v", err)
	}
	if err := obs.Validate(text); err != nil {
		log.Fatalf("/metrics failed exposition validation: %v", err)
	}
	exp, err := obs.Parse(text)
	if err != nil {
		log.Fatalf("parse /metrics: %v", err)
	}

	rep := summarize(exp)
	rep.Timestamp = time.Now().UTC().Format(time.RFC3339)
	rep.Addr = *addr
	if *debugAddr != "" {
		rep.TraceSpans = fetchTraceSpans(*debugAddr)
		probePprof(*debugAddr)
	}

	fmt.Printf("fleet @ %s (scrape valid)\n", *addr)
	fmt.Printf("  shards %d, instances %d\n", rep.Shards, rep.Instances)
	fmt.Printf("  slots served        %12d\n", rep.Slots)
	fmt.Printf("  strategy decisions  %12d  (%d full, %d epoch-skips, skip rate %.3f)\n",
		rep.Decisions, rep.FullDecides, rep.EpochSkips, rep.EpochSkipRate)
	fmt.Printf("  leader skips        %12d  exact, %d within sensitivity slack, %d re-solves\n",
		rep.LeaderSkips, rep.SensitivitySkips, rep.LeaderResolves)
	fmt.Printf("  budget stops        %12d  re-solves stopped at the node budget\n", rep.BudgetStops)
	fmt.Printf("  memo hit rate       %12.3f\n", rep.MemoHitRate)
	fmt.Printf("  artifact cache hits %12.3f\n", rep.CacheHitRate)
	if len(rep.Phases) == 0 {
		fmt.Println("  decide phases: no samples (server running without -debug-addr?)")
	} else {
		fmt.Println("  decide phases:")
		for _, phase := range []string{"broadcast", "election", "local_mwis", "finalize", "total", "epoch_skip"} {
			if p, ok := rep.Phases[phase]; ok {
				fmt.Printf("    %-10s %10d obs, mean %10.0f ns\n", phase, p.Count, p.MeanNS)
			}
		}
		fmt.Printf("  span phase coverage %.4f of full-decide wall time\n", rep.SpanCoverage)
	}
	if *debugAddr != "" {
		fmt.Printf("  trace spans fetched %d from %s/debug/trace\n", rep.TraceSpans, *debugAddr)
	}
	if rep.Wire != nil {
		fmt.Println("  binary data plane:")
		fmt.Printf("    connections %d open / %d total\n", rep.Wire.ConnectionsOpen, rep.Wire.ConnectionsTotal)
		fmt.Printf("    frames      %d in / %d out\n", rep.Wire.FramesIn, rep.Wire.FramesOut)
		fmt.Printf("    bytes       %d in / %d out\n", rep.Wire.BytesIn, rep.Wire.BytesOut)
		fmt.Printf("    decode errors %d\n", rep.Wire.DecodeErrors)
	}
	fmt.Printf("  regret %.1f kbps total across instances\n", rep.RegretKbpsTotal)
	if len(rep.RegretTopK) > *topK {
		rep.RegretTopK = rep.RegretTopK[:*topK]
	}
	if len(rep.RegretTopK) > 0 {
		fmt.Printf("  top %d by regret:\n", len(rep.RegretTopK))
		for _, r := range rep.RegretTopK {
			fmt.Printf("    %-20s regret %10.1f kbps  (optimum %.1f kbps over %.0f slots)\n",
				r.Instance, r.RegretKbps, r.OptimalKbps, r.WindowSlots)
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

	// Assertions last, so the summary prints even on a failing gate.
	if *minCov > 0 {
		total := rep.Phases["total"]
		if total.Count < *minPhase {
			log.Fatalf("only %d full-decide phase observations (< %d): tracing off or no load", total.Count, *minPhase)
		}
		if rep.SpanCoverage < *minCov {
			log.Fatalf("span phase coverage %.4f is below the %.2f floor", rep.SpanCoverage, *minCov)
		}
	}
	if *minSpans > 0 {
		if *debugAddr == "" {
			log.Fatal("-min-spans requires -debug-addr")
		}
		if rep.TraceSpans < *minSpans {
			log.Fatalf("%d trace spans is below the %d floor", rep.TraceSpans, *minSpans)
		}
	}
}

// summarize reduces a parsed scrape to the fleet report.
func summarize(exp *obs.Exposition) report {
	rep := report{
		Shards:      int64(exp.Sum("banditd_shards")),
		Instances:   int64(exp.Sum("banditd_instances")),
		Slots:       int64(exp.Sum("banditd_slots_served_total")),
		Decisions:   int64(exp.Sum("banditd_decisions_total")),
		FullDecides: int64(exp.Sum("banditd_decide_full_total")),
		EpochSkips:  int64(exp.Sum("banditd_decide_epoch_skips_total")),
	}
	if rep.Decisions > 0 {
		rep.EpochSkipRate = float64(rep.EpochSkips) / float64(rep.Decisions)
	}
	leaderSkips := exp.Sum("banditd_decide_leader_skips_total")
	sensSkips := exp.Sum("banditd_decide_leader_sensitivity_skips_total")
	structHits := exp.Sum("banditd_decide_memo_struct_hits_total")
	misses := exp.Sum("banditd_decide_memo_misses_total")
	rep.LeaderSkips = int64(leaderSkips)
	rep.SensitivitySkips = int64(sensSkips)
	rep.LeaderResolves = int64(structHits + misses)
	rep.BudgetStops = int64(exp.Sum("banditd_decide_budget_stops_total"))
	if lookups := leaderSkips + sensSkips + structHits + misses; lookups > 0 {
		rep.MemoHitRate = (lookups - misses) / lookups
	}
	cacheHits := exp.Sum("banditd_artifact_cache_hits_total")
	cacheMisses := exp.Sum("banditd_artifact_cache_misses_total")
	if total := cacheHits + cacheMisses; total > 0 {
		rep.CacheHitRate = cacheHits / total
	}

	var phaseSum float64
	for _, phase := range []string{"broadcast", "election", "local_mwis", "finalize", "total", "epoch_skip"} {
		count, ok := exp.Value("banditd_decide_phase_ns_count", obs.L("phase", phase))
		if !ok || count == 0 {
			continue
		}
		sum, _ := exp.Value("banditd_decide_phase_ns_sum", obs.L("phase", phase))
		if rep.Phases == nil {
			rep.Phases = make(map[string]phaseNS)
		}
		rep.Phases[phase] = phaseNS{Count: int64(count), MeanNS: sum / count}
		switch phase {
		case "total", "epoch_skip":
		default:
			phaseSum += sum
		}
	}
	if total, ok := exp.Value("banditd_decide_phase_ns_sum", obs.L("phase", "total")); ok && total > 0 {
		rep.SpanCoverage = phaseSum / total
	}

	if _, ok := exp.Value("banditd_wire_connections"); ok {
		w := &wireStats{
			ConnectionsOpen:  int64(exp.Sum("banditd_wire_connections")),
			ConnectionsTotal: int64(exp.Sum("banditd_wire_connections_total")),
			DecodeErrors:     int64(exp.Sum("banditd_wire_decode_errors_total")),
		}
		fin, _ := exp.Value("banditd_wire_frames_total", obs.L("dir", "in"))
		fout, _ := exp.Value("banditd_wire_frames_total", obs.L("dir", "out"))
		bin, _ := exp.Value("banditd_wire_bytes_total", obs.L("dir", "in"))
		bout, _ := exp.Value("banditd_wire_bytes_total", obs.L("dir", "out"))
		w.FramesIn, w.FramesOut = int64(fin), int64(fout)
		w.BytesIn, w.BytesOut = int64(bin), int64(bout)
		rep.Wire = w
	}

	rep.RegretKbpsTotal = exp.Sum("banditd_regret_kbps_total")
	if f, ok := exp.Families["banditd_regret_kbps_total"]; ok {
		for _, s := range f.Samples {
			id := s.Label("instance")
			opt, _ := exp.Value("banditd_optimal_kbps", obs.L("instance", id))
			win, _ := exp.Value("banditd_regret_window_slots", obs.L("instance", id))
			rep.RegretTopK = append(rep.RegretTopK, instanceRegret{
				Instance: id, RegretKbps: s.Value, OptimalKbps: opt, WindowSlots: win,
			})
		}
		sort.Slice(rep.RegretTopK, func(a, b int) bool {
			if rep.RegretTopK[a].RegretKbps != rep.RegretTopK[b].RegretKbps {
				return rep.RegretTopK[a].RegretKbps > rep.RegretTopK[b].RegretKbps
			}
			return rep.RegretTopK[a].Instance < rep.RegretTopK[b].Instance
		})
	}
	return rep
}

// fetchTraceSpans pulls the decision-path span window from the debug plane
// and returns how many JSONL spans came back (each must parse).
func fetchTraceSpans(debugAddr string) int64 {
	resp, err := http.Get(strings.TrimSuffix(debugAddr, "/") + "/debug/trace")
	if err != nil {
		log.Fatalf("fetch /debug/trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("fetch /debug/trace: status %d", resp.StatusCode)
	}
	var n int64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var span map[string]any
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			log.Fatalf("trace span %d is not valid JSON: %v", n+1, err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("read /debug/trace: %v", err)
	}
	return n
}

// probePprof asserts the pprof mux answers on the debug plane.
func probePprof(debugAddr string) {
	resp, err := http.Get(strings.TrimSuffix(debugAddr, "/") + "/debug/pprof/cmdline")
	if err != nil {
		log.Fatalf("probe pprof: %v", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		log.Fatalf("probe pprof: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("probe pprof: status %d", resp.StatusCode)
	}
}

// printCatalog renders every metric family the serving runtime registers as
// a markdown table, in exposition order — the generator behind the
// OPERATIONS.md metrics catalog. No server is contacted: the registry, the
// HTTP layer, and the binary data plane are instantiated in process, which
// registers exactly the families a real banditd running with
// -listen-binary exposes.
func printCatalog(w io.Writer) {
	ring := obs.NewTraceRing(1)
	reg := serve.NewRegistry(serve.RegistryConfig{Shards: 1, Trace: ring})
	defer reg.Close()
	serve.NewServer(reg)
	wire.NewServer(reg)
	fmt.Fprintln(w, "| Metric | Type | Description |")
	fmt.Fprintln(w, "| --- | --- | --- |")
	for _, f := range reg.Obs().Catalog() {
		fmt.Fprintf(w, "| `%s` | %s | %s |\n", f.Name, f.Type, strings.ReplaceAll(f.Help, "|", "\\|"))
	}
}
