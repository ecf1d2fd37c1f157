// Command distbench records the distributed-execution scale sweep behind
// BENCH_dist.json: the concurrent per-vertex agent runtime (internal/distnet)
// driven across a grid of network sizes (up to thousands of agents), frame
// loss rates, and link latencies, measuring wall-clock per decision, frames
// by flood kind, mini-rounds, and the determination failure rate, against
// the paper's per-vertex origination bound (one WB flood plus at most one
// LS and one LB flood per mini-round).
//
//	distbench -json BENCH_dist.json
//	distbench -nodes 64,256,1024 -loss 0,0.05,0.2 -decisions 5
//	distbench -fig            # failure-rate-vs-loss table on stdout
//	distbench -smoke          # CI gate: golden TCP bit-identity + fault churn
//
// The -smoke mode is the `make dist-smoke` CI gate: it proves fault-free
// distnet winner sets bit-identical to protocol.Decider over a real TCP
// loopback transport, then runs loss + burst + partition/heal + crash
// churn asserting convergence resumes and zero protocol violations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"multihopbandit/internal/benchmeta"
	"multihopbandit/internal/distnet"
	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/protocol"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/topology"
)

// point is one measured grid cell.
type point struct {
	Nodes     int     `json:"nodes"`
	M         int     `json:"m"`
	Agents    int     `json:"agents"`
	R         int     `json:"r"`
	D         int     `json:"d"`
	Loss      float64 `json:"loss"`
	LatencyUs int64   `json:"latency_us"`
	Decisions int     `json:"decisions"`

	MsPerDecision float64 `json:"ms_per_decision"`
	MiniRounds    float64 `json:"mini_rounds_avg"`

	// Frame originations and relays per decision, by flood kind
	// (broadcast-medium accounting: one count per local broadcast).
	WBOrig int `json:"wb_originations"`
	WBRel  int `json:"wb_relays"`
	LSOrig int `json:"ls_originations"`
	LSRel  int `json:"ls_relays"`
	LBOrig int `json:"lb_originations"`
	LBRel  int `json:"lb_relays"`

	// OrigPerVertex is originations per agent per decision; OrigBound is
	// the paper's per-vertex cap 1 + 2·mini-rounds (one WB, then at most
	// one LS and one LB per round).
	OrigPerVertex float64 `json:"orig_per_vertex"`
	OrigBound     float64 `json:"orig_bound"`

	// FailureRate is the fraction of decisions that ended with at least
	// one undetermined vertex; UndeterminedFrac the average fraction of
	// vertices left undetermined per decision (the per-vertex
	// common-knowledge failure rate under loss); NonIndependentRate the
	// fraction of decisions whose believed winner set conflicted. All
	// zero in fault-free runs.
	FailureRate        float64 `json:"failure_rate"`
	UndeterminedFrac   float64 `json:"undetermined_frac"`
	NonIndependentRate float64 `json:"non_independent_rate"`
	CopiesDropped      int64   `json:"copies_dropped"`
}

// report is the BENCH_dist.json schema.
type report struct {
	Timestamp string        `json:"timestamp"`
	Env       benchmeta.Env `json:"env"`
	R         int           `json:"r"`
	D         int           `json:"d"`
	Points    []point       `json:"points"`
}

func buildExt(nodes, m int, seed int64) (*extgraph.Extended, error) {
	nw, err := topology.Random(topology.RandomConfig{N: nodes}, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return extgraph.Build(nw.G, m)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	var (
		nodesFlag   = flag.String("nodes", "64,256,1024", "comma-separated node counts (agents = nodes × m)")
		lossFlag    = flag.String("loss", "0,0.05,0.2", "comma-separated frame loss rates")
		latencyFlag = flag.String("latency-us", "0,200", "comma-separated per-copy link latencies (µs)")
		mFlag       = flag.Int("m", 2, "channels per node")
		rFlag       = flag.Int("r", 1, "ball parameter r")
		dFlag       = flag.Int("d", 0, "mini-round cap D (0 = unbounded: run until no leader remains)")
		decFlag     = flag.Int("decisions", 5, "decisions per grid point")
		seedFlag    = flag.Int64("seed", 1, "topology/weight/fault seed")
		jsonFlag    = flag.String("json", "", "write the machine-readable report here")
		figFlag     = flag.Bool("fig", false, "print the failure-rate-vs-loss table and exit")
		smokeFlag   = flag.Bool("smoke", false, "run the CI smoke gate and exit")
	)
	flag.Parse()

	if *smokeFlag {
		if err := smoke(*seedFlag); err != nil {
			log.Fatalf("distbench smoke: %v", err)
		}
		log.Printf("distbench smoke: ok")
		return
	}

	nodes, err := parseInts(*nodesFlag)
	if err != nil {
		log.Fatalf("distbench: -nodes: %v", err)
	}
	losses, err := parseFloats(*lossFlag)
	if err != nil {
		log.Fatalf("distbench: -loss: %v", err)
	}
	latencies, err := parseInts(*latencyFlag)
	if err != nil {
		log.Fatalf("distbench: -latency-us: %v", err)
	}
	if *figFlag {
		// The figure needs no latency dimension; loss is the x-axis.
		latencies = []int{0}
	}

	rep := report{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Env:       benchmeta.Capture(),
		R:         *rFlag,
		D:         *dFlag,
	}
	for _, n := range nodes {
		ext, err := buildExt(n, *mFlag, *seedFlag)
		if err != nil {
			log.Fatalf("distbench: n=%d: %v", n, err)
		}
		for _, loss := range losses {
			for _, lat := range latencies {
				p, err := measure(ext, n, *mFlag, *rFlag, *dFlag, *decFlag, loss, int64(lat), *seedFlag)
				if err != nil {
					log.Fatalf("distbench: n=%d loss=%v: %v", n, loss, err)
				}
				rep.Points = append(rep.Points, p)
				log.Printf("n=%-5d agents=%-5d loss=%-5.2f lat=%dµs  %7.1f ms/decision  rounds=%.1f  undetermined=%.3f",
					n, p.Agents, loss, lat, p.MsPerDecision, p.MiniRounds, p.UndeterminedFrac)
			}
		}
	}

	if *figFlag {
		fmt.Print(renderFailureFig(rep.Points))
		return
	}
	if *jsonFlag != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonFlag, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (%d points)", *jsonFlag, len(rep.Points))
	}
}

// measure runs one grid point: a fresh runtime over the shared extended
// graph, several decisions with evolving weights, averaged.
func measure(ext *extgraph.Extended, nodes, m, r, d, decisions int, loss float64, latencyUs, seed int64) (point, error) {
	var metrics distnet.Metrics
	var tr distnet.Transport = distnet.NewChanTransport()
	faults := distnet.Faults{
		Seed:    seed,
		Loss:    loss,
		Latency: time.Duration(latencyUs) * time.Microsecond,
	}
	if faults.Active() {
		tr = distnet.NewFaultTransport(tr, faults, &metrics)
	}
	rt, err := distnet.New(distnet.Config{Ext: ext, R: r, D: d, Transport: tr, Metrics: &metrics})
	if err != nil {
		return point{}, err
	}
	defer rt.Close()

	src := rng.New(seed + 100)
	w := make([]float64, ext.K())
	for i := range w {
		w[i] = src.Float64()
	}
	var frames distnet.FrameStats
	var rounds, failures, nonIndep, undet int
	start := time.Now()
	for step := 0; step < decisions; step++ {
		res, err := rt.Decide(w)
		if err != nil {
			return point{}, err
		}
		frames.Add(res.Frames)
		rounds += res.MiniRounds
		if !res.Converged {
			failures++
		}
		if !res.Independent {
			nonIndep++
		}
		undet += res.Undetermined
		for i := range w {
			if src.Float64() < 0.2 {
				w[i] = src.Float64()
			}
		}
	}
	elapsed := time.Since(start)

	snap := metrics.Snapshot()
	var dropped int64
	for _, v := range snap.CopiesDropped {
		dropped += v
	}
	origPerVertex := float64(frames.WB.Originations+frames.LS.Originations+frames.LB.Originations) /
		float64(decisions) / float64(ext.K())
	return point{
		Nodes:              nodes,
		M:                  m,
		Agents:             ext.K(),
		R:                  r,
		D:                  d,
		Loss:               loss,
		LatencyUs:          latencyUs,
		Decisions:          decisions,
		MsPerDecision:      float64(elapsed.Milliseconds()) / float64(decisions),
		MiniRounds:         float64(rounds) / float64(decisions),
		WBOrig:             frames.WB.Originations / decisions,
		WBRel:              frames.WB.Relays / decisions,
		LSOrig:             frames.LS.Originations / decisions,
		LSRel:              frames.LS.Relays / decisions,
		LBOrig:             frames.LB.Originations / decisions,
		LBRel:              frames.LB.Relays / decisions,
		OrigPerVertex:      origPerVertex,
		OrigBound:          1 + 2*float64(rounds)/float64(decisions),
		FailureRate:        float64(failures) / float64(decisions),
		UndeterminedFrac:   float64(undet) / float64(decisions) / float64(ext.K()),
		NonIndependentRate: float64(nonIndep) / float64(decisions),
		CopiesDropped:      dropped,
	}, nil
}

// renderFailureFig prints the determination-failure-rate-vs-loss figure as
// an aligned table in the internal/sim render idiom: one column per
// network size, one row per loss rate. The cell value is the average
// fraction of vertices left undetermined per decision.
func renderFailureFig(points []point) string {
	sizes := map[int]bool{}
	losses := map[float64]bool{}
	cell := map[[2]int]float64{} // (nodes, loss‰) → undetermined fraction
	for _, p := range points {
		sizes[p.Nodes] = true
		losses[p.Loss] = true
		cell[[2]int{p.Nodes, int(p.Loss * 1000)}] = p.UndeterminedFrac
	}
	var ns []int
	for n := range sizes {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	var ls []float64
	for l := range losses {
		ls = append(ls, l)
	}
	sort.Float64s(ls)

	var b strings.Builder
	b.WriteString("Determination failure rate by frame loss (average fraction of\n")
	b.WriteString("vertices left undetermined; one column per network size)\n")
	b.WriteString("      loss")
	for _, n := range ns {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("n=%d", n))
	}
	b.WriteString("\n")
	for _, l := range ls {
		fmt.Fprintf(&b, "%10.2f", l)
		for _, n := range ns {
			fmt.Fprintf(&b, " %10.3f", cell[[2]int{n, int(l * 1000)}])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// smoke is the dist-smoke CI gate.
func smoke(seed int64) error {
	// Gate 1: golden bit-identity over a real TCP loopback transport.
	ext, err := buildExt(24, 3, seed)
	if err != nil {
		return err
	}
	ref, err := protocol.New(protocol.Config{Ext: ext, R: 2, D: 4})
	if err != nil {
		return err
	}
	decider := ref.NewDecider()
	rt, err := distnet.New(distnet.Config{Ext: ext, R: 2, D: 4, Transport: distnet.NewTCPTransport(4)})
	if err != nil {
		return err
	}
	src := rng.New(seed + 1)
	w := make([]float64, ext.K())
	for i := range w {
		w[i] = src.Float64()
	}
	for step := 0; step < 3; step++ {
		want, err := decider.DecideEpoch(w, nil, false, nil)
		if err != nil {
			return err
		}
		got, err := rt.Decide(w)
		if err != nil {
			return err
		}
		if !got.Converged || !got.Independent {
			return fmt.Errorf("fault-free tcp decision %d did not converge independently", step)
		}
		if !slices.Equal(got.Winners, want.Winners) {
			return fmt.Errorf("tcp golden mismatch at decision %d:\n distnet %v\n decider %v", step, got.Winners, want.Winners)
		}
		for i := range w {
			w[i] = src.Float64()
		}
	}
	if err := rt.Close(); err != nil {
		return err
	}
	log.Printf("smoke: tcp golden bit-identity over %d agents ok", ext.K())

	// Gate 2: fault churn — loss, bursts, a partition with heal, and
	// crash/restart — must finish every decision with zero protocol
	// violations, and convergence must resume once the faults clear.
	var m distnet.Metrics
	ft := distnet.NewFaultTransport(distnet.NewChanTransport(), distnet.Faults{
		Seed:       seed + 2,
		Loss:       0.15,
		BurstEnter: 0.05,
		BurstExit:  0.5,
		Latency:    100 * time.Microsecond,
		Jitter:     100 * time.Microsecond,
		Reorder:    0.05,
	}, &m)
	frt, err := distnet.New(distnet.Config{Ext: ext, R: 2, D: 4, Transport: ft, Metrics: &m})
	if err != nil {
		return err
	}
	defer frt.Close()
	const churn = 20
	for step := 0; step < churn; step++ {
		switch step {
		case 4:
			ft.Partition("smoke", []int{0, 1, 2, 3, 4, 5})
		case 10:
			ft.Heal("smoke")
		case 7:
			frt.Crash(1)
		case 13:
			frt.Restart(1)
		}
		if _, err := frt.Decide(w); err != nil {
			return fmt.Errorf("faulted decision %d: %v", step, err)
		}
		for i := range w {
			if src.Float64() < 0.3 {
				w[i] = src.Float64()
			}
		}
	}
	snap := m.Snapshot()
	if snap.ProtocolViolations != 0 {
		return fmt.Errorf("fault churn raised %d protocol violations", snap.ProtocolViolations)
	}
	var dropped int64
	for _, v := range snap.CopiesDropped {
		dropped += v
	}
	if dropped == 0 {
		return fmt.Errorf("fault churn dropped no copies; faults not exercised")
	}
	log.Printf("smoke: %d-decision fault churn ok (%d copies dropped, 0 violations)", churn, dropped)
	return nil
}
