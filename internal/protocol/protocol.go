// Package protocol simulates the distributed strategy-decision process of
// the paper (Algorithms 2 and 3): the weight-broadcast (WB) step, the
// mini-round loop of LocalLeader selection (LS), local MWIS computation
// (LMWIS) and local broadcast of determinations (LB), with the paper's
// four vertex statuses and full message/mini-timeslot accounting.
//
// The simulator executes the per-vertex rules lock-step (one mini-round at a
// time), which matches the paper's globally synchronized time-slotted model
// and makes every run reproducible. Communication is not physically
// exchanged; instead each decision records who broadcast, and
// Stats.MessagesPerVertex charges every local broadcast to the vertices
// that would relay it, so the complexity claims of §IV-C (per-vertex
// messages O(r²+D), mini-timeslots O(r²+D·r)) become measurable quantities.
package protocol

import (
	"errors"
	"fmt"
	"math/bits"

	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/mwis"
)

// Status is the state of a virtual vertex during one strategy decision.
type Status uint8

const (
	// Candidate vertices are still undecided and may become Winners.
	Candidate Status = iota + 1
	// LocalLeader is a Candidate with the maximum weight among all
	// Candidates in its (2r+1)-hop neighborhood.
	LocalLeader
	// Winner vertices belong to the output independent set.
	Winner
	// Loser vertices were excluded by a LocalLeader's local MWIS.
	Loser
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Candidate:
		return "candidate"
	case LocalLeader:
		return "local-leader"
	case Winner:
		return "winner"
	case Loser:
		return "loser"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Config parameterizes a protocol Runtime.
type Config struct {
	// Ext is the extended conflict graph the decision runs on.
	Ext *extgraph.Extended
	// R is the paper's ball parameter r (default 2). LocalLeaders are
	// (2r+1)-hop weight maxima, compute MWIS over r-hop candidate balls,
	// and broadcast determinations within (3r+1) hops.
	R int
	// D caps the number of mini-rounds per decision. 0 means "run until
	// every vertex is marked", which the paper bounds by N mini-rounds.
	D int
	// Solver computes each LocalLeader's local MWIS (default mwis.Hybrid).
	Solver mwis.Solver
}

// Runtime is the precomputed topology of strategy decisions over a fixed
// extended conflict graph. Create one per topology; it precomputes the
// hop-neighborhoods once. It is immutable after New, so any number of
// Deciders (NewDecider), on any goroutines, may decide over one Runtime.
type Runtime struct {
	ext    *extgraph.Extended
	r      int
	d      int
	solver mwis.Solver
	words  int // ⌈n/64⌉, the length of every bitset row below

	// Per-vertex bitset rows over one arena each, bit u of row v set iff
	// u belongs to v's set: the adjacency of H, which Deciders use for
	// O(n/64) winner-independence verification, and the hop balls
	// J_{H,r}(v), J_{H,2r+1}(v) and J_{H,3r+2}(v) (the LB broadcast
	// radius). Hop distance is symmetric, so every ball matrix is too: u is
	// in v's row iff v is in u's.
	adjBits [][]uint64
	ballR   [][]uint64
	ball2R1 [][]uint64
	ballLB  [][]uint64
}

// New builds a Runtime and precomputes all hop-neighborhoods.
func New(cfg Config) (*Runtime, error) {
	if cfg.Ext == nil {
		return nil, errors.New("protocol: nil extended graph")
	}
	r := cfg.R
	if r == 0 {
		r = 2
	}
	if r < 1 {
		return nil, fmt.Errorf("protocol: r must be >= 1, got %d", r)
	}
	if cfg.D < 0 {
		return nil, fmt.Errorf("protocol: D must be >= 0, got %d", cfg.D)
	}
	solver := cfg.Solver
	if solver == nil {
		solver = mwis.Hybrid{}
	}
	h := cfg.Ext.H
	n := h.N()
	words := (n + 63) / 64
	rt := &Runtime{
		ext:     cfg.Ext,
		r:       r,
		d:       cfg.D,
		solver:  solver,
		words:   words,
		adjBits: bitRows(n, words),
		ballR:   bitRows(n, words),
		ball2R1: bitRows(n, words),
		ballLB:  bitRows(n, words),
	}
	// One bounded BFS to 3r+2 per vertex covers all three radii (the LB
	// radius is 3r+2, one hop past the paper's 3r+1, because the
	// winner-neighbor exclusion rule extends the ruled set to r+1 hops
	// around a leader). The dist/queue buffers are reused across vertices
	// to avoid n² map work.
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		dist[v] = 0
		queue = append(queue[:0], v)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			if dist[u] == 3*r+2 {
				continue
			}
			for _, w := range h.Neighbors(u) {
				if dist[w] < 0 {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		for _, u := range queue {
			bit := uint64(1) << (uint(u) % 64)
			if dist[u] <= r {
				rt.ballR[v][u/64] |= bit
			}
			if dist[u] <= 2*r+1 {
				rt.ball2R1[v][u/64] |= bit
			}
			rt.ballLB[v][u/64] |= bit
			dist[u] = -1
		}
		for _, u := range h.Neighbors(v) {
			rt.adjBits[v][u/64] |= 1 << (uint(u) % 64)
		}
	}
	return rt, nil
}

// bitRows returns n zeroed rows of words words each, carved from one arena.
func bitRows(n, words int) [][]uint64 {
	arena := make([]uint64, n*words)
	rows := make([][]uint64, n)
	for v := range rows {
		rows[v] = arena[v*words : (v+1)*words : (v+1)*words]
	}
	return rows
}

// R returns the runtime's ball parameter.
func (rt *Runtime) R() int { return rt.r }

// D returns the configured mini-round cap (0 = unbounded).
func (rt *Runtime) D() int { return rt.d }

// Stats aggregates the communication accounting of one strategy decision.
type Stats struct {
	// MiniTimeslots is the paper's time-unit accounting: (2r+1)² for WB
	// plus (2r+1)+(3r+2) per executed mini-round.
	MiniTimeslots int
	// WeightBroadcasts is the number of vertices that broadcast a fresh
	// weight in the WB step.
	WeightBroadcasts int
	// LeaderDeclarations counts LocalLeader selections over all
	// mini-rounds.
	LeaderDeclarations int
	// LocalBroadcasts counts determination broadcasts (one per leader per
	// mini-round).
	LocalBroadcasts int

	// sent records who originated the decision's broadcasts, from which
	// MessagesPerVertex derives the per-vertex relay counts when called.
	sent broadcasts
}

// broadcasts is one decision's broadcast originators: the WB senders
// (prevPlayed as given, duplicates kept) and the LocalLeaders of every
// mini-round, each of which sent one LS declaration and one LB.
type broadcasts struct {
	rt      *Runtime
	played  []int
	leaders []int
}

// MessagesPerVertex counts, per vertex, how many broadcast messages the
// vertex relayed during the decision: one per WB sender and per LS
// declaration within its (2r+1)-hop ball, and one per LB within its
// (3r+2)-hop ball. It walks those balls on every call and returns a fresh
// slice; the decision itself keeps only the originators. It returns nil
// for Stats that no Decider filled.
func (s Stats) MessagesPerVertex() []int {
	rt := s.sent.rt
	if rt == nil {
		return nil
	}
	counts := make([]int, rt.ext.H.N())
	for _, v := range s.sent.played {
		countRow(counts, rt.ball2R1[v])
	}
	for _, v := range s.sent.leaders {
		countRow(counts, rt.ball2R1[v])
		countRow(counts, rt.ballLB[v])
	}
	return counts
}

// countRow adds one to counts[u] for every bit u set in row.
func countRow(counts []int, row []uint64) {
	for wi, word := range row {
		for ; word != 0; word &= word - 1 {
			counts[wi*64+bits.TrailingZeros64(word)]++
		}
	}
}

// MaxMessages returns the largest per-vertex relay count.
func (s Stats) MaxMessages() int {
	max := 0
	for _, m := range s.MessagesPerVertex() {
		if m > max {
			max = m
		}
	}
	return max
}

// Result is the outcome of one distributed strategy decision.
type Result struct {
	// Winners is the output independent set of H, sorted ascending.
	Winners []int
	// Strategy is Winners converted to a per-node channel assignment.
	Strategy extgraph.Strategy
	// MiniRounds is the number of mini-rounds actually executed.
	MiniRounds int
	// Converged reports whether every vertex was marked before the
	// mini-round cap hit.
	Converged bool
	// WeightByMiniRound[τ] is the total weight of all Winners determined
	// by the end of mini-round τ+1 (the y-axis of the paper's Fig. 6).
	WeightByMiniRound []float64
	// LeadersByMiniRound[τ] is the number of LocalLeaders selected in
	// mini-round τ+1.
	LeadersByMiniRound []int
	// Stats holds the communication accounting.
	Stats Stats
}
