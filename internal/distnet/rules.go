package distnet

import (
	"sort"

	"multihopbandit/internal/graph"
)

// This file holds the agent rules of Algorithm 3: the frame vocabulary,
// the identity-keyed loss hash, the hop-neighborhood tables, each agent's
// local view and the leader-priority determination rule. The agents make
// every protocol decision through these functions, and so does the
// sequential oracle in this package's tests, which the cross-check test
// holds to frame-for-frame agreement with the agents.

// FrameKind labels the three flooding broadcasts of Algorithm 3.
type FrameKind uint8

const (
	// FrameWB carries one vertex's index weight to its (2r+1)-ball.
	FrameWB FrameKind = iota
	// FrameLS declares a LocalLeader's election to its (2r+1)-ball.
	FrameLS
	// FrameLB carries a leader's determination (winners/losers of its local
	// MWIS) to its (3r+2)-ball.
	FrameLB
)

// String names the kind as it appears in metrics labels.
func (k FrameKind) String() string {
	switch k {
	case FrameWB:
		return "wb"
	case FrameLS:
		return "ls"
	case FrameLB:
		return "lb"
	}
	return "unknown"
}

// Frame is one Algorithm 3 control frame as it travels a link. A broadcast
// by vertex From fans out as one Frame copy per conflict-graph neighbor;
// loss is decided per copy. Payload slices are read-only once sent: relays
// forward them without copying, so receivers must never mutate them.
type Frame struct {
	// Decision is the runtime's decision counter when the flood started.
	Decision int
	// Kind selects WB, LS or LB.
	Kind FrameKind
	// Origin is the flood origin: the weight owner (WB) or leader (LS/LB).
	Origin int
	// From is the relaying sender of this copy.
	From int
	// Round is the mini-round of an LS/LB flood; 0 for WB.
	Round int
	// Weight is the WB payload.
	Weight float64
	// Winners and Losers are the LB payload.
	Winners []int
	// Losers is the LB payload complement of Winners within the leader's
	// candidate set.
	Losers []int
}

// unitHash maps a frame-copy identity to a deterministic uniform [0,1)
// value via a splitmix64-style mix. The fault layer draws every loss from
// it, so a copy's fate depends on its identity and the seed alone, never
// on delivery or evaluation order.
func unitHash(seed int64, decision int, kind FrameKind, round, origin, from, to int) float64 {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	for _, x := range [...]uint64{
		uint64(decision), uint64(kind), uint64(round),
		uint64(origin), uint64(from), uint64(to),
	} {
		h ^= x
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return float64(h>>11) / (1 << 53)
}

// ballSets precomputes the sorted hop-neighborhoods Algorithm 3 consults,
// per vertex, for a fixed ball parameter r. The receipt balls bound who can
// ever hold a flood's payload; the relay gates implement the distance-gated
// relay rule: a vertex relays a first-seen flood iff the origin lies within
// radius-1 hops of it, i.e. iff it sits strictly inside the flood radius.
// Unlike a TTL rule, that predicate does not depend on which copy arrived
// first, so the delivered set is a fixpoint independent of message order.
type ballSets struct {
	// BallR is each vertex's r-ball: the candidate scope of a leader's
	// local MWIS.
	BallR [][]int
	// Ball2R is each vertex's 2r-ball: the relay gate of WB/LS floods.
	Ball2R [][]int
	// Ball2R1 is each vertex's (2r+1)-ball: WB/LS receipt scope and the
	// span of every agent's local view.
	Ball2R1 [][]int
	// Ball3R1 is each vertex's (3r+1)-ball: the relay gate of LB floods.
	Ball3R1 [][]int
	// Ball3R2 is each vertex's (3r+2)-ball: LB receipt scope.
	Ball3R2 [][]int
}

// newBallSets runs one bounded BFS per vertex and classifies the balls.
func newBallSets(h *graph.Graph, r int) *ballSets {
	n := h.N()
	b := &ballSets{
		BallR:   make([][]int, n),
		Ball2R:  make([][]int, n),
		Ball2R1: make([][]int, n),
		Ball3R1: make([][]int, n),
		Ball3R2: make([][]int, n),
	}
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[v] = 0
		queue = append(queue[:0], v)
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			if dist[x] == 3*r+2 {
				continue
			}
			for _, u := range h.Neighbors(x) {
				if dist[u] < 0 {
					dist[u] = dist[x] + 1
					queue = append(queue, u)
				}
			}
		}
		// BFS emits vertices in nondecreasing distance, so the prefixes of
		// the (sorted) queue are exactly the nested balls.
		all := append([]int(nil), queue...)
		sort.Ints(all)
		cut := func(radius int) []int {
			out := make([]int, 0, len(all))
			for _, u := range all {
				if dist[u] <= radius {
					out = append(out, u)
				}
			}
			return out
		}
		b.BallR[v] = cut(r)
		b.Ball2R[v] = cut(2 * r)
		b.Ball2R1[v] = cut(2*r + 1)
		b.Ball3R1[v] = cut(3*r + 1)
		b.Ball3R2[v] = cut(3*r + 2)
	}
	return b
}

// indexOf returns x's position in a sorted vertex list, or -1 when x is
// not in it.
func indexOf(sorted []int, x int) int {
	i := sort.SearchInts(sorted, x)
	if i < len(sorted) && sorted[i] == x {
		return i
	}
	return -1
}

// selfStatus is one agent's own determination state within a decision.
type selfStatus uint8

const (
	// candidate means the agent has not yet been determined.
	candidate selfStatus = iota
	// winner means some leader's determination put the agent in the output
	// independent set.
	winner
	// loser means the agent was determined out (listed as a loser or
	// adjacent to a determined winner).
	loser
)

// view is one agent's local view of a decision in flight, scoped to its
// (2r+1)-ball — the only vertices whose weights or candidacy the agent ever
// consults. It holds which weights have been received, which ball members
// are still believed to be candidates, and the agent's own status.
//
// Conflicting determinations (possible under loss, when two leaders that
// cannot see each other both cover this agent) resolve by leader priority:
// within one mini-round the lowest leader id wins, and earlier rounds always
// beat later ones. The sequential oracle applies determinations in
// ascending leader order, which realizes the same rule, so both executions
// land on identical views regardless of frame arrival order.
type view struct {
	// Self is the agent's own determination status.
	Self selfStatus

	self         int
	ball         []int // sorted (2r+1)-ball, shared with ballSets
	know         []bool
	w            []float64
	cand         []bool
	decidedRound int
	decidedBy    int
}

// newView builds an undecided view for one agent over its sorted
// (2r+1)-ball. Call Reset before each decision.
func newView(self int, ball2R1 []int) *view {
	return &view{
		self: self,
		ball: ball2R1,
		know: make([]bool, len(ball2R1)),
		w:    make([]float64, len(ball2R1)),
		cand: make([]bool, len(ball2R1)),
	}
}

// Reset clears the view for a new decision; the agent knows only its own
// weight and believes every ball member is a candidate.
func (v *view) Reset(selfWeight float64) {
	v.Self = candidate
	v.decidedRound = -1
	v.decidedBy = 0
	for i := range v.know {
		v.know[i] = false
		v.cand[i] = true
	}
	if i := v.idx(v.self); i >= 0 {
		v.know[i] = true
		v.w[i] = selfWeight
	}
}

func (v *view) idx(u int) int { return indexOf(v.ball, u) }

// LearnWeight records a WB payload. An origin outside the ball is ignored;
// receivers check scope first, since such a frame is a protocol violation.
func (v *view) LearnWeight(origin int, weight float64) {
	if i := v.idx(origin); i >= 0 {
		v.know[i] = true
		v.w[i] = weight
	}
}

// KnownWeight returns the weight the agent has recorded for u (0 when
// unknown or out of scope — callers pass candidates, whose weights are
// known by construction).
func (v *view) KnownWeight(u int) float64 {
	if i := v.idx(u); i >= 0 && v.know[i] {
		return v.w[i]
	}
	return 0
}

// SelfElect applies the LocalLeader rule to the agent's own view: it leads
// iff no known, still-candidate ball member beats it lexicographically by
// (weight, -id). Vertices whose WB frame was lost do not compete, so under
// loss this can crown conflicting leaders — that is the measured failure
// mode, not a bug.
func (v *view) SelfElect() bool {
	si := v.idx(v.self)
	sw := v.w[si]
	for i, u := range v.ball {
		if u == v.self || !v.know[i] || !v.cand[i] {
			continue
		}
		if v.w[i] > sw || (v.w[i] == sw && u < v.self) {
			return false
		}
	}
	return true
}

// Candidates collects the leader's local candidate set A_r: ball members
// within r hops that are known and still believed candidates, the leader
// itself included. buf is an optional reusable backing slice.
func (v *view) Candidates(ballR []int, buf []int) []int {
	ar := buf[:0]
	for _, u := range ballR {
		if u == v.self {
			ar = append(ar, u)
			continue
		}
		if i := v.idx(u); i >= 0 && v.know[i] && v.cand[i] {
			ar = append(ar, u)
		}
	}
	return ar
}

// Apply folds one leader's determination into the view: winners and losers
// leave the candidate pool, winner-neighbor exclusion is common knowledge
// (every receiver knows the graph), and the agent's own status resolves by
// the leader-priority rule described on view.
func (v *view) Apply(h *graph.Graph, round, leader int, winners, losers []int) {
	decide := func(st selfStatus) {
		switch {
		case v.Self == candidate:
			v.Self = st
			v.decidedRound = round
			v.decidedBy = leader
		case v.decidedRound == round && leader < v.decidedBy:
			v.Self = st
			v.decidedBy = leader
		}
	}
	for _, u := range winners {
		if i := v.idx(u); i >= 0 {
			v.cand[i] = false
		}
		if u == v.self {
			decide(winner)
		}
		for _, y := range h.Neighbors(u) {
			if i := v.idx(y); i >= 0 {
				v.cand[i] = false
			}
			if y == v.self {
				decide(loser)
			}
		}
	}
	for _, u := range losers {
		if i := v.idx(u); i >= 0 {
			v.cand[i] = false
		}
		if u == v.self {
			decide(loser)
		}
	}
}

// FrameCount counts local-broadcast transmissions of one flood kind. Every
// relaying vertex — origin included — sends exactly one local-broadcast
// frame, whose per-neighbor copies are then subject to loss; Originations
// counts the floods' own broadcasts, Relays the forwarding ones.
type FrameCount struct {
	Originations int `json:"originations"`
	Relays       int `json:"relays"`
}

// Total is Originations + Relays.
func (c FrameCount) Total() int { return c.Originations + c.Relays }

// FrameStats attributes control-frame volume to the flood kind that caused
// it — the split the communication-complexity sweep charts against the
// paper's bound.
type FrameStats struct {
	WB FrameCount `json:"wb"`
	LS FrameCount `json:"ls"`
	LB FrameCount `json:"lb"`
}

// Total is the frame volume across all three flood kinds.
func (s FrameStats) Total() int { return s.WB.Total() + s.LS.Total() + s.LB.Total() }

// Add accumulates other into s.
func (s *FrameStats) Add(other FrameStats) {
	s.WB.Originations += other.WB.Originations
	s.WB.Relays += other.WB.Relays
	s.LS.Originations += other.LS.Originations
	s.LS.Relays += other.LS.Relays
	s.LB.Originations += other.LB.Originations
	s.LB.Relays += other.LB.Relays
}

// Kind returns the FrameCount slot for kind.
func (s *FrameStats) Kind(k FrameKind) *FrameCount {
	switch k {
	case FrameWB:
		return &s.WB
	case FrameLS:
		return &s.LS
	default:
		return &s.LB
	}
}
