package policy

import (
	"fmt"
	"math"

	"multihopbandit/internal/changeset"
	"multihopbandit/internal/rng"
)

// UnseenIndex is the optimistic index assigned to arms that have never been
// played: twice the maximum possible mean. It exceeds the empirical mean of
// any played arm, so the MWIS oracle explores every node's fresh channels
// first (ties break deterministically, yielding a round-robin sweep over the
// M channels), while remaining finite so weight sums, broadcasts, and the
// estimated-throughput series of Fig. 8 stay well-scaled.
const UnseenIndex = 2.0

// IndexWriter is the allocation-free variant of Policy.Indices: WriteIndices
// fills dst, which must have length K, with the current per-arm index
// weights. Every policy in this package implements it; hot loops (the
// serving runtime's per-decision path) reuse one buffer across rounds
// instead of allocating a fresh slice per decision. The written values are
// bit-identical to what Indices returns.
//
// WriteIndices reports whether any element of dst changed, i.e. whether the
// weight vector differs from dst's previous contents. A caller that reuses
// one buffer across decision boundaries therefore learns, for free, whether
// the weight epoch advanced. The slot kernel passes the report on to its
// decision plane, which ignores it and compares the weights itself; the
// benchmark module, stackbench, reads it as policy.changed_frac. The report
// is exact: false guarantees dst is element-for-element what it already
// was.
//
// ch, when non-nil, additionally receives *which* indices changed: every
// index whose value differs from dst's previous contents is added to the
// set (nothing is removed — callers Reset between boundaries). The bitset
// is what the changed bool compresses, and it obeys the same exactness
// contract: an index outside the set is guaranteed element-for-element
// unchanged. No decision plane reads it either. Passing nil skips the
// per-index recording with no other behavioral difference —
// in particular, randomized policies consume identical random draws either
// way.
type IndexWriter interface {
	WriteIndices(dst []float64, ch *changeset.Set) (changed bool)
}

// writeIndex writes v into dst[i], tracking whether it differed.
func writeIndex(dst []float64, i int, v float64, changed *bool, ch *changeset.Set) {
	if dst[i] != v {
		dst[i] = v
		*changed = true
		if ch != nil {
			ch.Add(i)
		}
	}
}

// Policy produces per-arm index weights for the strategy decision and learns
// from the observed rewards of the arms that were played.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Indices returns the current index weight of every arm. The slice is
	// freshly allocated on every call.
	Indices() []float64
	// Update feeds back one round of observations: played arms (flat ids)
	// and their rewards, advancing the policy's internal clock.
	Update(played []int, rewards []float64) error
	// Estimate returns the current reward estimate µ̃_k of arm k.
	Estimate(k int) float64
	// Count returns how many times arm k has been observed.
	Count(k int) int
	// Round returns the policy's internal round counter t.
	Round() int
}

// ---------------------------------------------------------------------------
// ZhouLi: the paper's learning policy (equation (3))

// ZhouLi is the index policy the paper adopts (Algorithm 1): for a played
// arm,
//
//	w_k(t+1) = µ̃_k(t) + sqrt( max( ln( t^{2/3} / (K·m_k) ), 0 ) / m_k ),
//
// whose regret bound (Theorem 1) is independent of ∆_min. Unplayed arms get
// UnseenIndex so they are explored first.
type ZhouLi struct {
	est *Estimator
}

var _ Policy = (*ZhouLi)(nil)

// NewZhouLi returns the paper's policy over k arms.
func NewZhouLi(k int) (*ZhouLi, error) {
	est, err := NewEstimator(k)
	if err != nil {
		return nil, err
	}
	return &ZhouLi{est: est}, nil
}

// Name implements Policy.
func (*ZhouLi) Name() string { return "zhou-li" }

// Indices implements Policy.
func (p *ZhouLi) Indices() []float64 {
	out := make([]float64, p.est.K())
	p.WriteIndices(out, nil)
	return out
}

// WriteIndices implements IndexWriter. The t^{2/3} of equation (3) is
// identical for every arm, so it is computed once per call rather than once
// per arm (it dominated the index-update hot path).
func (p *ZhouLi) WriteIndices(dst []float64, ch *changeset.Set) (changed bool) {
	k := p.est.K()
	kf := float64(k)
	t := float64(p.est.Round())
	t23 := 0.0
	if t >= 1 {
		t23 = math.Pow(t, 2.0/3.0)
	}
	for i := 0; i < k; i++ {
		m := p.est.Count(i)
		if m == 0 {
			writeIndex(dst, i, UnseenIndex, &changed, ch)
			continue
		}
		bonus := 0.0
		if t >= 1 {
			bonus = zhouLiBonusPow(t23, kf, float64(m))
		}
		writeIndex(dst, i, p.est.Mean(i)+bonus, &changed, ch)
	}
	return changed
}

// zhouLiBonus computes the exploration term of equation (3).
func zhouLiBonus(t, k, m float64) float64 {
	if t < 1 {
		return 0
	}
	return zhouLiBonusPow(math.Pow(t, 2.0/3.0), k, m)
}

// zhouLiBonusPow is zhouLiBonus with t^{2/3} precomputed, so per-arm index
// loops can hoist the math.Pow call.
func zhouLiBonusPow(t23, k, m float64) float64 {
	arg := t23 / (k * m)
	logTerm := math.Log(arg)
	if logTerm <= 0 {
		return 0
	}
	return math.Sqrt(logTerm / m)
}

// Update implements Policy.
func (p *ZhouLi) Update(played []int, rewards []float64) error {
	return p.est.Update(played, rewards)
}

// Estimate implements Policy.
func (p *ZhouLi) Estimate(k int) float64 { return p.est.Mean(k) }

// Count implements Policy.
func (p *ZhouLi) Count(k int) int { return p.est.Count(k) }

// Round implements Policy.
func (p *ZhouLi) Round() int { return p.est.Round() }

// ---------------------------------------------------------------------------
// LLR: the baseline of Gai, Krishnamachari and Jain

// LLR is the "Learning with Linear Rewards" baseline the paper compares
// against (reference [11]): for a played arm,
//
//	w_k(t) = µ̃_k + sqrt( (L+1)·ln t / m_k ),
//
// where L is the maximum number of arms a strategy can contain (at most N
// here). Its bonus is much larger than ZhouLi's, which is exactly the
// overestimation visible in Fig. 8's "LLR-Estimated throughput" curves.
type LLR struct {
	est *Estimator
	l   int
}

var _ Policy = (*LLR)(nil)

// NewLLR returns an LLR policy over k arms with strategy-size bound l (the
// paper's L; use the node count N).
func NewLLR(k, l int) (*LLR, error) {
	if l <= 0 {
		return nil, fmt.Errorf("policy: LLR strategy-size bound must be positive, got %d", l)
	}
	est, err := NewEstimator(k)
	if err != nil {
		return nil, err
	}
	return &LLR{est: est, l: l}, nil
}

// Name implements Policy.
func (*LLR) Name() string { return "llr" }

// Indices implements Policy.
func (p *LLR) Indices() []float64 {
	out := make([]float64, p.est.K())
	p.WriteIndices(out, nil)
	return out
}

// WriteIndices implements IndexWriter, hoisting the (L+1)·ln t numerator out
// of the per-arm loop.
func (p *LLR) WriteIndices(dst []float64, ch *changeset.Set) (changed bool) {
	k := p.est.K()
	t := float64(p.est.Round())
	num := 0.0
	if t > 1 {
		num = float64(p.l+1) * math.Log(t)
	}
	for i := 0; i < k; i++ {
		m := p.est.Count(i)
		if m == 0 {
			writeIndex(dst, i, UnseenIndex, &changed, ch)
			continue
		}
		bonus := 0.0
		if t > 1 {
			bonus = math.Sqrt(num / float64(m))
		}
		writeIndex(dst, i, p.est.Mean(i)+bonus, &changed, ch)
	}
	return changed
}

// Update implements Policy.
func (p *LLR) Update(played []int, rewards []float64) error {
	return p.est.Update(played, rewards)
}

// Estimate implements Policy.
func (p *LLR) Estimate(k int) float64 { return p.est.Mean(k) }

// Count implements Policy.
func (p *LLR) Count(k int) int { return p.est.Count(k) }

// Round implements Policy.
func (p *LLR) Round() int { return p.est.Round() }

// ---------------------------------------------------------------------------
// EpsilonGreedy

// EpsilonGreedy plays the empirical means, but with probability Epsilon it
// perturbs every arm's index by a uniform draw, which randomizes the chosen
// independent set. It is a simple ablation baseline without regret
// guarantees.
type EpsilonGreedy struct {
	est     *Estimator
	epsilon float64
	src     *rng.Source
	// draws counts the uniform draws taken from src since construction —
	// the stream position a snapshot carries.
	draws int
}

var _ Policy = (*EpsilonGreedy)(nil)

// NewEpsilonGreedy returns an ε-greedy policy over k arms. src must not
// have been drawn from: Restore re-creates the stream from src's seed and
// replays the snapshot's draws.
func NewEpsilonGreedy(k int, epsilon float64, src *rng.Source) (*EpsilonGreedy, error) {
	if epsilon < 0 || epsilon > 1 {
		return nil, fmt.Errorf("policy: epsilon must be in [0,1], got %v", epsilon)
	}
	if src == nil {
		return nil, fmt.Errorf("policy: EpsilonGreedy requires a random source")
	}
	est, err := NewEstimator(k)
	if err != nil {
		return nil, err
	}
	return &EpsilonGreedy{est: est, epsilon: epsilon, src: src}, nil
}

// Name implements Policy.
func (*EpsilonGreedy) Name() string { return "eps-greedy" }

// Indices implements Policy.
func (p *EpsilonGreedy) Indices() []float64 {
	out := make([]float64, p.est.K())
	p.WriteIndices(out, nil)
	return out
}

// WriteIndices implements IndexWriter. Like Indices, it consumes random
// draws from the policy's source — including on calls that turn out
// unchanged, so change tracking never shifts the random stream.
func (p *EpsilonGreedy) WriteIndices(dst []float64, ch *changeset.Set) (changed bool) {
	k := p.est.K()
	explore := p.src.Bernoulli(p.epsilon)
	p.draws++
	for i := 0; i < k; i++ {
		if p.est.Count(i) == 0 {
			writeIndex(dst, i, UnseenIndex, &changed, ch)
			continue
		}
		if explore {
			writeIndex(dst, i, p.src.Float64(), &changed, ch)
			p.draws++
		} else {
			writeIndex(dst, i, p.est.Mean(i), &changed, ch)
		}
	}
	return changed
}

// Update implements Policy.
func (p *EpsilonGreedy) Update(played []int, rewards []float64) error {
	return p.est.Update(played, rewards)
}

// Estimate implements Policy.
func (p *EpsilonGreedy) Estimate(k int) float64 { return p.est.Mean(k) }

// Count implements Policy.
func (p *EpsilonGreedy) Count(k int) int { return p.est.Count(k) }

// Round implements Policy.
func (p *EpsilonGreedy) Round() int { return p.est.Round() }

// ---------------------------------------------------------------------------
// Oracle

// Oracle is the genie: its indices are the true means, so the MWIS oracle
// reproduces the optimal static strategy every round. It still tracks
// observation statistics so its estimates can be compared against learners.
type Oracle struct {
	est   *Estimator
	means []float64
}

var _ Policy = (*Oracle)(nil)

// NewOracle returns a genie policy that knows the true means.
func NewOracle(means []float64) (*Oracle, error) {
	est, err := NewEstimator(len(means))
	if err != nil {
		return nil, err
	}
	return &Oracle{est: est, means: append([]float64(nil), means...)}, nil
}

// Name implements Policy.
func (*Oracle) Name() string { return "oracle" }

// Indices implements Policy.
func (p *Oracle) Indices() []float64 { return append([]float64(nil), p.means...) }

// WriteIndices implements IndexWriter. The true means never change, so a
// reused buffer reports changed only on its first fill — the oracle is the
// policy whose every decision after the first is one weight epoch.
func (p *Oracle) WriteIndices(dst []float64, ch *changeset.Set) (changed bool) {
	for i, v := range p.means {
		writeIndex(dst, i, v, &changed, ch)
	}
	return changed
}

// Update implements Policy.
func (p *Oracle) Update(played []int, rewards []float64) error {
	return p.est.Update(played, rewards)
}

// Estimate implements Policy.
func (p *Oracle) Estimate(k int) float64 { return p.est.Mean(k) }

// Count implements Policy.
func (p *Oracle) Count(k int) int { return p.est.Count(k) }

// Round implements Policy.
func (p *Oracle) Round() int { return p.est.Round() }
