package policy

import (
	"fmt"

	"multihopbandit/internal/rng"
)

// State is a portable snapshot of a learner's sufficient statistics — the
// payload of the serving runtime's snapshot/restore API. Estimator-backed
// policies fill Means/Counts (equations (5) and (6)); the discounted policy
// fills Sums/EffCounts instead. All slices are copies: a State never aliases
// live policy state.
type State struct {
	// Policy is the Name() of the policy the state was taken from. Restore
	// rejects a State whose Policy names a different rule.
	Policy string `json:"policy"`
	// Round is the internal round counter t.
	Round int `json:"round"`
	// Means and Counts are the estimator statistics µ̃_k and m_k.
	Means  []float64 `json:"means,omitempty"`
	Counts []int     `json:"counts,omitempty"`
	// Sums and EffCounts are the discounted statistics S_k and N_k of
	// DiscountedZhouLi.
	Sums      []float64 `json:"sums,omitempty"`
	EffCounts []float64 `json:"eff_counts,omitempty"`
	// Draws is the position of EpsilonGreedy's random stream: the number of
	// uniform draws taken since construction.
	Draws int `json:"draws,omitempty"`
}

// Snapshotter is implemented by policies whose learner state can be exported
// and re-imported. Every policy in this package implements it.
type Snapshotter interface {
	// Snapshot exports the current learner state.
	Snapshot() State
	// Restore replaces the learner state with a previously exported
	// snapshot of the same policy kind and arm count.
	Restore(State) error
}

// checkStatePolicy rejects snapshots taken from a different policy. An empty
// Policy field is accepted for forward compatibility with hand-built states.
func checkStatePolicy(s State, name string) error {
	if s.Policy != "" && s.Policy != name {
		return fmt.Errorf("policy: snapshot from %q cannot restore %q", s.Policy, name)
	}
	return nil
}

// Snapshot implements Snapshotter.
func (p *ZhouLi) Snapshot() State {
	s := p.est.Snapshot()
	s.Policy = p.Name()
	return s
}

// Restore implements Snapshotter.
func (p *ZhouLi) Restore(s State) error {
	if err := checkStatePolicy(s, p.Name()); err != nil {
		return err
	}
	return p.est.Restore(s)
}

// Snapshot implements Snapshotter.
func (p *LLR) Snapshot() State {
	s := p.est.Snapshot()
	s.Policy = p.Name()
	return s
}

// Restore implements Snapshotter.
func (p *LLR) Restore(s State) error {
	if err := checkStatePolicy(s, p.Name()); err != nil {
		return err
	}
	return p.est.Restore(s)
}

// Snapshot implements Snapshotter.
func (p *CUCB) Snapshot() State {
	s := p.est.Snapshot()
	s.Policy = p.Name()
	return s
}

// Restore implements Snapshotter.
func (p *CUCB) Restore(s State) error {
	if err := checkStatePolicy(s, p.Name()); err != nil {
		return err
	}
	return p.est.Restore(s)
}

// Snapshot implements Snapshotter. Besides the estimator statistics it
// records the random stream's position, so a restored policy draws the
// same values the original would have.
func (p *EpsilonGreedy) Snapshot() State {
	s := p.est.Snapshot()
	s.Policy = p.Name()
	s.Draws = p.draws
	return s
}

// Restore implements Snapshotter. It re-creates the random stream from its
// seed and replays the snapshot's draws, so its cost is linear in them.
func (p *EpsilonGreedy) Restore(s State) error {
	if err := checkStatePolicy(s, p.Name()); err != nil {
		return err
	}
	if s.Draws < 0 {
		return fmt.Errorf("policy: snapshot draws must be non-negative, got %d", s.Draws)
	}
	if err := p.est.Restore(s); err != nil {
		return err
	}
	p.src = rng.New(p.src.Seed())
	for i := 0; i < s.Draws; i++ {
		p.src.Float64()
	}
	p.draws = s.Draws
	return nil
}

// Snapshot implements Snapshotter. The oracle's true means are construction
// parameters, not learned state, so only the observation statistics travel.
func (p *Oracle) Snapshot() State {
	s := p.est.Snapshot()
	s.Policy = p.Name()
	return s
}

// Restore implements Snapshotter.
func (p *Oracle) Restore(s State) error {
	if err := checkStatePolicy(s, p.Name()); err != nil {
		return err
	}
	return p.est.Restore(s)
}

// Snapshot implements Snapshotter.
func (p *DiscountedZhouLi) Snapshot() State {
	return State{
		Policy:    p.Name(),
		Round:     p.round,
		Sums:      append([]float64(nil), p.sum...),
		EffCounts: append([]float64(nil), p.eff...),
	}
}

// Restore implements Snapshotter.
func (p *DiscountedZhouLi) Restore(s State) error {
	if err := checkStatePolicy(s, p.Name()); err != nil {
		return err
	}
	if len(s.Sums) != len(p.sum) || len(s.EffCounts) != len(p.eff) {
		return fmt.Errorf("policy: snapshot has %d sums / %d effective counts, policy has %d arms",
			len(s.Sums), len(s.EffCounts), len(p.sum))
	}
	if s.Round < 0 {
		return fmt.Errorf("policy: snapshot round must be non-negative, got %d", s.Round)
	}
	copy(p.sum, s.Sums)
	copy(p.eff, s.EffCounts)
	p.round = s.Round
	return nil
}
