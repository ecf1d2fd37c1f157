// Package queueing puts the paper's strategy-decision machinery to work as
// a link scheduler in the style of the capacity literature the paper
// surveys (§VI, Tassiulas–Ephremides and its descendants): each node has a
// packet queue; each slot, a MaxWeight schedule is computed as a maximum
// weighted independent set of the extended conflict graph with per-arm
// weight = queue backlog × service-rate estimate; scheduled nodes drain at
// their channel's realized rate.
//
// Unlike the classic setting, service rates are unknown here, so MaxWeight
// runs on *learned* estimates that improve as links are scheduled — the
// paper's bandit learning composed with backpressure-style scheduling.
package queueing

import (
	"errors"
	"fmt"

	"multihopbandit/internal/channel"
	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/policy"
	"multihopbandit/internal/protocol"
	"multihopbandit/internal/rng"
)

// Config parameterizes a queueing System.
type Config struct {
	// Ext is the extended conflict graph. Required.
	Ext *extgraph.Extended
	// Rates provides the per-(node, channel) service processes. Required.
	Rates channel.Sampler
	// ArrivalRate is the expected packets per slot per node; arrivals are
	// Bernoulli-thinned batches. Required (> 0).
	ArrivalRate float64
	// ServiceScale converts a normalized channel rate into packets per
	// slot (default 3: the best channel drains up to 3 packets per slot).
	ServiceScale float64
	// UseOracle schedules on true means instead of learned estimates.
	UseOracle bool
	// R, D configure the distributed decision (defaults 2, 4).
	R, D int
	// Seed drives the arrival process.
	Seed int64
}

// System is a running scheduler simulation.
type System struct {
	ext     *extgraph.Extended
	rates   channel.Sampler
	dec     *protocol.Decider
	est     *policy.Estimator
	oracle  bool
	lambda  float64
	scale   float64
	queues  []float64
	arrives *rng.Source
	slot    int
	played  []int
}

// New builds a System.
func New(cfg Config) (*System, error) {
	if cfg.Ext == nil {
		return nil, errors.New("queueing: nil extended graph")
	}
	if cfg.Rates == nil {
		return nil, errors.New("queueing: nil rate sampler")
	}
	if cfg.Rates.N() != cfg.Ext.N || cfg.Rates.M() != cfg.Ext.M {
		return nil, fmt.Errorf("queueing: rates are %dx%d but graph is %dx%d",
			cfg.Rates.N(), cfg.Rates.M(), cfg.Ext.N, cfg.Ext.M)
	}
	if cfg.ArrivalRate <= 0 {
		return nil, fmt.Errorf("queueing: arrival rate must be positive, got %v", cfg.ArrivalRate)
	}
	if cfg.ServiceScale == 0 {
		cfg.ServiceScale = 3
	}
	if cfg.ServiceScale <= 0 {
		return nil, fmt.Errorf("queueing: service scale must be positive, got %v", cfg.ServiceScale)
	}
	rt, err := protocol.New(protocol.Config{Ext: cfg.Ext, R: cfg.R, D: cfg.D})
	if err != nil {
		return nil, err
	}
	est, err := policy.NewEstimator(cfg.Ext.K())
	if err != nil {
		return nil, err
	}
	return &System{
		ext:     cfg.Ext,
		rates:   cfg.Rates,
		dec:     rt.NewDecider(),
		est:     est,
		oracle:  cfg.UseOracle,
		lambda:  cfg.ArrivalRate,
		scale:   cfg.ServiceScale,
		queues:  make([]float64, cfg.Ext.N),
		arrives: rng.New(cfg.Seed).Split("arrivals"),
	}, nil
}

// SlotStats reports one slot of the scheduler.
type SlotStats struct {
	// Slot index (0-based).
	Slot int
	// Arrived packets this slot (all nodes).
	Arrived float64
	// Served packets this slot (all nodes).
	Served float64
	// TotalQueue after the slot.
	TotalQueue float64
	// Scheduled is the number of transmitting nodes.
	Scheduled int
}

// Queues returns a copy of the per-node backlogs.
func (s *System) Queues() []float64 { return append([]float64(nil), s.queues...) }

// TotalQueue returns the summed backlog.
func (s *System) TotalQueue() float64 {
	total := 0.0
	for _, q := range s.queues {
		total += q
	}
	return total
}

// Estimate returns the current service-rate estimate of arm k.
func (s *System) Estimate(k int) float64 { return s.est.Mean(k) }

// Step advances the system by one slot: arrivals, MaxWeight schedule over
// the distributed decision, service, estimate update.
func (s *System) Step() (*SlotStats, error) {
	stats := &SlotStats{Slot: s.slot}

	// Arrivals: integer part deterministic, fractional part Bernoulli.
	whole := float64(int(s.lambda))
	frac := s.lambda - whole
	for i := range s.queues {
		arr := whole
		if frac > 0 && s.arrives.Bernoulli(frac) {
			arr++
		}
		s.queues[i] += arr
		stats.Arrived += arr
	}

	// MaxWeight weights: backlog × rate estimate (optimistic 1.0 for
	// unseen arms so every channel gets probed; oracle uses true means).
	weights := make([]float64, s.ext.K())
	for k := range weights {
		node := s.ext.Node(k)
		var rate float64
		switch {
		case s.oracle:
			rate = s.rates.Mean(k)
		case s.est.Count(k) == 0:
			rate = 1
		default:
			rate = s.est.Mean(k)
		}
		weights[k] = s.queues[node] * rate
	}
	dec, err := s.dec.Decide(weights, s.played)
	if err != nil {
		return nil, fmt.Errorf("queueing: schedule at slot %d: %w", s.slot, err)
	}
	s.played = append(s.played[:0], dec.Winners...)

	// Service + learning.
	rewards := make([]float64, len(dec.Winners))
	for i, k := range dec.Winners {
		rate := s.rates.Sample(k)
		rewards[i] = rate
		node := s.ext.Node(k)
		served := rate * s.scale
		if served > s.queues[node] {
			served = s.queues[node]
		}
		s.queues[node] -= served
		stats.Served += served
	}
	if err := s.est.Update(dec.Winners, rewards); err != nil {
		return nil, err
	}
	if dyn, ok := s.rates.(channel.Dynamic); ok {
		dyn.Tick()
	}
	stats.Scheduled = len(dec.Winners)
	stats.TotalQueue = s.TotalQueue()
	s.slot++
	return stats, nil
}

// Run executes slots steps and returns the per-slot stats.
func (s *System) Run(slots int) ([]SlotStats, error) {
	if slots < 0 {
		return nil, fmt.Errorf("queueing: negative slot count %d", slots)
	}
	out := make([]SlotStats, 0, slots)
	for i := 0; i < slots; i++ {
		st, err := s.Step()
		if err != nil {
			return nil, err
		}
		out = append(out, *st)
	}
	return out, nil
}

// AverageQueue returns the mean TotalQueue over the last window slots of the
// given stats (or all of them when window ≤ 0 or too large).
func AverageQueue(stats []SlotStats, window int) float64 {
	if len(stats) == 0 {
		return 0
	}
	if window <= 0 || window > len(stats) {
		window = len(stats)
	}
	sum := 0.0
	for _, st := range stats[len(stats)-window:] {
		sum += st.TotalQueue
	}
	return sum / float64(window)
}
