package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"multihopbandit/internal/changeset"
	"multihopbandit/internal/channel"
	"multihopbandit/internal/core"
	"multihopbandit/internal/policy"
	"multihopbandit/internal/protocol"
)

// spanName identifies a layer boundary the benchmark times from outside.
type spanName uint8

const (
	spanOpStep spanName = iota
	spanOpAssign
	spanOpObserve
	spanStepSampled
	spanStepExternal
	spanEnsureDecided
	spanPolicyIndices
	spanPolicyUpdate
	spanSample
	spanDecide
	spanLocalMWIS
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op.step", "op.assign", "op.observe",
	"core.step_sampled", "core.step_external", "core.ensure_decided",
	"policy.indices", "policy.update", "channel.sample",
	"protocol.decide", "mwis.local",
}

func (n spanName) MarshalText() ([]byte, error) { return []byte(spanNames[n]), nil }

// spanRecord is one kept span. Parent is 0 for a request's root span.
type spanRecord struct {
	Rung   string   `json:"rung"`
	Req    uint32   `json:"req"`
	ID     int32    `json:"id"`
	Parent int32    `json:"parent"`
	Name   spanName `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

type frame struct {
	name  spanName
	id    int32
	start int64
	child int64 // time covered by finished child spans
}

// maxKeptSpans bounds the raw spans a tracer holds; aggregates are kept for
// every span regardless.
const maxKeptSpans = 1 << 14

// tracer records spans at the layer boundaries of one rung. Every span
// feeds per-name aggregates (count, total and self time) while the timed
// phase is on; the raw spans of every stride-th request are kept, up to
// maxKeptSpans. A nil *tracer records nothing, so untraced rungs pay one
// nil check per boundary.
type tracer struct {
	rung   string
	base   time.Time
	on     bool
	stack  []frame
	req    uint32
	nextID int32
	stride uint32
	keep   bool
	spans  []spanRecord

	count, total, self [numSpanNames]int64

	// costIn and costOut are the tracer's own cost per span (see
	// calibrateSpanCost), subtracted from the aggregates.
	costIn, costOut int64

	// Decide-path split from protocol.DecideTrace, over timed decides.
	decides                             int64
	broadcastNS, electionNS, finalizeNS int64
	indicesChanged, arms                int64
}

func newTracer(rung string, stride uint32) *tracer {
	if stride == 0 {
		stride = 1
	}
	return &tracer{rung: rung, base: time.Now(), stride: stride, spans: make([]spanRecord, 0, 256)}
}

// calibrateSpanCost measures what one span costs the tracer itself, by
// timing empty spans nested in a parent: an empty span's own duration is
// the cost inside its clock reads, and the parent's time per child beyond
// that is the cost outside them. Medians of several trials.
func calibrateSpanCost() (costIn, costOut int64) {
	const spans, trials = 20000, 7
	var ins, outs []float64
	for k := 0; k < trials; k++ {
		t := newTracer("calibration", 1<<31)
		t.on = true
		t.begin(spanOpStep)
		for i := 0; i < spans; i++ {
			t.begin(spanSample)
			t.end()
		}
		t.end()
		in := float64(t.total[spanSample]) / spans
		ins = append(ins, in)
		outs = append(outs, float64(t.total[spanOpStep])/spans-in)
	}
	return int64(median(ins)), int64(median(outs))
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// beginOp opens the root span of a new request.
func (t *tracer) beginOp(n spanName) {
	if t == nil {
		return
	}
	t.req++
	t.keep = t.req%t.stride == 0
	t.begin(n)
}

func (t *tracer) begin(n spanName) {
	if t == nil {
		return
	}
	t.nextID++
	t.stack = append(t.stack, frame{name: n, id: t.nextID, start: t.now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.finish(f, t.now(), t.costIn, t.costOut)
}

// finish closes frame f at end: charges its duration to the parent's child
// time and to the aggregates, and keeps the raw span if sampled. costIn is
// the tracer's own time inside the span's clock reads, costOut the part the
// parent sees outside them; neither counts as the layers' work.
func (t *tracer) finish(f frame, end, costIn, costOut int64) {
	dur := end - f.start
	var parent int32
	if k := len(t.stack); k > 0 {
		t.stack[k-1].child += dur + costOut
		parent = t.stack[k-1].id
	}
	if t.on {
		t.count[f.name]++
		t.total[f.name] += dur - costIn
		t.self[f.name] += dur - costIn - f.child
	}
	if t.keep && len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, spanRecord{
			Rung: t.rung, Req: t.req, ID: f.id, Parent: parent,
			Name: f.name, Start: f.start, End: end,
		})
	}
}

// observeDecide is the core.Loop decide observer. It runs inside the
// decision plane's DecideEpoch, so the open span is protocol.decide; the
// local MWIS phase becomes its child span (its windows are interleaved with
// election across mini-rounds, so the kept span is placed at the end of the
// decide with their summed duration).
func (t *tracer) observeDecide(_ int, tr *protocol.DecideTrace) {
	if tr.LocalMWISNS > 0 {
		end := t.now()
		t.nextID++
		t.finish(frame{name: spanLocalMWIS, id: t.nextID, start: end - tr.LocalMWISNS}, end, 0, 0)
	}
	if t.on {
		t.decides++
		t.broadcastNS += tr.BroadcastNS
		t.electionNS += tr.ElectionNS
		t.finalizeNS += tr.FinalizeNS
	}
}

func (t *tracer) noteIndices(ch *changeset.Set, arms int) {
	if !t.on {
		return
	}
	t.arms += int64(arms)
	if ch != nil {
		t.indicesChanged += int64(ch.Count())
	}
}

// writeSpans appends the kept spans as JSON lines to path.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// tracedPolicy times the policy calls the kernel makes. Embedding the
// interface forwards only policy.Policy's methods; the optional
// policy.IndexWriter is re-exposed by tracedIndexPolicy exactly when the
// wrapped policy has it, so the kernel takes the same path either way.
type tracedPolicy struct {
	policy.Policy
	tr *tracer
}

func (p *tracedPolicy) Indices() []float64 {
	p.tr.begin(spanPolicyIndices)
	x := p.Policy.Indices()
	p.tr.end()
	return x
}

func (p *tracedPolicy) Update(played []int, rewards []float64) error {
	p.tr.begin(spanPolicyUpdate)
	err := p.Policy.Update(played, rewards)
	p.tr.end()
	return err
}

type tracedIndexPolicy struct {
	*tracedPolicy
	w policy.IndexWriter
}

func (p *tracedIndexPolicy) WriteIndices(dst []float64, ch *changeset.Set) bool {
	p.tr.begin(spanPolicyIndices)
	changed := p.w.WriteIndices(dst, ch)
	p.tr.end()
	p.tr.noteIndices(ch, len(dst))
	return changed
}

func wrapPolicy(p policy.Policy, tr *tracer) policy.Policy {
	tp := &tracedPolicy{Policy: p, tr: tr}
	if w, ok := p.(policy.IndexWriter); ok {
		return &tracedIndexPolicy{tracedPolicy: tp, w: w}
	}
	return tp
}

// tracedSampler times reward draws; tracedDynamic adds Tick for samplers
// the kernel advances every slot.
type tracedSampler struct {
	channel.Sampler
	tr *tracer
}

func (s *tracedSampler) Sample(k int) float64 {
	s.tr.begin(spanSample)
	x := s.Sampler.Sample(k)
	s.tr.end()
	return x
}

type tracedDynamic struct {
	*tracedSampler
	dyn channel.Dynamic
}

func (s *tracedDynamic) Tick() {
	s.tr.begin(spanSample)
	s.dyn.Tick()
	s.tr.end()
}

func wrapSampler(s channel.Sampler, tr *tracer) channel.Sampler {
	ts := &tracedSampler{Sampler: s, tr: tr}
	if d, ok := s.(channel.Dynamic); ok {
		return &tracedDynamic{tracedSampler: ts, dyn: d}
	}
	return ts
}

// tracedPlane times the decision plane handed to core.NewLoop. Stats and
// SetTracer pass through, so the decide observer the loop installs reaches
// the decider and nests the local MWIS phase under the decide span.
type tracedPlane struct {
	core.DecisionPlane
	tr *tracer
}

func (p *tracedPlane) DecideEpoch(w []float64, prev []int, unchanged bool, ch *changeset.Set) (*protocol.Result, error) {
	p.tr.begin(spanDecide)
	r, err := p.DecisionPlane.DecideEpoch(w, prev, unchanged, ch)
	p.tr.end()
	return r, err
}
