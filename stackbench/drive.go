package main

import (
	"math"
	"time"

	"multihopbandit/internal/channel"
	"multihopbandit/internal/core"
	"multihopbandit/internal/serve"
	"multihopbandit/internal/wire"
)

// A target is one rung of the layer ladder: the surface the caller's
// requests enter the stack through. Every target answers with the serving
// plane's result types, so one digest covers all rungs.
type target interface {
	step(i, n int, out *serve.StepResult) error
	assign(i int, out *serve.Assignment) error
	observe(i int, batches []serve.ObservationBatch, out *serve.ObserveResult) error
}

// wireTarget sends every request over one binary-plane connection.
type wireTarget struct {
	c   *wire.Client
	ids []string
}

func (t *wireTarget) step(i, n int, out *serve.StepResult) error {
	return t.c.StepInto(t.ids[i], n, out)
}

func (t *wireTarget) assign(i int, out *serve.Assignment) error {
	return t.c.AssignmentInto(t.ids[i], out)
}

func (t *wireTarget) observe(i int, b []serve.ObservationBatch, out *serve.ObserveResult) error {
	return t.c.ObserveInto(t.ids[i], b, out)
}

// sessionTarget enqueues every request on the instance's actor mailbox
// through one reusable serve.Session.
type sessionTarget struct {
	sess  serve.Session
	insts []*serve.Instance
}

func (t *sessionTarget) step(i, n int, out *serve.StepResult) error {
	r, err := t.sess.Step(t.insts[i], n)
	if err != nil {
		return err
	}
	*out = *r
	return nil
}

func (t *sessionTarget) assign(i int, out *serve.Assignment) error {
	r, err := t.sess.Assignment(t.insts[i])
	if err != nil {
		return err
	}
	*out = *r
	return nil
}

func (t *sessionTarget) observe(i int, b []serve.ObservationBatch, out *serve.ObserveResult) error {
	r, err := t.sess.Observe(t.insts[i], b)
	if err != nil {
		return err
	}
	*out = *r
	return nil
}

// loopTarget drives bare core.Loop kernels inline, answering exactly as a
// serve actor would. It is the serial replay that every other rung must
// match, and, with a tracer, the rung the layer spans are taken at.
type loopTarget struct {
	loops []*core.Loop
	tr    *tracer
}

func (t *loopTarget) step(i, n int, out *serve.StepResult) error {
	l := t.loops[i]
	before := l.Decisions()
	total := 0.0
	for k := 0; k < n; k++ {
		t.tr.begin(spanStepSampled)
		x, err := l.StepSampled(nil)
		t.tr.end()
		if err != nil {
			return err
		}
		total += x
	}
	*out = serve.StepResult{
		Slots:        n,
		Slot:         l.Slot(),
		Observed:     total,
		ObservedKbps: channel.Kbps(total),
		Decisions:    int(l.Decisions() - before),
	}
	fillAssignment(l, &out.Assignment)
	return nil
}

func (t *loopTarget) assign(i int, out *serve.Assignment) error {
	l := t.loops[i]
	t.tr.begin(spanEnsureDecided)
	_, err := l.EnsureDecided()
	t.tr.end()
	if err != nil {
		return err
	}
	fillAssignment(l, out)
	return nil
}

func (t *loopTarget) observe(i int, b []serve.ObservationBatch, out *serve.ObserveResult) error {
	l := t.loops[i]
	for k := range b {
		t.tr.begin(spanStepExternal)
		err := l.StepExternal(b[k].Played, b[k].Rewards, nil)
		t.tr.end()
		if err != nil {
			return err
		}
	}
	*out = serve.ObserveResult{Applied: len(b), Slot: l.Slot()}
	return nil
}

func fillAssignment(l *core.Loop, a *serve.Assignment) {
	a.Slot = l.Slot()
	a.DecidedSlot = l.DecidedSlot()
	a.Winners = append(a.Winners[:0], l.Winners()...)
	a.Strategy = append(a.Strategy[:0], l.Strategy()...)
	a.EstimatedWeight = l.EstimatedWeight()
}

// digest is FNV-1a over 64-bit words: cheap enough to run inside the timed
// phase, order-sensitive, and identical for identical response streams.
type digest uint64

const digestBasis digest = 14695981039346656037

func (d *digest) word(x uint64) {
	*d = (*d ^ digest(x)) * 1099511628211
}

func (d *digest) ints(xs []int) {
	d.word(uint64(len(xs)))
	for _, x := range xs {
		d.word(uint64(x))
	}
}

func (d *digest) assignment(a *serve.Assignment) {
	d.word(uint64(a.Slot))
	d.word(uint64(a.DecidedSlot))
	d.ints(a.Winners)
	d.ints(a.Strategy)
	d.word(math.Float64bits(a.EstimatedWeight))
}

// Digest record tags. A failed request hashes its own tag, so any failure
// breaks equality with the replay.
const (
	tagStep uint64 = iota + 1
	tagAssign
	tagObserve
	tagFailed
)

// caller is the single closed-loop client: it sends the schedule's
// requests one at a time, waiting for each reply, and records each reply
// in the digest and each timed request's latency.
type caller struct {
	in  *inputs
	t   target
	tr  *tracer
	env []channel.Sampler // per-instance reward source (observe workloads)

	d         digest
	timed     bool
	lat       []int64 // per-request latency, ns (timed requests)
	attempted int64
	failed    int64
	slots     int64   // timed slots
	reward    float64 // realized reward over timed slots (normalized)

	stepOut serve.StepResult
	asgOut  serve.Assignment
	obsOut  serve.ObserveResult
	batches []serve.ObservationBatch
}

// newCaller returns a caller recording timed latencies into lat (which
// must have room for in.timedOps() samples), or into a fresh slice when lat
// is nil.
func newCaller(in *inputs, t target, env []channel.Sampler, tr *tracer, lat []int64) *caller {
	c := &caller{in: in, t: t, env: env, tr: tr, d: digestBasis, lat: lat}
	if in.w.stepSlots == 0 {
		c.batches = make([]serve.ObservationBatch, in.w.obsBatches)
	}
	if c.lat == nil {
		c.lat = make([]int64, 0, in.timedOps())
	}
	return c
}

// run sends rounds passes over every instance.
func (c *caller) run(rounds int) {
	for r := 0; r < rounds; r++ {
		for _, i := range c.in.order {
			if c.in.w.stepSlots > 0 {
				c.step(i)
			} else {
				c.observeRound(i)
			}
		}
	}
}

func (c *caller) record(start time.Time, failed bool) {
	if c.timed {
		c.lat = append(c.lat, int64(time.Since(start)))
		c.attempted++
		if failed {
			c.failed++
		}
	}
	if failed {
		c.d.word(tagFailed)
	}
}

func (c *caller) step(i int) {
	n := c.in.w.stepSlots
	c.tr.beginOp(spanOpStep)
	start := time.Now()
	err := c.t.step(i, n, &c.stepOut)
	c.record(start, err != nil)
	c.tr.end()
	if err != nil {
		return
	}
	r := &c.stepOut
	c.d.word(tagStep)
	c.d.word(uint64(i))
	c.d.word(uint64(r.Slots))
	c.d.word(uint64(r.Slot))
	c.d.word(math.Float64bits(r.Observed))
	c.d.word(uint64(r.Decisions))
	c.d.assignment(&r.Assignment)
	if c.timed {
		c.slots += int64(n)
		c.reward += r.Observed
	}
}

// observeRound is the external-observation mode: read the assignment, play
// its winners for obsBatches slots with rewards drawn from the caller's own
// copy of the channel model, and report them in one Observe.
func (c *caller) observeRound(i int) {
	c.tr.beginOp(spanOpAssign)
	start := time.Now()
	err := c.t.assign(i, &c.asgOut)
	c.record(start, err != nil)
	c.tr.end()
	if err != nil {
		return
	}
	c.d.word(tagAssign)
	c.d.word(uint64(i))
	c.d.assignment(&c.asgOut)

	env := c.env[i]
	dyn, _ := env.(channel.Dynamic)
	sum := 0.0
	for b := range c.batches {
		bt := &c.batches[b]
		bt.Played = append(bt.Played[:0], c.asgOut.Winners...)
		bt.Rewards = bt.Rewards[:0]
		for _, v := range bt.Played {
			x := env.Sample(v)
			bt.Rewards = append(bt.Rewards, x)
			sum += x
		}
		if dyn != nil {
			dyn.Tick()
		}
	}

	c.tr.beginOp(spanOpObserve)
	start = time.Now()
	err = c.t.observe(i, c.batches, &c.obsOut)
	c.record(start, err != nil)
	c.tr.end()
	if err != nil {
		return
	}
	c.d.word(tagObserve)
	c.d.word(uint64(i))
	c.d.word(uint64(c.obsOut.Applied))
	c.d.word(uint64(c.obsOut.Slot))
	for b := range c.batches {
		c.d.ints(c.batches[b].Played)
		for _, x := range c.batches[b].Rewards {
			c.d.word(math.Float64bits(x))
		}
	}
	if c.timed {
		c.slots += int64(len(c.batches))
		c.reward += sum
	}
}
