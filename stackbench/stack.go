package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"multihopbandit/internal/channel"
	"multihopbandit/internal/core"
	"multihopbandit/internal/engine"
	"multihopbandit/internal/obs"
	"multihopbandit/internal/protocol"
	"multihopbandit/internal/serve"
	"multihopbandit/internal/spec"
	"multihopbandit/internal/wire"
)

// rung is a level of the layer ladder. Every rung replays the identical
// generated inputs; adjacent rungs differ by one layer.
type rung int

const (
	rungWire    rung = iota + 1 // wire.Client → wire.Server → persisted registry
	rungDurable                 // serve.Session on a persisted registry
	rungSession                 // serve.Session on an unpersisted registry
	rungLoop                    // core.Loop built as serve builds it, driven inline
)

func (r rung) String() string {
	switch r {
	case rungWire:
		return "wire"
	case rungDurable:
		return "session-persisted"
	case rungSession:
		return "session"
	default:
		return "loop"
	}
}

// topRung is the rung end-to-end metrics are measured at.
func (w *workload) topRung() rung {
	if w.durable {
		return rungWire
	}
	return rungSession
}

// ladder lists the serving rungs of a workload from the top down; the loop
// rung is run separately (untraced and traced).
func (w *workload) ladder() []rung {
	if w.durable {
		return []rung{rungWire, rungDurable, rungSession}
	}
	return []rung{rungSession}
}

// rep is one repetition: a fresh stack set up, warmed, driven through the
// timed rounds, measured and torn down.
type rep struct {
	setup, wall, cpu time.Duration
	c                *caller
	heapLive         uint64

	// Timed-phase deltas of the layers' own counters.
	walBytes, walFsyncs, walSnapshots, walErrors int64
	wireBytes, wireDecodeErrors                  int64
	allocBytes, gcCycles, gcPauseNS              uint64
	stats                                        protocol.DecideStats

	// Setup split (serving rungs).
	createNS, artifactNS, runtimeNS int64
	cacheHits, cacheLookups         int

	// hopNS is the mean Session round trip of a request that does no slot
	// work (traced session rung only): the mailbox hop.
	hopNS float64
}

// failedOps counts failed requests plus the failures the stack only
// reports in its counters: persistence is fail-open, so a WAL error never
// fails a request, and a wire decode error drops a connection.
func (r *rep) failedOps() int64 { return r.c.failed + r.walErrors + r.wireDecodeErrors }

func (r *rep) slotsPerSec() float64 { return float64(r.c.slots) / r.wall.Seconds() }

func (r *rep) cpuPerSlotUS() float64 { return float64(r.cpu.Nanoseconds()) / 1e3 / float64(r.c.slots) }

// meanOpNS is the mean request latency as the caller saw it.
func (r *rep) meanOpNS() float64 {
	var sum int64
	for _, x := range r.c.lat {
		sum += x
	}
	return float64(sum) / float64(len(r.c.lat))
}

// stack is the serving side of a serving rung.
type stack struct {
	reg    *serve.Registry
	srv    *wire.Server
	served chan error
	client *wire.Client
	dir    string
}

// runRep runs one repetition of in at rung r. tr, when non-nil, records the
// rung's spans; dataDir is the persisted rungs' data directory, created
// fresh and removed afterwards; lat, when non-nil, receives the timed
// latencies (see newCaller).
func runRep(in *inputs, r rung, tr *tracer, dataDir string, lat []int64) (*rep, error) {
	runtime.GC() // the previous repetition's garbage is not this one's cost
	m := &rep{}
	start := time.Now()
	var (
		t     target
		env   []channel.Sampler
		st    *stack
		loops []*core.Loop
		err   error
	)
	if r == rungLoop {
		loops, env, err = buildLoops(in, tr)
		t = &loopTarget{loops: loops, tr: tr}
	} else {
		st, t, env, err = openStack(in, r, dataDir, m)
	}
	if err != nil {
		return nil, err
	}
	c := newCaller(in, t, env, tr, lat)
	m.c = c
	c.run(in.warmRounds)
	m.setup = time.Since(start)

	statsBefore := sumStats(loops)
	cntBefore := st.counters()
	rtBefore := readRuntime()
	cpuBefore := cpuTime()
	if tr != nil {
		tr.on = true
	}
	c.timed = true
	t0 := time.Now()
	c.run(in.rounds)
	m.wall = time.Since(t0)
	m.cpu = cpuTime() - cpuBefore
	rtAfter := readRuntime()
	if tr != nil {
		tr.on = false
	}
	if s, ok := t.(*sessionTarget); ok && tr != nil && r == rungSession {
		if m.hopNS, err = probeHop(s); err != nil {
			_ = st.close() // the probe's error is the one to report
			return nil, err
		}
	}
	m.stats = sumStats(loops).Sub(statsBefore)
	m.allocBytes = rtAfter.alloc - rtBefore.alloc
	m.gcCycles = rtAfter.cycles - rtBefore.cycles
	m.gcPauseNS = rtAfter.pauseNS - rtBefore.pauseNS
	timed := st.counters().sub(cntBefore)
	m.walBytes, m.walFsyncs, m.walSnapshots = timed.walBytes, timed.walFsyncs, timed.walSnapshots
	m.wireBytes = timed.wireBytes
	runtime.GC()
	m.heapLive = readRuntime().live

	// The repetition keeps its measurements, not the stack it drove.
	c.t, c.env = nil, nil
	if st != nil {
		closeErr := st.close()
		// Failures count through teardown too: final snapshots and
		// connection close happen there.
		all := st.counters().sub(cntBefore)
		m.walErrors, m.wireDecodeErrors = all.walErrors, all.wireDecodeErrors
		if closeErr != nil {
			return nil, closeErr
		}
	}
	return m, nil
}

// buildLoops builds one core.Loop per instance with the constructors the
// serving registry uses (artifact cache, Instance.Runtime, BuildSampler,
// BuildPolicy, a decider sharing one arena per runtime). With a tracer the
// policy, sampler and decision plane are wrapped in timing shims and the
// decide observer splits the decide into its phases.
func buildLoops(in *inputs, tr *tracer) ([]*core.Loop, []channel.Sampler, error) {
	cache := engine.NewArtifactCache()
	arenas := make(map[*protocol.Runtime]*protocol.DecideArena)
	loops := make([]*core.Loop, len(in.specs))
	var env []channel.Sampler
	for i, canon := range in.specs {
		inst, err := cache.Scenario(canon)
		if err != nil {
			return nil, nil, err
		}
		rt, err := inst.Runtime(canon.Decision.R, canon.Decision.D)
		if err != nil {
			return nil, nil, err
		}
		sampler, err := spec.BuildSampler(canon, inst.Means)
		if err != nil {
			return nil, nil, err
		}
		pol, err := spec.BuildPolicy(canon.Policy, inst.Ext.K(), inst.Ext.N,
			sampler.Means(), spec.PolicyStream(canon.NoiseSeed))
		if err != nil {
			return nil, nil, err
		}
		dec := rt.NewDecider()
		arena, ok := arenas[rt]
		if !ok {
			arena = protocol.NewDecideArena()
			arenas[rt] = arena
		}
		dec.SetArena(arena)
		var plane core.DecisionPlane = dec
		if tr != nil {
			pol = wrapPolicy(pol, tr)
			sampler = wrapSampler(sampler, tr)
			plane = &tracedPlane{DecisionPlane: dec, tr: tr}
		}
		loop, err := core.NewLoop(core.LoopConfig{
			Ext:         inst.Ext,
			Runtime:     rt,
			Decider:     plane,
			Policy:      pol,
			Sampler:     sampler,
			UpdateEvery: canon.Decision.UpdateEvery,
		})
		if err != nil {
			return nil, nil, err
		}
		if tr != nil {
			loop.SetDecideObserver(tr.observeDecide)
		}
		loops[i] = loop
		if in.w.stepSlots == 0 {
			s, err := spec.BuildSampler(canon, inst.Means)
			if err != nil {
				return nil, nil, err
			}
			env = append(env, s)
		}
	}
	return loops, env, nil
}

// probeHop times Session.Info round robin over the instances. The actor
// answers Info from counters it already holds, so the round trip is the
// mailbox hop: enqueue, hand-off to the actor goroutine, reply, hand-back.
func probeHop(s *sessionTarget) (float64, error) {
	const probes = 4096
	start := time.Now()
	for i := 0; i < probes; i++ {
		if _, err := s.sess.Info(s.insts[i%len(s.insts)]); err != nil {
			return 0, fmt.Errorf("hop probe: %w", err)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / probes, nil
}

func sumStats(loops []*core.Loop) protocol.DecideStats {
	var s protocol.DecideStats
	for _, l := range loops {
		d := l.DecideStats()
		s.FullDecides += d.FullDecides
		s.EpochSkips += d.EpochSkips
		s.LeaderSkips += d.LeaderSkips
		s.SensitivitySkips += d.SensitivitySkips
		s.MemoStructHits += d.MemoStructHits
		s.MemoMisses += d.MemoMisses
		s.MiniRounds += d.MiniRounds
		s.WeightBroadcasts += d.WeightBroadcasts
		s.LeaderDeclarations += d.LeaderDeclarations
		s.LocalBroadcasts += d.LocalBroadcasts
		s.MiniTimeslots += d.MiniTimeslots
	}
	return s
}

// openStack builds a fresh serving stack for rung r: an artifact cache and
// a one-shard registry (persisted under dataDir for the durable rungs), the
// artifacts of every instance built through Registry.Cache(), every
// instance created, and for the wire rung a wire.Server on a loopback
// listener with one dialed client.
func openStack(in *inputs, r rung, dataDir string, m *rep) (*stack, target, []channel.Sampler, error) {
	cfg := serve.RegistryConfig{Shards: 1, Cache: engine.NewArtifactCache()}
	if r == rungWire || r == rungDurable {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, nil, nil, err
		}
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, nil, nil, err
		}
		cfg.Persist = serve.PersistOptions{DataDir: dataDir}
	}
	st := &stack{reg: serve.NewRegistry(cfg), dir: cfg.Persist.DataDir}
	fail := func(err error) (*stack, target, []channel.Sampler, error) {
		_ = st.close() // best effort: the setup error is the one to report
		return nil, nil, nil, err
	}

	cache := st.reg.Cache()
	before := cache.Stats()
	means := make([][]float64, len(in.specs))
	for i, canon := range in.specs {
		t0 := time.Now()
		inst, err := cache.Scenario(canon)
		t1 := time.Now()
		if err != nil {
			return fail(err)
		}
		if _, err := inst.Runtime(canon.Decision.R, canon.Decision.D); err != nil {
			return fail(err)
		}
		m.artifactNS += t1.Sub(t0).Nanoseconds()
		m.runtimeNS += time.Since(t1).Nanoseconds()
		means[i] = inst.Means
	}
	after := cache.Stats()
	m.cacheHits = after.Hits - before.Hits
	m.cacheLookups = m.cacheHits + after.Misses - before.Misses

	insts := make([]*serve.Instance, len(in.specs))
	for i, canon := range in.specs {
		t0 := time.Now()
		h, err := st.reg.Create(serve.InstanceConfig{ID: in.ids[i], Spec: canon})
		if err != nil {
			return fail(err)
		}
		m.createNS += time.Since(t0).Nanoseconds()
		insts[i] = h
	}
	var env []channel.Sampler
	if in.w.stepSlots == 0 {
		for i, canon := range in.specs {
			s, err := spec.BuildSampler(canon, means[i])
			if err != nil {
				return fail(err)
			}
			env = append(env, s)
		}
	}
	if r != rungWire {
		return st, &sessionTarget{insts: insts}, env, nil
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	st.srv = wire.NewServer(st.reg)
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.client, err = wire.Dial(ln.Addr().String(), wire.Options{})
	if err != nil {
		return fail(err)
	}
	return st, &wireTarget{c: st.client, ids: in.ids}, env, nil
}

// close tears the stack down and waits for every goroutine it started: the
// client's connection, the server's accept loop and handlers, and the
// instance actors (which write their final snapshots).
func (s *stack) close() error {
	var errs []error
	if s.client != nil {
		if err := s.client.Close(); err != nil {
			errs = append(errs, err)
		}
		s.client = nil
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := s.srv.Shutdown(ctx)
		cancel()
		if err != nil {
			errs = append(errs, err)
		}
		if err := <-s.served; err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
		s.srv = nil
	}
	s.reg.Close()
	if s.dir != "" {
		if err := os.RemoveAll(s.dir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// stackCounters are the layer counters read from the registry's metric
// exposition (the /metrics surface an operator sees).
type stackCounters struct {
	walBytes, walFsyncs, walSnapshots, walErrors int64
	wireBytes, wireDecodeErrors                  int64
}

func (s *stack) counters() stackCounters {
	if s == nil {
		return stackCounters{}
	}
	var b strings.Builder
	s.reg.Obs().WritePrometheus(&b)
	e, err := obs.Parse(b.String())
	if err != nil {
		panic(fmt.Sprintf("stackbench: registry exposition does not parse: %v", err))
	}
	get := func(name string) int64 { return int64(e.Sum(name)) }
	return stackCounters{
		walBytes:         get("banditd_wal_append_bytes_total"),
		walFsyncs:        get("banditd_wal_fsyncs_total"),
		walSnapshots:     get("banditd_wal_snapshots_total"),
		walErrors:        get("banditd_wal_errors_total"),
		wireBytes:        get("banditd_wire_bytes_total"),
		wireDecodeErrors: get("banditd_wire_decode_errors_total"),
	}
}

func (a stackCounters) sub(b stackCounters) stackCounters {
	return stackCounters{
		walBytes:         a.walBytes - b.walBytes,
		walFsyncs:        a.walFsyncs - b.walFsyncs,
		walSnapshots:     a.walSnapshots - b.walSnapshots,
		walErrors:        a.walErrors - b.walErrors,
		wireBytes:        a.wireBytes - b.wireBytes,
		wireDecodeErrors: a.wireDecodeErrors - b.wireDecodeErrors,
	}
}

// runtimeReading is a snapshot of the Go runtime's allocation and GC
// counters.
type runtimeReading struct {
	alloc, cycles, live, pauseNS uint64
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeReading{
		alloc:   s[0].Value.Uint64(),
		cycles:  s[1].Value.Uint64(),
		live:    s[2].Value.Uint64(),
		pauseNS: ms.PauseTotalNs,
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("stackbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
