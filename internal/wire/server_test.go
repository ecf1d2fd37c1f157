package wire

import (
	"context"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"multihopbandit/internal/obs"
	"multihopbandit/internal/serve"
	"multihopbandit/internal/spec"
)

func gaussSpec(n, m, updateEvery int) spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Seed:     1,
		Topology: spec.TopologySpec{N: n, RequireConnected: true},
		Channel:  spec.ChannelSpec{M: m},
		Decision: spec.DecisionSpec{UpdateEvery: updateEvery},
	}
}

// startServer brings up a registry and a wire server on a loopback
// listener, returning the dial address.
func startServer(t *testing.T, shards int) (*serve.Registry, *Server, string) {
	t.Helper()
	reg := serve.NewRegistry(serve.RegistryConfig{Shards: shards})
	t.Cleanup(func() { reg.Close() })
	s := NewServer(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Serve(ln)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		<-done
	})
	return reg, s, ln.Addr().String()
}

// TestWireWorkflow exercises the whole binary API surface over real TCP:
// hello, create, list, step, assignment, observe (sync and async), typed
// errors, delete.
func TestWireWorkflow(t *testing.T) {
	for _, crc := range []bool{false, true} {
		name := "plain"
		if crc {
			name = "crc"
		}
		t.Run(name, func(t *testing.T) {
			_, _, addr := startServer(t, 2)
			c, err := Dial(addr, Options{CRC: crc})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if h := c.Hello(); h.Shards != 2 || h.MaxFrame != DefaultMaxFrame {
				t.Fatalf("hello = %+v", h)
			}

			cr, err := c.Create(serve.InstanceConfig{ID: "a", Spec: gaussSpec(10, 2, 1)})
			if err != nil {
				t.Fatal(err)
			}
			if cr.ID != "a" || cr.N != 10 || cr.M != 2 || cr.Policy != "zhou-li" {
				t.Fatalf("create = %+v", cr)
			}

			infos, err := c.List()
			if err != nil || len(infos) != 1 || infos[0].ID != "a" {
				t.Fatalf("list = %+v, %v", infos, err)
			}

			st, err := c.Step("a", 16)
			if err != nil {
				t.Fatal(err)
			}
			if st.Slots != 16 || st.Slot != 16 || st.Decisions != 16 || len(st.Assignment.Winners) == 0 {
				t.Fatalf("step = %+v", st)
			}

			as, err := c.Assignment("a")
			if err != nil {
				t.Fatal(err)
			}
			if as.Slot != 16 || len(as.Winners) == 0 {
				t.Fatalf("assignment = %+v", as)
			}

			rewards := make([]float64, len(as.Winners))
			for i := range rewards {
				rewards[i] = 0.5
			}
			ores, err := c.Observe("a", []serve.ObservationBatch{{Played: as.Winners, Rewards: rewards}})
			if err != nil {
				t.Fatal(err)
			}
			if ores.Applied != 1 || ores.Slot != 17 {
				t.Fatalf("observe = %+v", ores)
			}

			if err := c.PushObservations("a", []serve.ObservationBatch{{Played: as.Winners, Rewards: rewards}}); err != nil {
				t.Fatal(err)
			}
			// The async batch is applied in mailbox order before any later
			// request on the same instance's actor.
			as2, err := c.Assignment("a")
			if err != nil {
				t.Fatal(err)
			}
			if as2.Slot != 18 {
				t.Fatalf("slot after async observe = %d, want 18", as2.Slot)
			}

			// Typed errors: unknown instance and invalid spec surface the
			// same structured codes as the HTTP plane.
			if _, err := c.Step("ghost", 1); serve.ErrorCode(err) != serve.CodeNotFound {
				t.Fatalf("step ghost: %v (code %q)", err, serve.ErrorCode(err))
			}
			bad := gaussSpec(10, 2, 1)
			bad.Policy.Kind = "no-such-policy"
			if _, err := c.Create(serve.InstanceConfig{ID: "b", Spec: bad}); serve.ErrorCode(err) != serve.CodeInvalidSpec {
				t.Fatalf("bad create: %v (code %q)", err, serve.ErrorCode(err))
			}
			if _, err := c.Create(serve.InstanceConfig{ID: "a", Spec: gaussSpec(10, 2, 1)}); serve.ErrorCode(err) != serve.CodeAlreadyExists {
				t.Fatalf("dup create: %v (code %q)", err, serve.ErrorCode(err))
			}
			if _, err := c.Step("a", -4); serve.ErrorCode(err) != serve.CodeInvalidRequest {
				t.Fatalf("bad step: %v (code %q)", err, serve.ErrorCode(err))
			}
			// Frames carry raw float64s, so NaN and ±Inf arrive intact; a
			// rejected reward leaves the instance deciding.
			for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -100} {
				bad := []serve.ObservationBatch{{Played: as.Winners[:1], Rewards: []float64{x}}}
				if _, err := c.Observe("a", bad); serve.ErrorCode(err) != serve.CodeInvalidRequest {
					t.Fatalf("observe reward %v: %v (code %q)", x, err, serve.ErrorCode(err))
				}
				if _, err := c.Step("a", 1); err != nil {
					t.Fatalf("step after rejected reward %v: %v", x, err)
				}
			}

			if err := c.Delete("a"); err != nil {
				t.Fatal(err)
			}
			if err := c.Delete("a"); serve.ErrorCode(err) != serve.CodeNotFound {
				t.Fatalf("double delete: %v (code %q)", err, serve.ErrorCode(err))
			}
		})
	}
}

// TestWireCreateRejectsUnknownFields sends raw create frames whose JSON
// carries fields InstanceConfig does not define: one at the top level, one
// inside the spec, and the retired flat shape. The server decodes the
// payload with plain json.Unmarshal, so it is strict only because
// InstanceConfig is; every frame must fail with StatusInvalidRequest and
// create nothing.
func TestWireCreateRejectsUnknownFields(t *testing.T) {
	reg, _, addr := startServer(t, 1)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	var dec Decoder
	for i, body := range []string{
		`{"id":"top","spec":{"seed":1,"topology":{"n":8},"channel":{"m":2}},"bogus":1}`,
		`{"id":"nested","spec":{"seed":1,"topology":{"n":8},"channel":{"m":2},"bogus":1}}`,
		`{"id":"flat","n":8,"m":2,"seed":1}`,
	} {
		var e Encoder
		e.Begin(OpCreate, uint64(i+1), StatusOK, 0)
		e.PutBytes([]byte(body))
		e.End()
		if _, err := nc.Write(e.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := dec.ReadFrame(nc); err != nil {
			t.Fatal(err)
		}
		if dec.Status != StatusInvalidRequest {
			t.Errorf("create %s: status %d (%q), want %d", body, dec.Status, dec.Str(), StatusInvalidRequest)
		}
	}
	if infos := reg.List(); len(infos) != 0 {
		t.Fatalf("rejected creates left instances: %+v", infos)
	}
}

// TestWireShardAffinity checks the client routes an instance's requests to
// the connection matching its registry shard: after traffic to instances
// on every shard, the client holds at most one connection per shard and
// the placement agrees with Registry.ShardOf.
func TestWireShardAffinity(t *testing.T) {
	reg, s, addr := startServer(t, 4)
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Hello().Shards != 4 {
		t.Fatalf("shards = %d", c.Hello().Shards)
	}
	ids := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, id := range ids {
		if c.shardOf(id) != reg.ShardOf(id) {
			t.Fatalf("client shard %d != registry shard %d for %q", c.shardOf(id), reg.ShardOf(id), id)
		}
		if _, err := c.Create(serve.InstanceConfig{ID: id, Spec: gaussSpec(8, 2, 1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Step(id, 4); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.connsOpen.Load(); got > 4 {
		t.Fatalf("open connections = %d, want ≤ shard count 4", got)
	}
}

// TestWirePipelining hammers one client from many goroutines — concurrent
// callers interleave pipelined requests over shared shard connections —
// and checks every response pairs with its request (the per-instance slot
// counts must sum exactly). Run under -race this is the transport's
// concurrency test.
func TestWirePipelining(t *testing.T) {
	_, _, addr := startServer(t, 2)
	c, err := Dial(addr, Options{CRC: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const (
		workers = 16
		reqs    = 50
		batch   = 3
	)
	ids := []string{"p0", "p1", "p2", "p3"}
	for _, id := range ids {
		if _, err := c.Create(serve.InstanceConfig{ID: id, Spec: gaussSpec(8, 2, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := ids[w%len(ids)]
			var res serve.StepResult
			for i := 0; i < reqs; i++ {
				if err := c.StepInto(id, batch, &res); err != nil {
					errs <- err
					return
				}
				if res.Slots != batch {
					errs <- errors.New("response batch size mismatch")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	infos, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	perInstance := workers / len(ids) * reqs * batch
	for _, info := range infos {
		if info.Slot != perInstance {
			t.Fatalf("instance %s served %d slots, want %d", info.ID, info.Slot, perInstance)
		}
	}
}

// TestWireMetrics checks the wire families are registered on the shared
// exposition surface and count real traffic, and that garbage bytes bump
// the decode-error counter while clean disconnects do not.
func TestWireMetrics(t *testing.T) {
	reg, s, addr := startServer(t, 1)
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(serve.InstanceConfig{ID: "a", Spec: gaussSpec(8, 2, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step("a", 8); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitFor(t, func() bool { return s.connsOpen.Load() == 0 })
	if s.decodeErrors.Load() != 0 {
		t.Fatalf("clean disconnect counted as decode error")
	}

	// A connection speaking garbage must be dropped and counted.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	garbage := append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, make([]byte, headerLen)...)
	if _, err := nc.Write(garbage); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("server kept a garbage connection open")
	}
	nc.Close()
	waitFor(t, func() bool { return s.decodeErrors.Load() == 1 })

	var b strings.Builder
	reg.Obs().WritePrometheus(&b)
	text := b.String()
	exp, err := obs.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Validate(text); err != nil {
		t.Fatalf("exposition invalid with wire families: %v", err)
	}
	for _, want := range []string{
		"banditd_wire_connections ",
		`banditd_wire_frames_total{dir="in"}`,
		`banditd_wire_frames_total{dir="out"}`,
		`banditd_wire_bytes_total{dir="in"}`,
		"banditd_wire_decode_errors_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if v, ok := exp.Value("banditd_wire_frames_total", obs.L("dir", "in")); !ok || v < 3 {
		t.Fatalf("frames_total{in} = %v %v", v, ok)
	}
}

// TestWireShutdownDrain checks Shutdown stops accepting, waits for live
// connections to finish, and force-closes them at the deadline.
func TestWireShutdownDrain(t *testing.T) {
	reg := serve.NewRegistry(serve.RegistryConfig{Shards: 1})
	defer reg.Close()
	s := NewServer(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	c, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(serve.InstanceConfig{ID: "a", Spec: gaussSpec(8, 2, 1)}); err != nil {
		t.Fatal(err)
	}

	// A shutdown with a live idle connection must hit the deadline and
	// force-close it.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown = %v", err)
	}
	if err := <-served; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("serve returned %v", err)
	}
	if _, err := c.Step("a", 1); err == nil {
		t.Fatal("request succeeded after forced shutdown")
	}
	c.Close()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
