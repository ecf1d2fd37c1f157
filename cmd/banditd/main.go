// Command banditd is the online decision-serving daemon: it hosts
// multi-hop channel-access instances (internal/serve) and exposes them
// over an HTTP/JSON API.
//
//	banditd -addr 127.0.0.1:8650 -shards 4
//	banditd -listen-binary 127.0.0.1:8660  # binary framed data plane
//	banditd -data-dir /var/lib/banditd -recover
//	banditd -debug-addr 127.0.0.1:8651   # pprof + decision-path tracing
//
// Endpoints (see internal/serve.Server for the full route table):
//
//	POST   /v1/instances                   create an instance
//	GET    /v1/instances                   list instances
//	POST   /v1/instances/{id}/step         run self-simulation slots
//	POST   /v1/instances/{id}/observations push observation batches
//	GET    /v1/instances/{id}/assignment   current channel assignment
//	GET    /v1/instances/{id}/snapshot     export learner state
//	POST   /v1/instances/{id}/restore      import learner state
//	GET    /metrics                        Prometheus text exposition
//	GET    /healthz                        liveness probe
//
// With -listen-binary a second data plane serves the same instances over
// the binary framed protocol of internal/wire: persistent pipelined TCP
// connections, per-shard accept loops, and frame encode/decode from reused
// per-connection buffers. Both planes dispatch into the same actor
// mailboxes, so trajectories are bit-identical whichever transport carried
// them; wire traffic shows up on /metrics as the banditd_wire_* families.
// See OPERATIONS.md for the framing spec.
//
// With -debug-addr a second listener serves the debug plane: net/http/pprof
// under /debug/pprof/, and /debug/trace — the most recent decision-path
// spans as JSON Lines (?n=512 limits the window). Decision-path tracing is
// enabled if and only if the debug listener is: without it the decide hot
// path keeps its zero-overhead nil-check and /metrics exposes empty
// banditd_decide_phase_ns histograms.
//
// With -data-dir every instance is durable: observations append to a
// per-instance write-ahead log before the request is acknowledged, and
// learner snapshots publish periodically. A restart with -recover rebuilds
// every instance bit-identically from snapshot + log tail (see OPERATIONS.md
// for the directory layout and recovery semantics).
//
// The daemon shuts down cleanly on SIGINT/SIGTERM: in-flight requests
// drain (up to -drain), instances take a final snapshot and close, and the
// exit code is 0. SIGKILL is the crash path recovery is built for.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"multihopbandit/internal/obs"
	"multihopbandit/internal/serve"
	"multihopbandit/internal/wire"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8650", "listen address")
		binAddr = flag.String("listen-binary", "", "binary framed data-plane listen address (empty = binary plane off)")
		shards  = flag.Int("shards", 0, "registry shards (0 = GOMAXPROCS)")
		mailbox = flag.Int("mailbox", 0, "per-instance mailbox depth (0 = default)")
		drain   = flag.Duration("drain", 10*time.Second, "shutdown drain timeout")

		debugAddr = flag.String("debug-addr", "", "debug listen address for pprof and /debug/trace (empty = debug plane and decision-path tracing off)")
		traceCap  = flag.Int("trace-ring", 8192, "decision-path trace ring capacity in spans (with -debug-addr)")

		dataDir       = flag.String("data-dir", "", "root directory for durable instance state (empty = in-memory only)")
		recoverOnBoot = flag.Bool("recover", true, "with -data-dir, rebuild persisted instances on startup")
		persist       = flag.Bool("persist-all", true, "with -data-dir, persist every instance (not only specs with a persist block)")
		snapshot      = flag.Int("snapshot-every", 0, "default observed slots between snapshots for -persist-all instances (0 = spec default)")
		fsync         = flag.String("fsync", "", "default fsync policy for -persist-all instances: always|batch|none (empty = spec default)")
		regret        = flag.Bool("regret", true, "emit per-instance banditd_regret_* metrics (each scenario's exact optimum, computed once and cached; disable on pathological topologies)")
	)
	flag.Parse()
	log.SetPrefix("banditd: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	var ring *obs.TraceRing
	if *debugAddr != "" {
		ring = obs.NewTraceRing(*traceCap)
	}
	reg := serve.NewRegistry(serve.RegistryConfig{
		Shards:       *shards,
		MailboxDepth: *mailbox,
		Trace:        ring,
		Persist: serve.PersistOptions{
			DataDir:       *dataDir,
			All:           *persist,
			SnapshotEvery: *snapshot,
			Fsync:         *fsync,
		},
	})
	if *dataDir != "" && *recoverOnBoot {
		n, err := reg.Recover()
		if err != nil {
			log.Fatalf("recover: %v", err)
		}
		log.Printf("recovered %d instance(s) from %s", n, *dataDir)
	}
	h := serve.NewServer(reg)
	h.RegretMetrics = *regret
	srv := &http.Server{Handler: h}

	var dsrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("debug listen: %v", err)
		}
		dsrv = &http.Server{Handler: debugMux(ring)}
		go func() {
			if err := dsrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug serve: %v", err)
			}
		}()
		log.Printf("debug plane on http://%s (pprof, /debug/trace, ring %d spans)", dln.Addr(), ring.Cap())
	}

	var wsrv *wire.Server
	if *binAddr != "" {
		wln, err := net.Listen("tcp", *binAddr)
		if err != nil {
			log.Fatalf("binary listen: %v", err)
		}
		wsrv = wire.NewServer(reg)
		go func() {
			if err := wsrv.Serve(wln); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("binary serve: %v", err)
			}
		}()
		log.Printf("binary data plane on %s (%d accept loops)", wln.Addr(), reg.Shards())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	if *dataDir != "" {
		log.Printf("serving on http://%s (%d shards, durable in %s)", ln.Addr(), reg.Shards(), *dataDir)
	} else {
		log.Printf("serving on http://%s (%d shards)", ln.Addr(), reg.Shards())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	}

	log.Printf("shutting down (drain %v)", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("shutdown: %v", err)
	}
	if wsrv != nil {
		if err := wsrv.Shutdown(sctx); err != nil {
			log.Printf("binary shutdown: %v (connections force-closed)", err)
		}
	}
	if dsrv != nil {
		_ = dsrv.Shutdown(sctx)
	}
	reg.Close()
	m := reg.Metrics()
	log.Printf("clean shutdown: %d slots served, %d strategy decisions", m.TotalSlots(), m.TotalDecisions())
}

// debugMux builds the debug plane: the standard pprof handlers plus the
// decision-path trace export. Hand-wired (no DefaultServeMux) so nothing
// else an import might register leaks onto the debug listener.
func debugMux(ring *obs.TraceRing) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		max := 0
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			max = v
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		if _, err := ring.WriteJSONL(w, max); err != nil {
			log.Printf("trace export: %v", err)
		}
	})
	return mux
}
