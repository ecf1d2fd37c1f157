# Local targets mirror the CI pipeline (.github/workflows/ci.yml) exactly,
# so a green `make ci` implies a green CI run.

GO ?= go
BANDITD_ADDR ?= 127.0.0.1:8650
BANDITD_DEBUG_ADDR ?= 127.0.0.1:8651
BANDITD_BINARY_ADDR ?= 127.0.0.1:8660

# Fixed figgen configuration behind the committed golden digest
# (testdata/figgen-golden.sha256). Reduced sizes keep the run a few seconds
# while still exercising every experiment (Fig. 6/7/8, ablations, shift,
# Fig. 7 replication) through the shared slot kernel.
GOLDEN_ARGS = -exp all -seed 1 -slots 300 -periods 40 -reps 3

.PHONY: all build fmt-check vet test race stackbench-test fuzz-smoke bench bench-smoke bench-dist spec-smoke decide-smoke recover-smoke obs-smoke cluster-smoke dist-smoke verify-golden update-golden figures ci

# Committed ScenarioSpec files driven by spec-smoke: one per channel kind
# (gaussian, gilbert-elliott, shifting) plus the primary-user wrapper.
SPEC_FILES = testdata/specs/gaussian-random.json,testdata/specs/gilbert-elliott-grid.json,testdata/specs/shifting-linear.json,testdata/specs/primary-user.json

all: build

build:
	$(GO) build ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The serving-stack benchmark (BENCHMARK.json) is a module of its own, so
# the root ./... skips it. Its tests check that every rung reproduces the
# serial replay digest.
stackbench-test:
	cd stackbench && $(GO) vet ./... && $(GO) test ./...

# Thirty seconds of native fuzzing for each of three targets: the decider
# against its from-scratch oracle (FuzzDeciderMatchesReference), the local
# MWIS's rank-space search against the id-space one
# (FuzzRankSearchMatchesReference), then the local solve's replay
# certificate against re-solves under drifted weights
# (FuzzSlackCertificate); `make test` only replays the committed corpora.
# A diverging input is written under the package's testdata/fuzz and fails
# the target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDeciderMatchesReference$$' -fuzztime 30s ./internal/protocol
	$(GO) test -run '^$$' -fuzz '^FuzzRankSearchMatchesReference$$' -fuzztime 30s ./internal/mwis
	$(GO) test -run '^$$' -fuzz '^FuzzSlackCertificate$$' -fuzztime 30s ./internal/mwis

# Full benchmark suite (slow; regenerates every figure several times).
bench:
	$(GO) test -bench=. -benchmem -timeout 60m ./...

# One iteration of every benchmark — the CI smoke run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=NONE -timeout 30m ./...

# Spec smoke: start banditd under the race detector and create one
# instance per channel kind from the committed ScenarioSpec files, then
# drive them and assert nonzero throughput AND nonzero MWIS strategy
# decisions plus a clean SIGTERM shutdown.
spec-smoke:
	$(GO) build -race -o bin/banditd.race ./cmd/banditd
	$(GO) build -race -o bin/banditload.race ./cmd/banditload
	@set -e; bin/banditd.race -addr $(BANDITD_ADDR) & pid=$$!; \
	bin/banditload.race -addr http://$(BANDITD_ADDR) \
		-specs "$(SPEC_FILES)" -clients 2 -batch 16 -duration 2s \
		-min-throughput 1 -min-mwis 1 \
		|| { kill -TERM $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid

# CI smoke for the decision plane, two legs against one race-built pair.
# Leg 1: oracle-policy instances at update period 4 — the oracle's weight
# vector never moves, so boundaries settle into weight-epoch skips; the run
# fails unless the server actually recorded skips. Leg 2: cucb instances at
# update period 1 — a UCB index drifts every slot, so epoch skips are
# impossible and only the per-leader sensitivity certificate (drift within
# the solver's replay slack) can avoid re-solves; the run fails unless
# sensitivity skips were recorded. Both fail unless throughput is nonzero
# and shutdown is clean. That the skip paths never move the figure
# pipeline's bytes is the verify-golden job's check, once per CI run.
decide-smoke:
	$(GO) build -race -o bin/banditd.race ./cmd/banditd
	$(GO) build -race -o bin/banditload.race ./cmd/banditload
	@set -e; bin/banditd.race -addr $(BANDITD_ADDR) & pid=$$!; \
	bin/banditload.race -addr http://$(BANDITD_ADDR) -instances 32 -clients 4 \
		-batch 32 -duration 2s -update-every 4 -policy oracle \
		-min-throughput 1 -min-epoch-skips 1 \
		|| { kill -TERM $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid
	@set -e; bin/banditd.race -addr $(BANDITD_ADDR) & pid=$$!; \
	bin/banditload.race -addr http://$(BANDITD_ADDR) -instances 32 -clients 4 \
		-batch 32 -duration 2s -update-every 1 -policy cucb \
		-min-throughput 1 -min-sensitivity-skips 1 \
		|| { kill -TERM $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid

# Crash-recovery smoke: a race-built banditd runs durably (-data-dir), 64
# persisted instances take load, the daemon is killed with SIGKILL (no
# drain, no final snapshot — the crash the WAL exists for), and a restarted
# banditd -recover must come back with all 64 instances serving decisions
# (banditload -attach -expect-instances asserts both). The second drive
# also proves recovered instances accept new load, not just reads.
recover-smoke:
	$(GO) build -race -o bin/banditd.race ./cmd/banditd
	$(GO) build -race -o bin/banditload.race ./cmd/banditload
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	bin/banditd.race -addr $(BANDITD_ADDR) -data-dir "$$dir" & pid=$$!; \
	bin/banditload.race -addr http://$(BANDITD_ADDR) -instances 64 -clients 4 \
		-batch 32 -duration 2s -persist -keep -min-throughput 1 \
		|| { kill -TERM $$pid 2>/dev/null; exit 1; }; \
	kill -KILL $$pid; wait $$pid || true; \
	bin/banditd.race -addr $(BANDITD_ADDR) -data-dir "$$dir" & pid=$$!; \
	bin/banditload.race -addr http://$(BANDITD_ADDR) -attach -expect-instances 64 \
		-clients 4 -batch 32 -duration 2s -min-throughput 1 \
		|| { kill -TERM $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid

# Distributed execution sweep: the concurrent per-vertex agent runtime
# (internal/distnet) across network sizes into the thousands of agents,
# frame loss rates, and link latencies — wall-clock per decision, frames
# by flood kind against the paper's per-vertex origination bound, and the
# determination failure rate, recorded machine-readably in BENCH_dist.json.
bench-dist:
	$(GO) run ./cmd/distbench -json BENCH_dist.json

# Distributed execution smoke (the CI gate behind the dist-smoke job):
# race-enabled distnet over a real TCP loopback transport proving winner
# sets bit-identical to protocol.Decider, then a fault churn (loss, bursts,
# partition with heal, crash/restart) asserting zero protocol violations.
dist-smoke:
	$(GO) run -race ./cmd/distbench -smoke

# Binary data-plane smoke: a race-built banditd serves the HTTP/JSON API
# and the binary framed protocol concurrently; banditload drives the binary
# plane (shard-affine pipelined TCP) while asserting nonzero throughput,
# then drives the JSON plane against the same live daemon. Zero server-side
# frame-decode errors (-max-decode-errors 0 is the default) and a clean
# SIGTERM drain are part of the contract.
cluster-smoke:
	$(GO) build -race -o bin/banditd.race ./cmd/banditd
	$(GO) build -race -o bin/banditload.race ./cmd/banditload
	@set -e; bin/banditd.race -addr $(BANDITD_ADDR) -listen-binary $(BANDITD_BINARY_ADDR) & pid=$$!; \
	{ bin/banditload.race -addr http://$(BANDITD_ADDR) -transport binary \
		-binary-addr $(BANDITD_BINARY_ADDR) -instances 32 -clients 4 \
		-batch 32 -duration 2s -min-throughput 1 && \
	  bin/banditload.race -addr http://$(BANDITD_ADDR) -instances 32 -clients 4 \
		-batch 32 -duration 2s -min-throughput 1; } \
		|| { kill -TERM $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid

# Observability smoke: a race-built banditd runs with its debug plane on,
# takes load, and banditstat then holds the whole surface to its contract —
# the /metrics scrape passes the strict exposition validator, the pprof mux
# answers, /debug/trace returns parseable spans, phase histograms are
# populated, and the span phase sums cover >= 95% of full-decide wall time.
# The larger 15x3 instances keep per-decide work well above the fixed
# residual (Result assembly, stats adds) the phase timers don't cover.
obs-smoke:
	$(GO) build -race -o bin/banditd.race ./cmd/banditd
	$(GO) build -race -o bin/banditload.race ./cmd/banditload
	$(GO) build -race -o bin/banditstat.race ./cmd/banditstat
	@set -e; bin/banditd.race -addr $(BANDITD_ADDR) -debug-addr $(BANDITD_DEBUG_ADDR) & pid=$$!; \
	{ bin/banditload.race -addr http://$(BANDITD_ADDR) -instances 32 -clients 4 \
		-n 15 -m 3 -batch 32 -duration 2s -keep -min-throughput 1 && \
	  bin/banditstat.race -addr http://$(BANDITD_ADDR) -debug-addr http://$(BANDITD_DEBUG_ADDR) \
		-min-phase-coverage 0.95 -min-phase-samples 100 -min-spans 100; } \
		|| { kill -TERM $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid

# Byte-identity tripwire for the figure pipeline: regenerate figgen output
# at the fixed golden configuration and compare its SHA-256 against the
# committed digest. Any change to the RNG stream structure, the kernel's
# slot procedure, or the renderers fails this target.
verify-golden:
	$(GO) build -o bin/figgen ./cmd/figgen
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	bin/figgen $(GOLDEN_ARGS) > "$$out" || { echo "figgen failed; not comparing digests"; exit 1; }; \
	got=$$(sha256sum < "$$out" | awk '{print $$1}'); \
	want=$$(cut -d' ' -f1 testdata/figgen-golden.sha256); \
	if [ "$$got" != "$$want" ]; then \
		echo "figgen golden digest mismatch:"; \
		echo "  want $$want"; \
		echo "  got  $$got"; \
		echo "Output at the fixed seed changed. If intentional (a rendering"; \
		echo "or experiment change, never a silent numeric drift), refresh"; \
		echo "the digest with 'make update-golden' and explain why in the PR."; \
		exit 1; \
	fi; echo "figgen golden digest OK ($$got)"

# Refresh the committed golden digest after an intentional output change.
update-golden:
	$(GO) build -o bin/figgen ./cmd/figgen
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	bin/figgen $(GOLDEN_ARGS) > "$$out" || { echo "figgen failed; golden digest not updated"; exit 1; }; \
	got=$$(sha256sum < "$$out" | awk '{print $$1}'); \
	printf '%s  figgen $(GOLDEN_ARGS)\n' "$$got" > testdata/figgen-golden.sha256; \
	echo "updated testdata/figgen-golden.sha256 ($$got)"

# Regenerate every table and figure of the paper through the engine.
figures:
	$(GO) run ./cmd/figgen -exp all -v

ci: build fmt-check vet race stackbench-test fuzz-smoke bench-smoke spec-smoke decide-smoke recover-smoke obs-smoke cluster-smoke dist-smoke verify-golden
