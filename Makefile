# Verification targets. `make verify` is the tier-1 gate; `make race`
# adds the race detector over the whole module (the runner's worker pool
# is the main concurrency surface; the frame pool in netsim and the obs
# registry handles are shared between the pool's workers).
#
# `make ci` mirrors .github/workflows/ci.yml so the pipeline can be
# reproduced locally in one command.

GO ?= go

.PHONY: build test vet fmt-check race bench bench-all bench-smoke shard-scaling chaos-smoke serve-smoke attack-smoke wan-smoke fuzz-smoke determinism profile verify ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails (listing the offenders) if any Go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Race-detect the whole module; the runner package is the critical one.
race: vet
	$(GO) test -race ./...

# Determinism check: the golden digests (the simulation must produce
# bit-identical results run-to-run and across instrumentation changes),
# the fork-equivalence suite (a warm-started run forked from a
# convergence-prefix snapshot must be bit-identical to the cold run its
# fallback executes, across several seeds), and the PDES shard-equivalence
# suites (every shard count must reproduce the single-scheduler run
# bit-for-bit, at both the core and the experiments layer).
determinism:
	$(GO) test ./internal/experiments/ -run 'TestGoldenDigest|TestForkEquivalence|TestWarmFallback|TestShardEquivalence' -count=1 -v
	$(GO) test ./internal/core/ -run 'TestShardEquivalence' -count=1 -v

# Committed performance evidence: the event-kernel microbenchmarks and the
# full-system simulation rate, as diffable JSON (ns/op, allocs/op, custom
# metrics per entry). Piped through `go run` so no shared binary is built
# into /tmp (parallel CI jobs would race on it).
bench:
	$(GO) test -run ^$$ -bench 'BenchmarkSchedulerThroughput|BenchmarkSchedulerCancelHeavy|BenchmarkNetsimFrameBurst' \
		-benchmem . | $(GO) run ./cmd/benchjson -o BENCH_scheduler.json
	$(GO) test -run ^$$ -bench 'BenchmarkSystemSimulationRate' -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_system.json
	$(GO) test -run ^$$ -bench 'BenchmarkSweepCold|BenchmarkSweepWarmStart' -benchtime 3x -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_sweep.json
	$(GO) test -run ^$$ -bench 'BenchmarkPDESFabric' -benchtime 3x -benchmem -cpu 1,2 . \
		| $(GO) run ./cmd/benchjson -o BENCH_pdes.json
	$(GO) test -run ^$$ -bench 'BenchmarkWANFabric' -benchtime 3x -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_wan.json

# One quick pass over every benchmark (figure regeneration smoke test).
bench-all:
	$(GO) test -bench . -benchtime 1x -run ^$$ .

# Informational regression gate: one -benchtime 1x pass diffed against the
# committed baselines with cmd/benchdiff. The threshold is deliberately
# generous (25x) and -warn-only keeps it non-blocking: a 1x pass on shared
# CI hardware is noisy evidence, useful only for spotting order-of-magnitude
# cliffs. `make bench` regenerates the committed baselines.
bench-smoke:
	@mkdir -p .bench-smoke
	$(GO) test -run ^$$ -bench 'BenchmarkSchedulerThroughput|BenchmarkSchedulerCancelHeavy|BenchmarkNetsimFrameBurst' \
		-benchtime 1x -benchmem . | $(GO) run ./cmd/benchjson -o .bench-smoke/scheduler.json
	$(GO) test -run ^$$ -bench 'BenchmarkSystemSimulationRate' -benchtime 1x -benchmem . \
		| $(GO) run ./cmd/benchjson -o .bench-smoke/system.json
	$(GO) test -run ^$$ -bench 'BenchmarkSweepCold|BenchmarkSweepWarmStart' -benchtime 1x -benchmem . \
		| $(GO) run ./cmd/benchjson -o .bench-smoke/sweep.json
	$(GO) test -run ^$$ -bench 'BenchmarkPDESFabric' -benchtime 1x -benchmem -cpu 1,2 . \
		| $(GO) run ./cmd/benchjson -o .bench-smoke/pdes.json
	$(GO) test -run ^$$ -bench 'BenchmarkWANFabric' -benchtime 1x -benchmem . \
		| $(GO) run ./cmd/benchjson -o .bench-smoke/wan.json
	$(GO) run ./cmd/benchdiff -warn-only -threshold 25 BENCH_scheduler.json .bench-smoke/scheduler.json
	$(GO) run ./cmd/benchdiff -warn-only -threshold 25 BENCH_system.json .bench-smoke/system.json
	$(GO) run ./cmd/benchdiff -warn-only -threshold 25 BENCH_sweep.json .bench-smoke/sweep.json
	$(GO) run ./cmd/benchdiff -warn-only -threshold 25 BENCH_pdes.json .bench-smoke/pdes.json
	$(GO) run ./cmd/benchdiff -warn-only -threshold 25 BENCH_wan.json .bench-smoke/wan.json

# Shard-scaling gate (blocking, unlike bench-smoke): run BenchmarkPDESFabric
# at shards=1 and shards=4 in one process on one machine and compare the two
# points with cmd/shardgate. events/op must match exactly (shard count must
# not change what is simulated) and the sharded point must not regress more
# than 10% in ns/op against shards=1 — machine speed cancels out of the
# within-run ratio, so this stays meaningful on shared runners where the
# absolute benchdiff comparison cannot.
shard-scaling:
	@mkdir -p .bench-smoke
	$(GO) test -run ^$$ -bench 'BenchmarkPDESFabric/shards=(1|4)$$' -benchtime 3x -benchmem . \
		| $(GO) run ./cmd/benchjson -o .bench-smoke/shard-scaling.json
	$(GO) run ./cmd/shardgate -max-regress 0.10 .bench-smoke/shard-scaling.json

# CPU + heap profile of the full report run; inspect with `go tool pprof`.
profile:
	$(GO) run ./cmd/report -scale 0.02 -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof (go tool pprof cpu.pprof)"

verify: build fmt-check vet test
	$(GO) test -race ./internal/runner/... ./internal/sim/... ./internal/netsim/... \
		./internal/obs/... ./internal/chaos/... ./internal/ptp4l/... ./internal/core/...
	$(GO) test -race -cpu 1,2 -run 'TestFabric|TestShardEquivalenceForceParallel' ./internal/sim/ ./internal/core/

# Chaos smoke: a 10-minute-sim-time fault-injection campaign driven by the
# committed example scenario plan, with the holdover watchdog armed. Fails
# on a non-zero exit or an empty metrics snapshot.
chaos-smoke:
	@mkdir -p .chaos-smoke
	$(GO) run ./cmd/faultinjection -duration 10m -chaos examples/partition.json \
		-holdover-window 2s -metrics .chaos-smoke/metrics.jsonl > .chaos-smoke/log.txt
	@test -s .chaos-smoke/metrics.jsonl || { echo "chaos-smoke: empty metrics snapshot"; exit 1; }
	@echo "chaos-smoke: ok ($$(wc -l < .chaos-smoke/metrics.jsonl) metric lines)"

# Attack smoke: the adversarial campaign matrix (Byzantine grandmaster
# count × on-path Sync delay) against the analytic 2f+1 resilience bound.
# -fail-on-anomaly makes any point that was predicted to survive but
# measured to fail a non-zero exit; an empty metrics snapshot also fails.
attack-smoke:
	@mkdir -p .attack-smoke
	$(GO) run ./cmd/resilience -attacks -duration 6m -attack-start 2m \
		-attack-byz 0,1,2 -attack-delays 0,24us -attack-diversity identical \
		-fail-on-anomaly -metrics .attack-smoke/metrics.jsonl > .attack-smoke/log.txt
	@test -s .attack-smoke/metrics.jsonl || { echo "attack-smoke: empty metrics snapshot"; exit 1; }
	@echo "attack-smoke: ok ($$(wc -l < .attack-smoke/metrics.jsonl) metric lines)"

# Wide-area smoke: the wansites campaign (site failures × WAN asymmetry)
# against the site-level min(f, ⌊(N−1)/2⌋) quorum with cross-site holdover.
# -fail-on-anomaly makes any verdict of measured degradation outside the
# quorum bound a non-zero exit; an empty metrics snapshot also fails.
wan-smoke:
	@mkdir -p .wan-smoke
	$(GO) run ./cmd/resilience -wansites -wan-sites 4,5 -wan-failed 0,1,2,3 \
		-wan-asyms 0,10us -fail-on-anomaly -metrics .wan-smoke/metrics.jsonl > .wan-smoke/log.txt
	@test -s .wan-smoke/metrics.jsonl || { echo "wan-smoke: empty metrics snapshot"; exit 1; }
	@echo "wan-smoke: ok ($$(wc -l < .wan-smoke/metrics.jsonl) metric lines)"

# Fuzz smoke: a short informational pass over every committed fuzz target
# (Go runs one -fuzz pattern per invocation), plus the derived-seed fault
# hypothesis property test. CI runs this as a non-blocking job.
fuzz-smoke:
	$(GO) test ./internal/netsim/ -run ^$$ -fuzz FuzzLinkMinDelay -fuzztime 10s
	$(GO) test ./internal/sim/ -run ^$$ -fuzz FuzzSchedulerSnapshotRoundTrip -fuzztime 10s
	$(GO) test ./internal/sim/ -run ^$$ -fuzz FuzzSchedulerVsReferenceModel -fuzztime 10s
	$(GO) test ./internal/gptp/ -run ^$$ -fuzz FuzzWireDecode -fuzztime 10s
	$(GO) test ./internal/gptp/ -run ^$$ -fuzz FuzzWireSyncRoundTrip -fuzztime 10s
	$(GO) test ./internal/faultinject/ -run TestFaultHypothesisAcrossDerivedSeeds -count=1

# Serve smoke: boot cmd/served on an ephemeral port, drive a small
# netchaos job through POST /v1/jobs, poll it to completion and assert a
# schema-1 result envelope plus a non-empty metrics JSONL stream.
serve-smoke:
	sh scripts/serve_smoke.sh .serve-smoke

# Everything the CI workflow runs, in one local command.
ci: verify determinism bench-smoke shard-scaling chaos-smoke attack-smoke wan-smoke serve-smoke
