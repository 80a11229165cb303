# Verification targets. `make verify` is the tier-1 gate; `make race`
# adds the race detector over the whole module (the runner's worker pool
# and the served queue are the concurrency surfaces; free lists and
# counters on the message path belong to one scheduler and are shared by
# nothing, which verify's race lines check).
#
# `make ci` mirrors .github/workflows/ci.yml so the pipeline can be
# reproduced locally in one command.

GO ?= go

.PHONY: build test vet fmt-check race bench bench-smoke bench-golden chaos-smoke serve-smoke attack-smoke wan-smoke fuzz-smoke determinism quickstart profile verify ci

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
# fallback executes, across several seeds, and on 1, 2 and 4 concurrent
# fork lanes: the TestForkEquivalence pattern selects
# TestForkEquivalenceLanes), and the core pinned run fingerprints (whole
# runs as SHA-256 digests on the paper mesh, multi-site fabrics and the WAN
# tier; TestFingerprintInjected adds fault injection, attacks, a partition
# and a WAN site failure).
determinism:
	$(GO) test ./internal/experiments/ -run 'TestGoldenDigest|TestForkEquivalence|TestWarmFallback' -count=1 -v
	$(GO) test ./internal/core/ -run 'TestFingerprint|TestSnapshotRestoreIsolation' -count=1 -v

# Committed performance evidence: the event-kernel microbenchmarks and the
# full-system simulation rate, as diffable JSON (ns/op, allocs/op, custom
# metrics per entry). Piped through `go run` so no shared binary is built
# into /tmp (parallel CI jobs would race on it).
bench:
	$(GO) test -run ^$$ -bench 'BenchmarkSchedulerThroughput|BenchmarkSchedulerCancelHeavy|BenchmarkNetsimFrameBurst' \
		-benchmem . | $(GO) run ./cmd/benchjson -o BENCH_scheduler.json
	$(GO) test -run ^$$ -bench 'BenchmarkSystemSimulationRate|BenchmarkSystemStartup' -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_system.json
	$(GO) test -run ^$$ -bench 'BenchmarkSweepCold|BenchmarkSweepWarmStart|BenchmarkSweepWarmLanes|BenchmarkForkSystem' -benchtime 3x -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_sweep.json
	$(GO) test -run ^$$ -bench 'BenchmarkScaleFabric' -benchtime 3x -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_fabric.json
	$(GO) test -run ^$$ -bench 'BenchmarkWANFabric' -benchtime 3x -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_wan.json

# "The root benchmarks still run" (blocking): one -benchtime 1x pass of
# every root benchmark through cmd/benchjson, which exits non-zero when a
# benchmark fails or panics (make's /bin/sh has no pipefail, so the
# pipeline's status is benchjson's). Timing is not compared: the paired
# bench/ runs are the performance evidence of record, and `make bench`
# regenerates the committed baselines.
bench-smoke:
	@mkdir -p .bench-smoke
	$(GO) test -run ^$$ -bench . -benchtime 1x -benchmem . | $(GO) run ./cmd/benchjson -o .bench-smoke/all.json

# Outside-in benchmark gate (blocking): a short pass of bench/ over all four
# workloads (mesh, fabric, campaign, served), which fails on any failed
# operation or check — the golden digests, the repeatability checks and the
# campaign's fork replays — plus the benchmark package's own tests.
bench-golden:
	bash bench/run.sh --seconds 3 --trace 0
	cd bench && $(GO) test ./...

# CPU + heap profile of the paper's full evaluation (sweep -which paper:
# E1–E6 at the 1 h and 24 h horizons, plus A1–A3); inspect with
# `go tool pprof`.
profile:
	$(GO) run ./cmd/sweep -which paper -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof (go tool pprof cpu.pprof)"

verify: build fmt-check vet test
	$(GO) test -race ./internal/runner/... ./internal/sim/... ./internal/netsim/... \
		./internal/obs/... ./internal/chaos/... ./internal/ptp4l/... ./internal/core/... \
		./internal/gptp/... ./internal/shmem/... ./internal/measure/...
	$(GO) test -race -run 'TestForkEquivalenceLanes' ./internal/experiments/
	$(GO) test -race -short ./internal/serve/...

# Chaos smoke: a 10-minute-sim-time fault-injection campaign driven by the
# committed example scenario plan (examples/chaos-smoke.json embeds
# examples/partition.json), with the holdover watchdog armed, run through
# the registry by cmd/sweep. Fails on a non-zero exit or when the metrics
# snapshot holds no faultinjection line (sweep always writes the runner's
# lines, so a non-empty file alone proves nothing).
chaos-smoke:
	@mkdir -p .chaos-smoke
	$(GO) run ./cmd/sweep -which faultinjection -config examples/chaos-smoke.json \
		-metrics .chaos-smoke/metrics.jsonl > .chaos-smoke/log.txt
	@grep -q '"run":"faultinjection"' .chaos-smoke/metrics.jsonl || { echo "chaos-smoke: no faultinjection metrics"; exit 1; }
	@echo "chaos-smoke: ok ($$(grep -c '"run":"faultinjection"' .chaos-smoke/metrics.jsonl) faultinjection metric lines)"

# Attack smoke: the adversarial campaign matrix (Byzantine grandmaster
# count × on-path Sync delay, examples/attacks-smoke.json) against the
# analytic 2f+1 resilience bound, run through the registry by cmd/sweep.
# -fail-on-anomaly makes any point that was predicted to survive but
# measured to fail a non-zero exit; so does a metrics snapshot holding no
# attacks line (sweep always writes the runner's lines, so a non-empty file
# alone proves nothing), or one whose runner served no fork (the points
# share one prefix, so the default path must fork them).
attack-smoke:
	@mkdir -p .attack-smoke
	$(GO) run ./cmd/sweep -which attacks -config examples/attacks-smoke.json \
		-fail-on-anomaly -metrics .attack-smoke/metrics.jsonl > .attack-smoke/log.txt
	@grep -q '"run":"attacks"' .attack-smoke/metrics.jsonl || { echo "attack-smoke: no attacks metrics"; exit 1; }
	@grep '"name":"runner_forks_served"' .attack-smoke/metrics.jsonl | grep -q '"value":[1-9]' || { echo "attack-smoke: no point forked"; exit 1; }
	@echo "attack-smoke: ok ($$(grep -c '"run":"attacks"' .attack-smoke/metrics.jsonl) attacks metric lines)"

# Wide-area smoke: the wansites campaign (site failures × WAN asymmetry,
# examples/wansites-smoke.json) against the site-level min(f, ⌊(N−1)/2⌋)
# quorum with cross-site holdover, run through the registry by cmd/sweep.
# -fail-on-anomaly makes any verdict of measured degradation outside the
# quorum bound a non-zero exit; so does a metrics snapshot holding no
# wansites line, or one whose runner served no fork (each site count's
# points share one prefix, so the default path must fork them).
wan-smoke:
	@mkdir -p .wan-smoke
	$(GO) run ./cmd/sweep -which wansites -config examples/wansites-smoke.json \
		-fail-on-anomaly -metrics .wan-smoke/metrics.jsonl > .wan-smoke/log.txt
	@grep -q '"run":"wansites"' .wan-smoke/metrics.jsonl || { echo "wan-smoke: no wansites metrics"; exit 1; }
	@grep '"name":"runner_forks_served"' .wan-smoke/metrics.jsonl | grep -q '"value":[1-9]' || { echo "wan-smoke: no point forked"; exit 1; }
	@echo "wan-smoke: ok ($$(grep -c '"run":"wansites"' .wan-smoke/metrics.jsonl) wansites metric lines)"

# Fuzz smoke: a short informational pass over every committed fuzz target
# (Go runs one -fuzz pattern per invocation), plus the derived-seed fault
# hypothesis property test. CI runs this as a non-blocking job.
fuzz-smoke:
	$(GO) test ./internal/netsim/ -run ^$$ -fuzz FuzzLinkDelay -fuzztime 10s
	$(GO) test ./internal/sim/ -run ^$$ -fuzz FuzzSchedulerSnapshotRoundTrip -fuzztime 10s
	$(GO) test ./internal/sim/ -run ^$$ -fuzz FuzzSchedulerVsReferenceModel -fuzztime 10s
	$(GO) test ./internal/sim/ -run ^$$ -fuzz FuzzStreamSeek -fuzztime 10s
	$(GO) test ./internal/gptp/ -run ^$$ -fuzz FuzzWireDecode -fuzztime 10s
	$(GO) test ./internal/gptp/ -run ^$$ -fuzz FuzzWireSyncRoundTrip -fuzztime 10s
	$(GO) test ./internal/gptp/ -run ^$$ -fuzz FuzzSeqWindow -fuzztime 10s
	$(GO) test ./internal/experiments/ -run ^$$ -fuzz FuzzDecodeConfig -fuzztime 10s
	$(GO) test ./internal/chaos/ -run ^$$ -fuzz FuzzParsePlan -fuzztime 10s
	$(GO) test ./internal/core/ -run ^$$ -fuzz FuzzConfigJSON -fuzztime 10s
	$(GO) test ./internal/serve/ -run ^$$ -fuzz FuzzLoadState -fuzztime 10s
	$(GO) test ./internal/faultinject/ -run TestFaultHypothesisAcrossDerivedSeeds -count=1

# Quick start: the README's first three commands, each one registry study
# at its defaults (the §III-A3 bound, Fig. 3a, Fig. 3b; about 3 s in all);
# fails on the first non-zero exit. Its fourth command, the failover
# campaign on examples/chaos-smoke.json, is chaos-smoke.
quickstart:
	$(GO) run ./cmd/sweep -which paper-bounds
	$(GO) run ./cmd/sweep -which paper-fig3a
	$(GO) run ./cmd/sweep -which paper-fig3b

# Serve smoke: boot cmd/served on an ephemeral port, drive a small
# netchaos job through POST /v1/jobs, poll it to completion and assert a
# schema-1 result envelope plus a non-empty metrics JSONL stream.
serve-smoke:
	sh scripts/serve_smoke.sh .serve-smoke

# Everything the CI workflow runs, in one local command.
ci: verify quickstart determinism bench-smoke bench-golden chaos-smoke attack-smoke wan-smoke serve-smoke
