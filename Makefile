# Convenience targets for the RCoal reproduction.

GO ?= go

.PHONY: all build test test-race cover bench bench-json ci equiv experiments examples fuzz dist-smoke chaos frontier obs-smoke vet-mechanism clean

all: build test

# Mirror of .github/workflows/ci.yml: everything the gate runs.
ci: build test
	$(GO) vet ./...
	bash scripts/vet_mechanism.sh
	$(GO) test -race -short ./...
	$(GO) test -run TestFastForward ./internal/gpusim
	$(GO) test -run 'TestRunSteadyStateAllocations|TestRecoverByteSteadyStateAllocations' -count=1 ./internal/gpusim ./internal/attack
	$(GO) test -run TestHotPathAllocsPerRun -count=1 ./internal/metrics
	$(MAKE) equiv EQUIV_SHORT=1
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem .
	$(MAKE) dist-smoke
	$(MAKE) chaos
	$(MAKE) frontier
	$(MAKE) obs-smoke

# Defense-frontier smoke: the ext-defense-frontier experiment through
# the real binary, CSV diffed byte-for-byte against the committed
# golden (regenerate: go test ./internal/experiments -run Frontier -update).
frontier:
	bash scripts/frontier_smoke.sh

# Mechanism-API boundary: no package outside internal/{core,mechanism}
# may construct a core.Config coalescing policy directly — defenses go
# through the mechanism registry.
vet-mechanism:
	bash scripts/vet_mechanism.sh

# Distributed sweep smoke: coordinator + two loopback workers (one
# killed mid-grid) must match the single-process CSV byte for byte,
# and a warm-cache rerun must be >= 10x faster.
dist-smoke:
	bash scripts/dist_smoke.sh

# Chaos soak: the chaos e2e suite under the race detector, then the
# frontier grid through real processes on a seeded-fault loopback
# network (worker killed, coordinator restarted mid-sweep) — the CSV
# must stay byte-identical to the single-process golden.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/
	bash scripts/chaos_smoke.sh

# Fleet observability smoke: a 4-worker chaos-faulted sweep with
# tracing, structured logs, and /metrics on — the Prometheus
# expositions must lint, the merged fleet trace must validate with
# one trace id, and the CSV must match an unobserved run byte for
# byte.
obs-smoke:
	bash scripts/obs_smoke.sh

# Differential-equivalence harness for the simulation accelerators
# (trace cache, copy-on-write prefix forking). EQUIV_SHORT=1 runs the
# PR-sized grid; unset runs the full 6-mechanism x 3-subwarp-count x
# 3-seed matrix (the main-branch gate).
equiv:
	$(GO) test $(if $(EQUIV_SHORT),-short) -v -count=1 ./internal/equiv/

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark report. Set BENCH_BASELINE to a previous
# raw `go test -bench` log to record before/after speedups alongside
# the fresh numbers. The accelerator X/XVanilla pairs are joined
# within the run and gated: the prefix-forked sweep must hold >= 2x,
# the trace-cached collect >= 0.85x (up to 15% slower than vanilla).
BENCHTIME ?= 1s
MIN_SPEEDUPS = SelectiveMechanismSweep:2.0,TraceCachedCollect:0.85
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime=$(BENCHTIME) -benchmem -count=1 . > bench_raw.txt
	$(GO) run ./cmd/rcoal-benchjson -gpu-metrics $(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE)) \
		-join-variant Vanilla -min-speedup '$(MIN_SPEEDUPS)' \
		-out BENCH_gpusim.json bench_raw.txt
	@rm -f bench_raw.txt
	@echo wrote BENCH_gpusim.json

# Reproduce every paper figure/table (plus extensions) at the paper's
# sample count, writing CSV data files under data/.
experiments:
	mkdir -p data
	$(GO) run ./cmd/rcoal-experiments -run all -samples 100 -parallel 3 -csv data

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/keyrecovery
	$(GO) run ./examples/ctrmode
	$(GO) run ./examples/defensetuning
	$(GO) run ./examples/largeplaintext

fuzz:
	$(GO) test -fuzz FuzzEncryptMatchesStdlib -fuzztime 30s ./internal/aes/
	$(GO) test -fuzz FuzzParseMechanism -fuzztime 15s .
	$(GO) test -fuzz FuzzRunnerSeedSplit -fuzztime 15s .

clean:
	$(GO) clean -testcache
