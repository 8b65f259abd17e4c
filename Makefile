# Convenience targets for the RCoal reproduction.

GO ?= go

.PHONY: all build test test-race cover bench bench-gate bench-json profile ci experiments fuzz dist-smoke chaos frontier obs-smoke vet-mechanism clean

all: build test

# Mirror of .github/workflows/ci.yml: everything the pull-request gate
# runs, with the benchmark report and the smoke artifacts written under
# .bench_build/ instead of over the committed BENCH_gpusim.json.
ci: build test
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	bash scripts/vet_mechanism.sh
	$(GO) test -race -short ./...
	$(GO) test -run TestFastForward ./internal/gpusim
	$(GO) test -run 'TestRunSteadyStateAllocations|TestRecoverByteSteadyStateAllocations' -count=1 ./internal/gpusim ./internal/attack
	$(GO) test -run TestHotPathAllocsPerRun -count=1 ./internal/metrics
	$(MAKE) bench-gate
	$(GO) run ./cmd/rcoal encrypt -mechanism rss:8 -lines 32 \
		-trace-out .bench_build/encrypt_trace.json -metrics-out .bench_build/encrypt_metrics.json
	$(GO) run ./cmd/rcoal-experiments -run fig6 -samples 10 -trace-out .bench_build/fig6_trace.json -heartbeat 5s
	cd .bench_build && python3 -c "import json; [json.load(open(f)) for f in ('encrypt_trace.json','encrypt_metrics.json','fig6_trace.json','BENCH_gpusim.json')]"
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

# Distributed sweep smoke: a coordinator (rcoal-experiments -serve) +
# two loopback workers (one killed mid-grid) must match the
# single-process CSV byte for byte, and a warm-cache rerun must be
# >= 10x faster.
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

# The benchmark pass and its gates, run by `make ci` and the CI
# workflow: the root package's benchmarks go to
# $(BENCH_OUT)/bench_raw.txt, and rcoal-benchjson writes the report to
# $(BENCH_OUT)/BENCH_gpusim.json. The X/XVanilla pairs are joined within
# the run and gated: the 1024-line and 32-line launches must hold
# >= 2.0x each with fast-forward on than with it off, the 32-line ones
# under the baseline defense and under RSS+RTS(8), whose randomized
# reply trains dominate Figs. 15-17. A 32-line launch takes under a
# millisecond, too short for one iteration to time, so its pairs (all
# matched by SHORT_BENCH) run apart at SHORT_BENCHTIME.
BENCHTIME ?= 1x
SHORT_BENCH = SimulatorEncrypt32Lines
SHORT_BENCHTIME ?= 1000x
BENCH_OUT ?= .bench_build
MIN_SPEEDUPS = SimulatorEncrypt1024Lines:2.0,SimulatorEncrypt32Lines:2.0,SimulatorEncrypt32LinesRSSRTS:2.0
BENCH_REPORT = $(GO) run ./cmd/rcoal-benchjson -gpu-metrics -join-variant Vanilla -min-speedup '$(MIN_SPEEDUPS)'
bench-gate:
	mkdir -p $(BENCH_OUT)
	$(GO) test -run '^$$' -bench . -skip '$(SHORT_BENCH)' -benchtime=$(BENCHTIME) -benchmem -count=1 . > $(BENCH_OUT)/bench_raw.txt
	$(GO) test -run '^$$' -bench '$(SHORT_BENCH)' -benchtime=$(SHORT_BENCHTIME) -benchmem -count=1 . >> $(BENCH_OUT)/bench_raw.txt
	$(BENCH_REPORT) -out $(BENCH_OUT)/BENCH_gpusim.json $(BENCH_OUT)/bench_raw.txt

# The committed benchmark ledger, BENCH_gpusim.json, against the
# checkout BENCH_PARENT (e.g. a `git archive` of the parent commit):
# scripts/bench_ledger_pairs.sh runs every benchmark three times a
# side, alternating, and writes each side's median runs, the parent's
# to bench_baseline.txt; the report joins the two and checks the
# gates. About 15 minutes. Not a CI step.
bench-json:
	@test -n "$(BENCH_PARENT)" || { echo 'usage: make bench-json BENCH_PARENT=<parent checkout>' >&2; exit 2; }
	bash scripts/bench_ledger_pairs.sh $(BENCH_PARENT) 3
	$(BENCH_REPORT) -baseline bench_baseline.txt -out BENCH_gpusim.json .bench_build/ledger_change.txt

# CPU and memory profiles of the 1024-line case study (fig18), the
# reproduction's dominant cost: writes .bench_build/fig18.prof and
# fig18.mem.prof (with the test binary pprof needs beside them) and
# prints the top functions, then the top allocators by bytes allocated.
# The CPU top spreads garbage-collection cost over runtime.* frames;
# the allocation top names what feeds the collector. Not a CI step.
profile:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'Fig18CaseStudy1024$$' -benchtime 2x -benchmem \
		-cpuprofile .bench_build/fig18.prof -memprofile .bench_build/fig18.mem.prof \
		-o .bench_build/rcoal.test .
	$(GO) tool pprof -top -nodecount 40 .bench_build/rcoal.test .bench_build/fig18.prof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space \
		.bench_build/rcoal.test .bench_build/fig18.mem.prof

# Reproduce every paper figure/table (plus extensions) at the paper's
# sample count, writing CSV data files under data/.
experiments:
	mkdir -p data
	$(GO) run ./cmd/rcoal-experiments -run all -samples 100 -csv data

fuzz:
	$(GO) test -fuzz FuzzEncryptMatchesStdlib -fuzztime 30s ./internal/aes/
	$(GO) test -fuzz FuzzParseMechanism -fuzztime 15s .

clean:
	$(GO) clean -testcache
