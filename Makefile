# EEWA reproduction — convenience targets. Everything is plain `go`.

GO ?= go

.PHONY: all build vet test race race-serve bench bench-smoke loc sweep sweep-parity cluster-sweep cluster-demo check check-long cover experiments examples obs-demo serve-demo traffic-smoke artifacts clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The ingest/admission packages twice under the race detector: the
# admission queue, pooled jobs and concurrent storm tests are where a
# lifecycle bug would surface. The second line runs the admission tests
# with more Ps than a small runner has cores, so admitters, the batcher
# and drain interleave on the one queue lock more often, and so does a
# LatencySummary reader with the batchers recording its span families.
race-serve:
	$(GO) test -race -count=2 ./internal/serve/ ./internal/traffic/
	$(GO) test -race -cpu 4 -run 'Storm|Admission|Disconnect|LatencySummary' ./internal/serve/

# The repository's one benchmark (BENCHMARK.json): every workload's
# end-to-end metrics over the contract's 30 s window. bench/README.md has
# the workloads, the metrics and the arguments run.sh takes for one
# workload, a seed, a shorter window or a traced run.
bench:
	bash bench/run.sh

# The repository's benchmark (BENCHMARK.json, bench/) on a short window:
# builds it the way the contract does and fails unless each result line
# reports a correct run with no failed operation — rt-iter for the live
# runtime alone, serve-mixed for the served path (demand-driven batches,
# throttled three-task batches), serve-batch for the batch endpoint's
# codec, sim-table2 for the plan path driven through sched; serve-mixed
# and serve-batch untraced and traced: the traced serve-batch run is the
# one that posts the all-expired batch of the ingest probe, the traced
# serve-mixed run the one that executes the five kernel probes (through
# the exported, pooled-scratch wrappers) and the adjuster probe. Checks
# that the benchmark still builds and runs, not how fast anything is.
bench-smoke:
	bash bench/run.sh --workload rt-iter --seed 1 --seconds 3 --trace 0 | tail -n 1 \
		| grep '"correct":true' | grep -q '"failed":0,'
	bash bench/run.sh --workload serve-mixed --seconds 3 | tail -n 1 \
		| grep '"correct":true' | grep -q '"failed":0,'
	bash bench/run.sh --workload serve-mixed --seconds 3 --trace 1 | tail -n 1 \
		| grep '"correct":true' | grep -q '"failed":0,'
	bash bench/run.sh --workload serve-batch --seconds 3 | tail -n 1 \
		| grep '"correct":true' | grep -q '"failed":0,'
	bash bench/run.sh --workload serve-batch --seconds 3 --trace 1 | tail -n 1 \
		| grep '"correct":true' | grep -q '"failed":0,'
	bash bench/run.sh --workload sim-table2 --seconds 3 | tail -n 1 \
		| grep '"correct":true' | grep -q '"failed":0,'
	@echo "bench smoke OK: rt-iter, serve-mixed and serve-batch (untraced, traced) and sim-table2 correct, 0 failed"

# The number the north star tracks (ROADMAP.md): non-test Go lines
# outside the benchmark and its build directory.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 cat | wc -l

# Design-space sweep across all cores (-j defaults to GOMAXPROCS).
sweep:
	$(GO) run ./cmd/eewa-sweep -csv sweep.csv -json sweep_cells.json

# Determinism gate for the parallel sweep driver: the same grid run
# sequentially and with maximal fan-out must produce byte-identical
# CSVs (per-cell wall-clock lives only in the JSON output). The grid
# spans both core counts and the cluster topology axes, both ladder
# splits included: only on tiered does the class rule's fastest-ladder
# branch decide.
PARITY_GRID = -bench md5,lzw -cores 8,16 -seeds 2 -shards 1,2,4 \
	-routing class,rr,least -ladder-split uniform,tiered
sweep-parity:
	$(GO) run ./cmd/eewa-sweep -j 1 $(PARITY_GRID) -csv sweep_j1.csv
	$(GO) run ./cmd/eewa-sweep $(PARITY_GRID) -csv sweep_jN.csv
	cmp sweep_j1.csv sweep_jN.csv
	rm -f sweep_j1.csv sweep_jN.csv
	@echo "sweep parity OK: -j 1 and -j GOMAXPROCS byte-identical"

# Cluster topology sweep: shard count × routing policy.
cluster-sweep:
	$(GO) run ./cmd/eewa-sweep -shards 1,2,4 -routing class,rr,least -policies cilk,eewa \
		-csv cluster.csv -json cluster_cells.json

# Cluster smoke for CI: a 3-shard tiered router survives a demo burst
# and drains cleanly.
cluster-demo:
	$(GO) run ./cmd/eewa-serve -demo -shards 3 -routing class -ladder-split tiered \
		-flush-ms 10 -queue-depth 24 -max-inflight 96
	@echo "cluster demo OK: 3-shard drain clean"

# Concurrency-correctness harness, tier-1 budget: the deque model
# checker (with its mutant self-test), the short stress mode and the
# runtime invariants, all under the race detector. DESIGN.md §8
# documents what each side proves.
check:
	$(GO) vet ./internal/check/ ./internal/deque/
	$(GO) test -race ./internal/check/ ./internal/deque/

# Nightly variant: long randomized stress (60 s per stress test) and
# repeated -race runs across the concurrency-sensitive packages, plus
# the whole tree with runtime invariants forced on via the eewa_check
# build tag, plus a coverage-guided fuzz of the event queue against its
# sorted-slice oracle (the same interpreter as TestQueueModelRandomized)
# and 10 s each of the differential targets: the serve codec's against
# encoding/json, the scratch-reusing kernels' against the per-call
# reference (go test -fuzz takes one target and one package per run).
# Minimising a new input is capped at 50 execs: a kernel exec takes
# milliseconds, and the default 60 s budget stalls every worker.
check-long:
	EEWA_STRESS_SECONDS=60 $(GO) test -race -count=2 -timeout 30m \
		./internal/check/ ./internal/deque/ ./internal/event/ ./internal/policy/ ./internal/rt/ ./internal/serve/ ./internal/kernels/
	$(GO) test -tags eewa_check -race ./internal/rt/ ./internal/check/ ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzQueue -fuzztime 60s ./internal/event/
	for t in serve/FuzzDecodeJob serve/FuzzDecodeBatch serve/FuzzAppendBatchResponse kernels/FuzzScratchKernels kernels/FuzzDigests; do \
		$(GO) test -run '^$$' -fuzz "^$${t#*/}$$" -fuzztime 10s -fuzzminimizetime 50x ./internal/$${t%/*}/ || exit 1; \
	done

cover:
	$(GO) test -cover ./...

# Text tables for every experiment (Figs. 1/6/7/8/9, Table III,
# memory-bound extension, ablations), Fig. 3's worked k-tuple and the
# §IV-D offline-profile round trip: a SHA-1 run saves its profile, a
# second run schedules from it (EXPERIMENTS.md, "§IV-D — offline
# profiling").
experiments:
	$(GO) run ./cmd/eewa-bench -exp all
	$(GO) run ./cmd/eewa-ktuple
	prof=$$(mktemp) && \
	$(GO) run ./cmd/eewa-sim -bench sha1 -policy eewa -profile-out "$$prof" && \
	$(GO) run ./cmd/eewa-sim -bench sha1 -policy eewa -profile-in "$$prof"; \
	status=$$?; rm -f "$$prof"; exit $$status

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/energysweep
	$(GO) run ./examples/asymmetric
	$(GO) run ./examples/memorybound
	$(GO) run ./examples/liveruntime -workers 4 -batches 3

# Observability demo: one instrumented simulation producing a
# Prometheus metrics snapshot and a Perfetto-compatible trace (open
# obs_trace.json at https://ui.perfetto.dev).
obs-demo:
	$(GO) run ./cmd/eewa-sim -bench sha1 -policy eewa \
		-metrics-out obs_metrics.prom -trace-out obs_trace.json -gantt

# Serving demo: start eewa-serve, fire a burst of submissions that
# overflows the admission bounds (showing 429/Retry-After
# backpressure), drain gracefully and write a final metrics snapshot.
serve-demo:
	$(GO) run ./cmd/eewa-serve -demo -flush-ms 10 \
		-queue-depth 24 -max-inflight 96 -metrics-out serve_metrics.prom

# Traffic harness smoke: generate the 5 s golden diurnal trace, verify
# it is byte-identical to the checked-in fixture (generator/RNG drift
# gate), then replay it through the sim and the real serve pipeline
# (one shard, then two) with -check, which replays each engine twice
# and fails unless the canonical per-tenant outcome logs (200/429/504
# counts, batch composition) are byte-identical. Outcome conservation — every event
# resolving to exactly one status — is asserted inside the replayers.
traffic-smoke:
	$(GO) run ./cmd/eewa-traffic generate -golden -out traffic_golden.json
	cmp traffic_golden.json internal/traffic/testdata/golden.json
	$(GO) run ./cmd/eewa-traffic replay -in traffic_golden.json -engine sim -check -out /dev/null
	$(GO) run ./cmd/eewa-traffic replay -in traffic_golden.json -engine serve -check -workers 4 -out /dev/null
	$(GO) run ./cmd/eewa-traffic replay -in traffic_golden.json -engine serve -check -workers 2 -shards 2 -out /dev/null
	rm -f traffic_golden.json
	@echo "traffic smoke OK: golden fixture stable, sim + serve replays deterministic"

# Reproduction artifacts: the whole test and benchmark output.
artifacts:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt obs_metrics.prom obs_trace.json serve_metrics.prom
	rm -f sweep.csv sweep_cells.json sweep_j1.csv sweep_jN.csv
	rm -f cluster.csv cluster_cells.json
	rm -f traffic_golden.json
	rm -rf .bench_build bench/out
