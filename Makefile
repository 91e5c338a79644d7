# Tier-1 verification for this repo: `make check` is what CI
# (.github/workflows/ci.yml) and the ROADMAP's verify step run. The race
# pass covers the packages on the zero-allocation message path (combiner
# → pooled batches → codec → MonoTable fold) plus checkpointing, fault
# injection, the lock-free metrics core, and the PR 7 incremental-EDB
# and generator packages (edb, gen), where a recycle-contract violation
# would surface as a data race; -cpu 1,4 runs each test at
# both parallelism levels so each worker's compute and comm-loop
# goroutines, the session's callers and the server's handlers race
# under real preemption even on small CI boxes; it runs -short, which
# trims the chaos matrix (internal/runtime/chaos_test.go) to its
# representative algorithm subset — the full matrix runs race-free under
# `make test`. `make lint` runs the repo-local static analyzers of
# internal/lint (cmd/plvet): recycle, atomicmix, lockblock, shadow,
# kindswitch, errcmp, metricname, condwait — the
# same checks also run under `go test ./internal/lint`, so plain
# `go test ./...` enforces them too. `make metrics-smoke` exercises the
# observability layer end-to-end: the policymetrics experiment on the
# tiny dataset, all six modes. `make churn-smoke` exercises the session
# lifecycle end-to-end: incremental Apply vs cold re-run on the tiny
# dataset across the four session-capable modes (the race pass already
# covers the session tests via ./internal/runtime/... -short). The
# PR 9 membership layer (membership.go, rejoin_test.go: crashw re-join
# matrix, elastic scale drills) also races under ./internal/runtime/...
# -short — the fence/handoff/park interleavings are exactly where a
# race would hide. `make serve-smoke` exercises the PR 10 serving front
# end (internal/server, cmd/plserved) end-to-end: the closed-loop serve
# experiment over real loopback HTTP — lookup/mutate mixes against a
# parked session — finishing with a /metrics scrape that must pass the
# Prometheus exposition conformance check; the race pass covers the
# concurrent-handler and concurrent-session tests
# (./internal/server/..., plus the session hammer under
# ./internal/runtime/...).
.PHONY: check build vet lint test race bench metrics-smoke churn-smoke serve-smoke

check: vet lint build test race metrics-smoke churn-smoke serve-smoke

build:
	go build ./...

vet:
	go vet ./...

lint:
	go run ./cmd/plvet ./...

test:
	go test ./...

race:
	go test -race -short -cpu 1,4 ./internal/runtime/... ./internal/transport/... ./internal/monotable/... ./internal/ckpt/... ./internal/fault/... ./internal/metrics/... ./internal/edb/... ./internal/gen/... ./internal/server/...

metrics-smoke:
	go run ./cmd/plbench -exp policymetrics -smoke -maxwall 60s

churn-smoke:
	go run ./cmd/plbench -exp churn -smoke -maxwall 60s

serve-smoke:
	go run ./cmd/plbench -exp serve -smoke -maxwall 60s

# Hot-path microbenches with allocation counts (BENCH_PR1.json records
# the tracked numbers): the propagate kernel (hoisted PageRank, per-edge
# SSSP), the hashed and key-indexed combiners, the codec, metrics. Each
# one's zero-allocation steady state is also pinned by a plain test
# (TestPropagateIntoAllocFree, TestOutBufAllocFree, ...).
bench:
	go test -run xxx -bench 'BenchmarkPropagateInto' -benchmem ./internal/compiler/
	go test -run xxx -bench 'BenchmarkOutBuf' -benchmem ./internal/runtime/
	go test -run xxx -bench 'BenchmarkCodec' -benchmem ./internal/transport/
	go test -run xxx -bench 'BenchmarkCounterInc|BenchmarkHistogramObserve' -benchmem ./internal/metrics/
