# Developer entry points. `make ci` is the gate CI runs; it must stay green.

GO ?= go

# Packages that carry concurrency (worker pools, shared caches, simulated
# cluster, the serving executor, the streaming pipeline) or fault-recovery
# paths: these also run under the race detector in `make ci`.
RACE_PKGS := ./internal/cpals ./internal/la ./internal/par ./internal/tensor ./internal/rdd ./internal/cluster ./internal/chaos ./internal/mapreduce ./internal/core ./internal/bigtensor ./internal/serve ./internal/stream ./internal/dist ./internal/fleet ./internal/rals ./internal/rank

.PHONY: ci fmt vet staticcheck build test race flake fuzz bench bench-la bench-cpals bench-dist bench-tensor bench-serve smoke stream-smoke dist-smoke dist-chaos-smoke fleet-smoke rals-smoke recsys-smoke

ci: fmt vet staticcheck build test race

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The arm64 pass keeps the MTTKRP kernel and the vector helpers portable Go
# (no assembly) on a target whose compiler contracts multiply-add.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/cpals ./internal/la

# staticcheck is optional locally (this repo vendors nothing and installs
# nothing); CI installs it explicitly. Skips with a notice when absent.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

build:
	$(GO) build ./...

# Worker-range cut points, pool fan-out and panic propagation depend on the
# core count, so the suite runs at each (CI runs the three as a matrix).
# -shuffle=on: no test may depend on which ran before it.
test:
	@for p in 1 2 4; do echo "GOMAXPROCS=$$p"; GOMAXPROCS=$$p $(GO) test -shuffle=on ./... || exit 1; done

race:
	$(GO) test -race $(RACE_PKGS)

# The packages whose tests start goroutines, sockets or worker pools, twenty
# times over under the race detector: what passes once by scheduling luck
# does not pass this. cpals is here because the COO source's zero-row marks
# are written by FactorUpdated and read on the kernel's pool goroutines. Not
# part of `make ci` (it takes minutes); run it after touching anything
# concurrent. The twenty cpals runs alone come close to go test's default
# 10-minute cap on a 2-vCPU host, so the cap is raised; no test is skipped.
FLAKE_PKGS := ./internal/par ./internal/cpals ./internal/tensor ./internal/cluster ./internal/serve ./internal/stream ./internal/dist ./internal/fleet
flake:
	$(GO) test -count=20 -race -timeout 60m $(FLAKE_PKGS)

# Every fuzz target, ten seconds each beyond its seed corpus: the dist frame
# decoder, the fault-plan parser, the serving query parse, the checkpoint
# decoder and the two tensor file readers. Not part of `make ci`; CI runs it
# as its own step.
fuzz:
	$(GO) test ./internal/dist -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s
	$(GO) test ./internal/ckpt -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s
	$(GO) test ./internal/chaos -run '^$$' -fuzz '^FuzzFaultPlan$$' -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime 10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzReadTNS$$' -fuzztime 10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 10s

bench:
	$(GO) test -bench=. -benchmem .

# The dense-algebra microbenchmarks (row-solve, gram, normalize and the three
# in sequence on subnormal-prone input), one iteration each: CI runs this so
# they keep compiling and running; for numbers raise -benchtime and pin -cpu.
bench-la:
	$(GO) test ./internal/la -run '^$$' -bench . -benchtime 1x

# The solver microbenchmarks, same deal: the MTTKRP kernel per access path
# and storage order (ns/nnz per mode) at the als3-zipf and als4-tall shapes
# — "resident" is the mode columns a Serial solve streams —
# als4-tall's collapsed model with and without the zero-term skip, the mode
# update's tail after the MTTKRP, fused against the whole-matrix sequence
# (ns/row, dense and collapsed factors), and a whole als4-tall-shaped solve
# (MB allocated per solve).
bench-cpals:
	$(GO) test ./internal/cpals -run '^$$' -bench . -benchtime 1x

# The dist runtime's microbenchmarks, same deal: session start (ms, MB
# allocated, resident bytes per nonzero), shard codec (ns/nnz each way) and
# factor codec (MB/s each way, allocations per frame).
bench-dist:
	$(GO) test ./internal/dist -run '^$$' -bench . -benchtime 1x

# The set-up microbenchmarks, same deal: GenZipf, DedupSum alone (ns/nnz),
# GenLowRank and GenRecsys at the benchmark workloads' shapes.
# BenchmarkPaperSetup — delicious3d at a tenth of full scale, about a
# gigabyte — runs only when named:
# go test ./internal/tensor -run '^$$' -bench PaperSetup -benchtime 1x
bench-tensor:
	$(GO) test ./internal/tensor -run '^$$' -bench . -benchtime 1x

# The serving microbenchmarks, same deal: the ranked-query scan kernel
# against its row-at-a-time reference at the query-mode shapes of als3-zipf
# and als4-tall (ns/row, allocations per query), and the naive and batched
# TopK pair.
bench-serve:
	$(GO) test ./internal/serve -run '^$$' -bench . -benchtime 1x

# End-to-end streaming smoke under the race detector: train a tiny model,
# stream three windows through ingest -> incremental update -> publish
# (v1..v4), then restart on the same model path. The restarted stream's
# first publish must continue the versions on disk at v5.
STREAM_SMOKE = $(GO) run -race ./cmd/cstf-stream -model "$$tmp/model.ckpt" \
	-dims 60,50,40 -nnz 2000 -rank 2 -train-iters 2 \
	-windows 3 -window 200 -full-sweep-every 2 -grow-every 150
stream-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(STREAM_SMOKE) || exit 1; \
	$(STREAM_SMOKE) 2>"$$tmp/restart.log"; status=$$?; cat "$$tmp/restart.log" >&2; \
	[ $$status -eq 0 ] || exit 1; \
	grep -q '^cstf-stream: published v5 ' "$$tmp/restart.log" || \
		{ echo "stream-smoke: the restarted stream's first publish is not v5" >&2; exit 1; }

# The preamble the dist, rals and recsys smoke cases share: a temp dir
# removed on exit, a race-built cstf-worker that -dist-local forks (exported
# as CSTF_WORKER_BIN) and a tensorgen tensor "$tmp/t.tns" generated with
# SMOKE_TENSOR. A case's recipe is @$(SMOKE) followed by its own commands.
SMOKE_TENSOR = -dims 80,60,40 -nnz 5000 -rank 3
SMOKE = tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -race -o "$$tmp/cstf-worker" ./cmd/cstf-worker && \
	export CSTF_WORKER_BIN="$$tmp/cstf-worker" && \
	$(GO) run ./cmd/tensorgen -out "$$tmp/t.tns" $(SMOKE_TENSOR) &&

# Every end-to-end smoke case, one after another (CI runs them as one step).
smoke: stream-smoke fleet-smoke dist-smoke dist-chaos-smoke rals-smoke recsys-smoke

# End-to-end distributed smoke under the race detector: fork three real
# cstf-worker processes and run a small decomposition over TCP with delta
# broadcasts. The full-broadcast path runs in rals-smoke's fleet leg, where
# a sampled update forces it.
dist-smoke:
	@$(SMOKE) \
	$(GO) run -race ./cmd/cstf -in "$$tmp/t.tns" -dist-local 3 -rank 3 -iters 3 -tol 0

# End-to-end fault-recovery smoke under the race detector: forked workers
# survive an injected partition plus a corrupted frame mid-solve, then a
# checkpointed run is interrupted and resumed from its checkpoint file.
dist-chaos-smoke:
	@$(SMOKE) \
	$(GO) run -race ./cmd/cstf -in "$$tmp/t.tns" -dist-local 3 -rank 3 -iters 4 -tol 0 \
		-chaos "partitions=1,corrupt=1,horizon=8,seed=3" && \
	$(GO) run -race ./cmd/cstf -in "$$tmp/t.tns" -dist-local 3 -rank 3 -iters 2 -tol 0 \
		-checkpoint "$$tmp/cp.ckpt" -checkpoint-every 1 && \
	$(GO) run -race ./cmd/cstf -in "$$tmp/t.tns" -dist-local 3 -rank 3 -iters 4 -tol 0 \
		-checkpoint "$$tmp/cp.ckpt" -resume

# End-to-end fleet smoke under the race detector: a router over two
# in-process replicas takes a closed-loop query burst while a rolling
# reload crosses the fleet; zero dropped queries is the pass condition.
fleet-smoke:
	$(GO) run -race ./cmd/cstf-router -smoke

# End-to-end randomized-ALS smoke under the race detector: a sampled solve
# with an exact polish on a generated tensor, serially and over two forked
# workers, then the degenerate full-budget case (bitwise-exact CP-ALS).
rals-smoke:
	@$(SMOKE) \
	$(GO) run -race ./cmd/cstf -in "$$tmp/t.tns" -algo rals \
		-rank 3 -iters 6 -tol 0 -rals-frac 0.3 -rals-resample 2 -rals-polish 2 && \
	$(GO) run -race ./cmd/cstf -in "$$tmp/t.tns" -algo rals -dist-local 2 \
		-rank 3 -iters 6 -tol 0 -rals-frac 0.3 -rals-resample 2 -rals-polish 2 && \
	$(GO) run -race ./cmd/cstf -in "$$tmp/t.tns" -algo rals \
		-rank 3 -iters 4 -tol 0 -rals-count 5000

# End-to-end recommender smoke under the race detector: generate a planted
# recsys tensor with its held-out split, train nonnegative CP on it with
# checkpointing, resume from the mid-run checkpoint (bitwise vs
# uninterrupted — the CLI half of the scenario), train it over two forked
# workers (still nonnegative CP: the fleet keeps -algo ncp), then run the
# shrunken recsys benchmark, which streams delta windows through the
# updater, publishes each version, hot-reloads every replica of a sharded
# serving fleet over real HTTP, and checks fleet TopK-with-exclude bitwise
# against a single-node scan.
recsys-smoke: SMOKE_TENSOR = -recsys -users 120 -items 80 -contexts 4 -groups 3 -nnz 6000 -seed 13
recsys-smoke:
	@$(SMOKE) \
	$(GO) run -race ./cmd/cstf -in "$$tmp/t.tns" -algo ncp \
		-rank 3 -iters 3 -tol 0 -ntf-inner 2 \
		-checkpoint "$$tmp/m.ckpt" -checkpoint-every 1 && \
	$(GO) run -race ./cmd/cstf -in "$$tmp/t.tns" -algo ncp \
		-rank 3 -iters 6 -tol 0 -ntf-inner 2 \
		-checkpoint "$$tmp/m.ckpt" -resume && \
	$(GO) run -race ./cmd/cstf -in "$$tmp/t.tns" -algo ncp -dist-local 2 \
		-rank 3 -iters 3 -tol 0 -ntf-inner 2 && \
	$(GO) test -race -run TestRecsysBenchSmall ./internal/experiments
