GO ?= go

# Staticcheck is pinned so CI results cannot drift as new checks land
# upstream; bump deliberately, together with any burn-down the new
# version requires.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test vet toolvet lint examples toolbenchd-smoke remote-smoke chaos fuzz-smoke bench-smoke bench-baseline

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# toolvet is the repo's own analyzer suite (internal/lint): the
# determinism and error-contract invariants — no wall-clock in
# simulation paths, no map iteration feeding output, errors.As/Is over
# bare assertions, bounded goroutine fan-out — machine-checked. Runs
# from the module, so analyzer and code versions move together.
toolvet:
	$(GO) run ./cmd/toolvet ./...

# lint is the full static gate: vet + toolvet + staticcheck (the last
# only when installed — the pinned version is what CI enforces).
lint: vet toolvet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# examples builds and smoke-runs every examples/ program — the local
# mirror of CI's examples job.
examples:
	$(GO) build ./examples/...
	@set -e; for d in examples/*/; do echo "==> $$d"; $(GO) run "./$$d" > /dev/null; done

# toolbenchd-smoke is the local mirror of CI's toolbenchd job: build
# the daemon, check that a bad config (a negative size, an unknown
# flag) exits non-zero before listening, run the server suite under the
# race detector, and stream the short-mode concurrent-tenant load test.
toolbenchd-smoke:
	$(GO) build -o /tmp/toolbenchd ./cmd/toolbenchd
	@for args in "-j -1" "-cache-stripes 4"; do \
		rc=0; timeout 10 /tmp/toolbenchd -addr 127.0.0.1:0 $$args || rc=$$?; \
		if [ "$$rc" -eq 0 ] || [ "$$rc" -eq 124 ]; then \
			echo "toolbenchd $$args started (exit $$rc), want a startup error" >&2; exit 1; \
		fi; \
	done
	$(GO) test -race ./internal/server
	$(GO) test -race -short -run TestLoadManyConcurrentTenants -v ./internal/server

# remote-smoke is the local mirror of CI's remote-smoke job: build the
# coordinator and worker binaries, distribute a full sweep across two
# spawned worker daemons and diff it against a serial run
# (scripts/remote_smoke.sh), then run the remote suite and the
# session-level remote tests (coordinator-side memoization, quota and
# observers over remote workers) under the race detector.
remote-smoke:
	./scripts/remote_smoke.sh
	$(GO) test -race ./internal/remote
	$(GO) test -race -run 'Remote' .

# chaos is the local mirror of CI's chaos job: the seeded
# fault-injection suite under the race detector, once with the pinned
# -short seed and once with a fresh logged seed (reproduce a failure
# with TOOLEVAL_CHAOS_SEED=<seed> make chaos).
chaos:
	$(GO) test -race -short -run TestChaos ./...
	$(GO) test -race -run TestChaos ./...

# fuzz-smoke runs every native fuzz target for FUZZTIME each — the
# local mirror of CI's fuzz-smoke job. Each run first replays the
# committed corpus under the package's testdata/fuzz; a crash writes
# its reproducer there (commit it with the fix). `go test -fuzz` takes
# one target per run, hence one line per target.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzXDROpaque$$' -fuzztime=$(FUZZTIME) ./internal/mpt
	$(GO) test -run=NONE -fuzz='^FuzzCombineSum$$' -fuzztime=$(FUZZTIME) ./internal/mpt
	$(GO) test -run=NONE -fuzz='^FuzzFragFrame$$' -fuzztime=$(FUZZTIME) ./internal/mpt/pvm

# bench-smoke compiles and runs every benchmark for exactly one
# iteration — the CI guard against benchmark bit-rot — plus one
# multi-threaded pass of the scheduler-contention benchmarks (their
# serial/pooled comparison is meaningless single-threaded).
bench-smoke:
	$(GO) test -run=NoSuchTest -bench=. -benchtime=1x ./...
	$(GO) test -run=NoSuchTest -bench='MemoContention|Sweep$$' -benchtime=1x -cpu 4 ./internal/runner

# bench-baseline records the current figure + store + remote + engine
# + scheduler benchmark numbers into BENCH_LEDGER.json under the
# required LABEL, keeping every other recorded label (see
# scripts/record_bench.sh). Usage: make bench-baseline LABEL=name
bench-baseline:
	@test -n "$(LABEL)" || { echo "usage: make bench-baseline LABEL=name" >&2; exit 2; }
	./scripts/record_bench.sh "$(LABEL)"
