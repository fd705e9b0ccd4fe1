GO ?= go

# Staticcheck is pinned so CI results cannot drift as new checks land
# upstream; bump deliberately, together with any burn-down the new
# version requires.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test vet toolvet lint examples toolbenchd-smoke remote-smoke chaos fuzz-smoke bench-smoke

build:
	$(GO) build ./...

# test also covers perfbench, a separate module (replace tooleval =>
# ../) that the root `go test ./...` never builds, so an API change it
# depends on breaks here as it does in CI's test job.
test:
	$(GO) test ./...
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

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
# the daemon, check that each bad command line fails before listening
# with its exact exit code (1 for a rejected config value or a -store
# path that is a regular file, 2 for a usage error such as the deleted
# -tier-file flag), check that both daemons, and a worker with a
# -store, drain on SIGHUP and exit 0, run the daemon and server suites
# under the race detector, and stream the short-mode concurrent-tenant
# load test. Binaries, logs and the store live in a mktemp directory
# that is removed on exit.
toolbenchd-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/toolbenchd ./cmd/toolbenchd; \
	for row in "1:-j -1" "1:-cache-cap -1" "1:-store go.mod" "2:-tier-file x"; do \
		want=$${row%%:*}; args=$${row#*:}; \
		rc=0; timeout 10 $$tmp/toolbenchd -addr 127.0.0.1:0 $$args || rc=$$?; \
		if [ "$$rc" -ne "$$want" ]; then \
			echo "toolbenchd $$args exited $$rc, want $$want" >&2; exit 1; \
		fi; \
	done; \
	$(GO) build -o $$tmp/toolbench-worker ./cmd/toolbench-worker; \
	n=0; for d in "toolbenchd" "toolbench-worker"; do \
		n=$$((n+1)); log=$$tmp/daemon-$$n.log; \
		timeout 20 $$tmp/$$d -addr 127.0.0.1:0 2> $$log & pid=$$!; \
		for _ in $$(seq 100); do grep -q 'listening on' $$log 2>/dev/null && break; sleep 0.1; done; \
		kill -HUP $$pid; \
		rc=0; wait $$pid || rc=$$?; \
		if [ "$$rc" -ne 0 ]; then \
			cat $$log >&2; echo "$$d exited $$rc after SIGHUP, want 0" >&2; exit 1; \
		fi; \
	done
	$(GO) test -race ./internal/server ./cmd/toolbenchd
	$(GO) test -race -short -run TestLoadManyConcurrentTenants -v ./internal/server

# remote-smoke is the local mirror of CI's remote-smoke job: build the
# coordinator and worker binaries, distribute a full sweep across two
# spawned worker daemons and diff it against a serial run
# (scripts/remote_smoke.sh), then run the remote suite and the
# session-level remote tests (coordinator-side memoization, quota and
# cell events over remote workers) under the race detector.
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
	$(GO) test -run=NONE -fuzz='^FuzzDecodeRecords$$' -fuzztime=$(FUZZTIME) ./internal/apps/psrs
	$(GO) test -run=NONE -fuzz='^FuzzStorePayload$$' -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run=NONE -fuzz='^FuzzWorkerCellRequest$$' -fuzztime=$(FUZZTIME) ./internal/remote
	$(GO) test -run=NONE -fuzz='^FuzzRemoteCellResponse$$' -fuzztime=$(FUZZTIME) ./internal/remote

# bench-smoke compiles and runs every benchmark for exactly one
# iteration — the CI guard against benchmark bit-rot — plus one
# multi-threaded pass of the scheduler-contention benchmarks (their
# serial/pooled comparison is meaningless single-threaded).
bench-smoke:
	$(GO) test -run=NoSuchTest -bench=. -benchtime=1x ./...
	$(GO) test -run=NoSuchTest -bench='MemoContention|Sweep$$' -benchtime=1x -cpu 4 ./internal/runner
