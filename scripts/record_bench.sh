#!/bin/sh
# record_bench.sh LABEL [COUNT] — run the figure benchmarks, the
# internal/sim engine microbenchmarks, and the internal/runner
# scheduler-contention benchmarks, and record ns/op, B/op and allocs/op
# under the given label (see scripts/benchjson). COUNT is the
# -benchtime for the microbenchmarks (default 20x; the figure
# benchmarks always run 1x so the first — and only — iteration actually
# simulates instead of replaying the memoization cache).
#
# Every label lands in the one ledger, BENCH_LEDGER.json: benchjson
# replaces the given label's section and preserves every other label,
# so the file carries the full recorded progression.
#
# The contention benchmarks run at -cpu 4 so the serial/pooled
# comparison actually contends even when GOMAXPROCS defaults low.
#
# Usage, from the repository root:
#
#	./scripts/record_bench.sh baseline
set -eu

label="${1:?usage: record_bench.sh LABEL [COUNT]}"
count="${2:-20x}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

echo "record_bench: figure + store + remote benchmarks (-benchtime=1x)" >&2
go test -run=NoSuchTest -bench='Table|Fig|ADL|Store|Remote' -benchmem -benchtime=1x . >"$tmp"
echo "record_bench: sim microbenchmarks (-benchtime=$count)" >&2
go test -run=NoSuchTest -bench=. -benchmem -benchtime="$count" ./internal/sim >>"$tmp"
echo "record_bench: scheduler contention benchmarks (-cpu 4)" >&2
go test -run=NoSuchTest -bench='MemoContention|Sweep$' -benchmem -benchtime=2s -cpu 4 ./internal/runner >>"$tmp"

go run ./scripts/benchjson -label "$label" <"$tmp"
