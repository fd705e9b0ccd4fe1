#!/bin/sh
# remote_smoke.sh — the distributed-execution end-to-end check, and
# the local mirror of CI's remote-smoke job: build the coordinator and
# worker binaries, spawn two real toolbench-worker daemons, distribute
# a full `all` sweep across them, and require stdout and every
# artifact byte-identical to a serial run of the same sweep.
#
# Usage, from the repository root:
#
#	./scripts/remote_smoke.sh
set -eu

work="$(mktemp -d)"
w1= w2=
cleanup() {
	[ -n "$w1" ] && kill "$w1" 2>/dev/null || true
	[ -n "$w2" ] && kill "$w2" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

echo "remote_smoke: building toolbench + toolbench-worker" >&2
go build -o "$work/toolbench" ./cmd/toolbench
go build -o "$work/toolbench-worker" ./cmd/toolbench-worker

# Spawn the daemons on ephemeral ports (one at the default -j, one at
# -j 2 with a store — the worker configuration mix must not matter) and
# scrape the logged listen addresses.
"$work/toolbench-worker" -addr 127.0.0.1:0 2>"$work/w1.log" &
w1=$!
"$work/toolbench-worker" -addr 127.0.0.1:0 -j 2 -store "$work/wstore" 2>"$work/w2.log" &
w2=$!

addr_of() {
	i=0
	while [ "$i" -lt 100 ]; do
		addr="$(sed -n 's/^toolbench-worker: listening on \([^ ]*\).*/\1/p' "$1")"
		if [ -n "$addr" ]; then
			echo "$addr"
			return 0
		fi
		i=$((i + 1))
		sleep 0.1
	done
	echo "remote_smoke: worker never logged its listen address:" >&2
	cat "$1" >&2
	return 1
}
a1="$(addr_of "$work/w1.log")"
a2="$(addr_of "$work/w2.log")"
echo "remote_smoke: workers at $a1 and $a2" >&2

echo "remote_smoke: serial reference sweep" >&2
"$work/toolbench" -scale 0.1 -out "$work/serial" all >"$work/serial.out"

echo "remote_smoke: distributed sweep" >&2
"$work/toolbench" -scale 0.1 -j 8 -workers "$a1,$a2" -stats \
	-out "$work/remote" all >"$work/remote.out" 2>"$work/remote.stats"

cat "$work/remote.stats" >&2
grep -q 'workers:' "$work/remote.stats" || {
	echo "remote_smoke: -stats printed no per-node table" >&2
	exit 1
}
diff "$work/serial.out" "$work/remote.out"
diff -r "$work/serial" "$work/remote"

# Both daemons drain cleanly on SIGTERM.
kill "$w1" "$w2"
wait "$w1" "$w2" || {
	echo "remote_smoke: a worker exited non-zero on SIGTERM" >&2
	exit 1
}
w1= w2=

echo "remote_smoke: distributed sweep byte-identical to serial"
