#!/usr/bin/env bash
# Lists the functions under bionicdb.go, cmd/ and internal/ that no run
# reaches, and compares the list with testdata/unreached.txt.
#
# It builds bionicbench, every example and the benchmark with coverage
# instrumentation and runs them all into one GOCOVERDIR:
#   bionicbench -all -quick -json -csv
#   bionicbench -fig 4 -quick -replication sync -trace-out -metrics-out -json
#   bionicbench -fig-failover -quick -metrics-out failover.json
#   each example under examples/
#   benchmark -smoke
# A function these runs never enter is listed as "file function". Each
# entry of testdata/unreached.txt carries a class and a reason:
#   error       an error exit no run takes
#   diagnostic  a String method or other text for a human
#   oracle      a check that only tests run (a digest, a validator)
#   test-api    a helper that another package's tests call
#   kept        a mechanism an open ROADMAP item keeps; the reason names it
# The script exits 1 on a function missing from the file (delete it, move it
# into a _test.go file, or reach it from a run) and on an entry that no
# longer names an unreached function (drop it).
#
# Usage: scripts/unreached.sh
# It takes about 2 min on 2 vCPUs. It writes into a temporary directory,
# except for the benchmark's smoke run, which writes into the gitignored
# benchmark/out/ as it always does.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
list="$root/testdata/unreached.txt"

# Every entry needs one of the five classes and a reason.
bad=$(awk '!/^#/ && NF && (NF < 4 || $3 !~ /^(error|diagnostic|oracle|test-api|kept)$/ || ($3 == "kept" && $4 !~ /^\[/))' "$list")
if [ -n "$bad" ]; then
	echo "unreached.sh: entries in testdata/unreached.txt without a class and a reason:" >&2
	echo "$bad" >&2
	exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/bin" run="$tmp/run"
export GOCOVERDIR="$tmp/cover"
mkdir -p "$bin" "$run" "$GOCOVERDIR"

cd "$root"
examples=$(cd examples && ls -d */ | tr -d /)
go build -cover -coverpkg=./... -o "$bin/bionicbench" ./cmd/bionicbench
for ex in $examples; do
	go build -cover -coverpkg=./... -o "$bin/ex-$ex" "./examples/$ex"
done
(cd benchmark && go build -cover -coverpkg=bionicdb/... -o "$bin/benchmark" .)

# quiet runs a command with its output kept aside, and shows the output's
# tail if it fails.
quiet() {
	if ! "$@" >"$tmp/out" 2>&1; then
		echo "unreached.sh: $* failed:" >&2
		tail -20 "$tmp/out" >&2
		exit 1
	fi
}

# examples/trace writes into its working directory, so every run but the
# benchmark's (which finds BENCHMARK.json above its working directory) runs
# in the temporary one.
cd "$run"
quiet "$bin/bionicbench" -all -quick -json all.json -csv
quiet "$bin/bionicbench" -fig 4 -quick -replication sync -trace-out trace.json -metrics-out metrics.csv -json fig4.json
quiet "$bin/bionicbench" -fig-failover -quick -metrics-out failover.json
for ex in $examples; do
	quiet "$bin/ex-$ex"
done
cd "$root"
quiet "$bin/benchmark" -smoke

# A function is reached if any instrumented binary entered it.
go tool covdata func -i "$GOCOVERDIR" |
	awk '$1 ~ /^bionicdb\/(bionicdb\.go|cmd\/|internal\/)/ {
		file = $1; sub(/^bionicdb\//, "", file); sub(/:[0-9]+:$/, "", file)
		key = file " " $2
		if (!(key in hit)) hit[key] = 0
		if ($3 != "0.0%") hit[key] = 1
	}
	END { for (k in hit) if (!hit[k]) print k }' |
	LC_ALL=C sort >"$tmp/found"

awk '!/^#/ && NF {print $1, $2}' "$list" | LC_ALL=C sort >"$tmp/listed"
new=$(LC_ALL=C comm -23 "$tmp/found" "$tmp/listed")
stale=$(LC_ALL=C comm -13 "$tmp/found" "$tmp/listed")
if [ -n "$new" ]; then
	echo "unreached.sh: no run reaches these functions, and testdata/unreached.txt does not list them:" >&2
	echo "$new" | sed 's/^/  /' >&2
fi
if [ -n "$stale" ]; then
	echo "unreached.sh: testdata/unreached.txt lists these, but they are reached or gone:" >&2
	echo "$stale" | sed 's/^/  /' >&2
fi
if [ -n "$new" ] || [ -n "$stale" ]; then
	exit 1
fi
echo "unreached.sh: $(wc -l <"$tmp/found") unreached functions, all listed"
