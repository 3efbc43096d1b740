#!/bin/sh
# pairs.sh PARENT WORKLOAD [N [BENCH_FLAG...]]
#
# A before/after verdict on one benchmark workload: N (default 10) pairs of
# `bench -workload WORKLOAD -seed S`, one run of the commit PARENT and one
# of the working tree per pair, each pair on a fresh seed, with the side
# that runs first alternating from pair to pair so a slow phase of the host
# lands on both sides alike. Flags after N go to every bench run (e.g.
# `-ops 40`).
#
# PARENT is exported into a temporary directory with `git archive`; the
# working tree is built where it stands. `bench` is built once per side, and
# driven from outside: its code, bounds and -compare gate are untouched.
#
# Prints every pair, then for each metric of BENCHMARK.json the runs report
# (the end-to-end ones, or with `-trace 1` the per-layer ones such as
# octree.force_ms): the per-pair ratios (working tree / parent), how many
# pairs the working tree won in the metric's better direction, the median
# and quartiles of the ratios, and the parent's median and interquartile
# range. With PARENT = HEAD and a clean tree it measures the host's A/A
# floor.
set -eu

if [ $# -lt 2 ]; then
	echo "usage: scripts/pairs.sh PARENT WORKLOAD [N [BENCH_FLAG...]]" >&2
	exit 2
fi
parent=$1
workload=$2
pairs=${3:-10}
shift $(( $# < 3 ? $# : 3 ))

cd "$(dirname "$0")/.."
root=$(pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

rev=$(git rev-parse --short "$parent")
mkdir "$tmp/parent" "$tmp/runs"
git archive "$rev" | tar -x -C "$tmp/parent"
(cd "$tmp/parent" && go build -o "$tmp/bench-parent" ./bench)
go build -o "$tmp/bench-change" ./bench

kernel=$(go test -count=1 -run '^TestAccelMatchesGoEveryLengthAndOffset$' -v ./internal/soa |
	sed -n 's/.*kernel: //p' | head -n 1)
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
echo "# parent $rev, working tree $(git rev-parse --short HEAD)$(test -z "$(git status --porcelain)" || echo -dirty)"
echo "# host: ${cpu:-unknown cpu}, $(getconf _NPROCESSORS_ONLN) cpus, GOMAXPROCS ${GOMAXPROCS:-unset}, $(go env GOVERSION) $(go env GOOS)/$(go env GOARCH), force kernel ${kernel:-unknown}"
echo "# workload $workload, $pairs pairs, bench flags: ${*:-none}"

# Fresh seeds: a clock-derived base no committed run has used.
base=$(( $(date +%s) % 1000000 * 100 ))

flags=$*

# run SIDE SEED: one bench run; its result line goes to runs/SIDE-SEED.json.
run() {
	dir=$root
	[ "$1" = parent ] && dir=$tmp/parent
	# shellcheck disable=SC2086 # flags are split into words on purpose
	(cd "$dir" && "$tmp/bench-$1" -workload "$workload" -seed "$2" -out "$tmp/out-$1" $flags) \
		>"$tmp/runs/$1-$2.txt" 2>&1 || true
	tail -n 1 "$tmp/runs/$1-$2.txt" >"$tmp/runs/$1-$2.json"
	if ! jq -e .correct "$tmp/runs/$1-$2.json" >/dev/null 2>&1; then
		echo "# $1 seed $2 failed a check or did not finish:" >&2
		grep -v '^{' "$tmp/runs/$1-$2.txt" | tail -n 5 >&2
	fi
}

i=1
while [ "$i" -le "$pairs" ]; do
	seed=$((base + i))
	if [ $((i % 2)) -eq 1 ]; then
		first=parent second=change
	else
		first=change second=parent
	fi
	run "$first" "$seed"
	run "$second" "$seed"
	echo "$seed $first" >>"$tmp/seeds"
	echo "# pair $i seed $seed: $first first" >&2
	i=$((i + 1))
done

jq -r '.end_to_end[], .per_layer[] | "\(.name) \(.better)"' BENCHMARK.json | while read -r metric better; do
	# Only the metrics some run reported: untraced runs report no per-layer ones.
	found=
	for f in "$tmp"/runs/*.json; do
		if jq -e --arg m "$metric" '.metrics[$m]' "$f" >/dev/null 2>&1; then
			found=1
			break
		fi
	done
	[ -n "$found" ] || continue
	while read -r seed first; do
		p=$(jq -r --arg m "$metric" '.metrics[$m].value // "nan"' "$tmp/runs/parent-$seed.json" 2>/dev/null || echo nan)
		c=$(jq -r --arg m "$metric" '.metrics[$m].value // "nan"' "$tmp/runs/change-$seed.json" 2>/dev/null || echo nan)
		echo "$seed $first $p $c"
	done <"$tmp/seeds" | awk -v metric="$metric" -v better="$better" '
		function q(a, n, f,   h, lo) { h = (n - 1) * f; lo = int(h); return a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1]) }
		function sort(a, n,   i, j, v) { for (i = 2; i <= n; i++) { v = a[i]; for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]; a[j + 1] = v } }
		{
			printf "%-18s seed %-10s %-6s first  parent %-12.6g change %-12.6g", metric, $1, $2, $3, $4
			if ($3 == "nan" || $4 == "nan") { print "  missing"; bad++; next }
			n++; pv[n] = $3 + 0; cv[n] = $4 + 0
			if ($3 + 0 == 0) { r[n] = ($4 + 0 == 0) ? 1 : "inf" } else { r[n] = $4 / $3 }
			w = (better == "lower") ? ($4 < $3) : ($4 > $3)
			wins += w; ties += ($4 == $3)
			printf "  ratio %.4f%s\n", r[n], w ? "  win" : ""
		}
		END {
			if (n == 0) { printf "%-18s no complete pair\n\n", metric; exit }
			sort(r, n); sort(pv, n); sort(cv, n)
			pm = q(pv, n, 0.5); cm = q(cv, n, 0.5); iqr = q(pv, n, 0.75) - q(pv, n, 0.25)
			gain = (better == "lower") ? pm - cm : cm - pm
			printf "%-18s %s is better: working tree won %d of %d pairs (%d tied), ratio median %.4f [q1 %.4f, q3 %.4f]\n", metric, better, wins, n, ties, q(r, n, 0.5), q(r, n, 0.25), q(r, n, 0.75)
			printf "%-18s medians: parent %.6g, working tree %.6g; parent IQR %.3g; median gain %s the parent IQR%s\n\n",
				metric, pm, cm, iqr, (gain > iqr) ? "beyond" : "within", bad ? sprintf("; %d pairs incomplete", bad) : ""
		}'
done
