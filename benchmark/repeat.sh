#!/usr/bin/env bash
# Runs the benchmark N times and prints each metric's median and
# interquartile range (IQR), the quartiles being those of Python's
# statistics.quantiles(values, n=4). An end-to-end metric (a name with
# no dot) whose IQR is over 10% of its median is flagged SPREAD. Run it
# from the repository root:
#
#   bash benchmark/repeat.sh 5 1 --workload odoh-closed --seconds 15
#
# The first argument is the number of runs, the second the seed; the
# rest go to benchmark/run.sh. With VARY_SEED=1, run i uses seed+i. The
# script stops with a nonzero status on the first run that fails.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 RUNS SEED [benchmark flags...]" >&2
	exit 2
fi
runs=$1 seed=$2
shift 2
mkdir -p .bench_build
lines=$(mktemp .bench_build/repeat.XXXXXX)
trap 'rm -f "$lines"' EXIT

for i in $(seq 0 $((runs - 1))); do
	s=$seed
	if [ "${VARY_SEED:-0}" = 1 ]; then
		s=$((seed + i))
	fi
	out=$(bash benchmark/run.sh --seed "$s" "$@" 2>/dev/null)
	if ! tail -n 1 <<<"$out" | grep -q '"correct":true'; then
		echo "run $i (seed $s) failed" >&2
		exit 1
	fi
	grep -v '^{' <<<"$out" >>"$lines"
done

sort -k1,1 -k2,2 -k3,3g "$lines" | awk '
function q(p,   m, j, d) {
	m = (n + 1) * p; j = int(m); d = m - j
	if (j < 1) return v[1]
	if (j >= n) return v[n]
	return v[j] + d * (v[j + 1] - v[j])
}
function flush(   med, iqr, spread, flag) {
	if (n == 0) return
	med = q(0.5); iqr = q(0.75) - q(0.25)
	spread = med != 0 ? iqr / (med < 0 ? -med : med) : 0
	flag = (index(metric, ".") == 0 && spread > 0.10) ? "  SPREAD" : ""
	printf "%-16s %-28s median %-12.6g iqr %-12.6g spread %6.2f%% %s n=%d%s\n", wl, metric, med, iqr, 100 * spread, unit, n, flag
	n = 0
}
{
	if ($1 != wl || $2 != metric) { flush(); wl = $1; metric = $2; unit = $4 }
	v[++n] = $3
}
END { flush() }'
