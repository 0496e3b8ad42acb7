#!/usr/bin/env bash
# Collects which functions the program's runs reach. Builds every main
# under cmd/ and examples/ with coverage over the whole module, and the
# benchmark binary with coverage over decoupling/..., drives each one
# through a fixed list of invocations from a temporary directory, and
# writes `go tool cover -func` output for the root module to DIR/func.txt:
#
#   bash scripts/cover.sh DIR
#
# Run it from the repository root; it needs curl. The invocations are
# every experiments mode, every decouple subcommand, the CLI error paths
# one command reaches, tracecheck and benchdiff on the artifacts those
# runs write, loadgen in each mode CI runs with /metrics and /statusz
# scraped mid-run, each example, and each benchmark workload. Tests do
# not count: a function that only tests call reads 0.0%.
# scripts/unrun.sh compares the 0.0% functions with the allowlist.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: bash scripts/cover.sh DIR" >&2
	exit 2
fi
root="$(pwd)"
mkdir -p "$1"
dir="$(cd "$1" && pwd)"
tmp="$(mktemp -d)"
bg=""
cleanup() {
	[ -n "$bg" ] && kill "$bg" 2>/dev/null
	rm -rf "$tmp"
}
trap cleanup EXIT

mkdir -p "$tmp/bin" "$tmp/data" "$tmp/log"
for d in cmd/* examples/*; do
	go build -cover -coverpkg=./... -o "$tmp/bin/$(basename "$d")" "./$d"
done
go -C benchmark build -cover -coverpkg=decoupling/... -o "$tmp/bin/benchmark" .
export GOCOVERDIR="$tmp/data"
cd "$tmp"

# run NAME CMD... runs CMD, which must exit 0; fails NAME CMD... runs
# CMD, which must exit nonzero. Output goes to log/NAME.{out,err}.
run() {
	local name=$1
	shift
	if ! "$@" > "log/$name.out" 2> "log/$name.err"; then
		echo "cover: $name: $* failed" >&2
		cat "log/$name.err" >&2
		exit 1
	fi
}
fails() {
	local name=$1
	shift
	if "$@" > "log/$name.out" 2> "log/$name.err"; then
		echo "cover: $name: $* succeeded; it must fail" >&2
		exit 1
	fi
}
# serve NAME CMD... starts CMD, which has -listen 127.0.0.1:0, in the
# background and sets addr to the address it serves once it logs it.
serve() {
	local name=$1
	shift
	"$@" > "log/$name.out" 2> "log/$name.err" &
	bg=$!
	addr=""
	for _ in $(seq 1 600); do
		addr=$(sed -n 's|.*observability on http://\([^/]*\)/metrics.*|\1|p' "log/$name.err")
		[ -n "$addr" ] && return
		sleep 0.05
	done
	echo "cover: $name: no listen address" >&2
	exit 1
}
# wait_bg NAME waits for the background run, which must exit 0.
wait_bg() {
	if ! wait "$bg"; then
		echo "cover: $1 failed" >&2
		cat "log/$1.err" >&2
		exit 1
	fi
	bg=""
}

# cmd/experiments
run exp bin/experiments
run exp-seq bin/experiments -parallel 1
run exp-static bin/experiments -static
run exp-tcp bin/experiments -transport tcp
run exp-static-tcp bin/experiments -static -transport tcp
run exp-telemetry bin/experiments -parallel 4 -metrics metrics.prom -audit audit.jsonl -stats
run exp-rotate bin/experiments -trace-mode rotate -wirespans wirespans.sim.jsonl
fails exp-naive bin/experiments -trace-mode naive -wirespans wirespans.naive.jsonl E2
fails exp-badflag bin/experiments -bogus
fails exp-unknown bin/experiments E99
serve exp-explore bin/experiments -explore -seeds 64 -traces traces -metrics explore.prom -listen 127.0.0.1:0
run exp-explore-metrics curl -sf "http://$addr/metrics"
run exp-explore-statusz curl -sf "http://$addr/statusz"
wait_bg exp-explore

# cmd/decouple
fails dec-noargs bin/decouple
fails dec-badflag bin/decouple -bogus
fails dec-audit-noarg bin/decouple audit
run dec-list bin/decouple list
run dec-tables bin/decouple tables
run dec-show bin/decouple show mpr
run dec-analyze bin/decouple analyze
run dec-collude bin/decouple collude mixnet "Mix 1" "Receiver"
for s in mixnet odns odoh; do
	run "dec-audit-$s" bin/decouple audit "$s"
	run "dec-audit-$s-flaky" bin/decouple audit -faults flaky "$s"
done
run dec-audit-exports bin/decouple audit -parallel 8 -stats -jsonl audit.odoh.jsonl -dot audit.odoh.dot -graphjson audit.odoh.json odoh
run dec-audit-crash bin/decouple audit -parallel 8 -faults "crash:proxy@30ms-" odoh
run dec-audit-partition bin/decouple audit -faults "partition:mix1<>mix2@30ms-80ms" mixnet
run dec-explain bin/decouple -explain odns
run dec-static bin/decouple audit -static -jsonl static.jsonl -dot static.dot all
fails dec-static-snoop bin/decouple audit -static odoh-snoop
for t in traces/*.trace.json; do
	run "dec-replay-$(basename "$t" .trace.json)" bin/decouple replay "$t"
done

# cmd/loadgen, as CI runs it, with its live scrapes
serve lg-live bin/loadgen -clients 10000 -listen 127.0.0.1:0 -sample samples.jsonl -out bench.ci.json \
	-trace-mode rotate -trace-sample 100 -wirespans wirespans.jsonl -perfetto wire.perfetto.json
run lg-live-metrics curl -sf "http://$addr/metrics" -o metrics.midrun.prom
run lg-live-statusz curl -sf "http://$addr/statusz" -o statusz.midrun.json
wait_bg lg-live
run lg-chaos bin/loadgen -clients 10000 \
	-faults "loss:*>relay1:0.25@0-800ms;crash:relay2@300ms-900ms;spike:relay3>receiver:2ms@0-2s" \
	-inbox-depth 96 -out-depth 8 -shed-after 1ms -out bench.chaos.json
fails lg-failopen bin/loadgen -clients 2000 -faults "crash:proxy@200ms-" -fail-open -out bench.failopen.json
fails lg-naive bin/loadgen -clients 2000 -trace-mode naive -out bench.naive.json
run lg-noledger bin/loadgen -clients 2000 -ledger=false -out bench.noledger.json

# cmd/tracecheck and cmd/benchdiff on those artifacts
run tc-sim bin/tracecheck -spans wirespans.sim.jsonl
run tc-live bin/tracecheck -metrics metrics.midrun.prom -samples samples.jsonl -spans wirespans.jsonl
run tc-exp bin/tracecheck -metrics metrics.prom
: > empty.jsonl
fails tc-empty bin/tracecheck -spans empty.jsonl
run tc-empty-allowed bin/tracecheck -spans empty.jsonl -allow-empty
run bd-chaos bin/benchdiff -throughput-drop 0.9 -latency-grow 200 -alloc-grow 10 "$root/BENCH_transport.json" bench.chaos.json
fails bd-chaos-default bin/benchdiff "$root/BENCH_transport.json" bench.chaos.json

# examples
for d in "$root"/examples/*/; do
	name=$(basename "$d")
	run "ex-$name" "bin/$name"
done

# benchmark workloads, each with an untraced and a traced pass
for w in odoh-closed odoh-live-audit mixnet-open reproduce; do
	run "bench-$w" bin/benchmark -workload "$w" -seed 1 -seconds 3 -trace 1 -spans "spans-$w.jsonl"
done

cd "$root"
go tool covdata textfmt -i="$tmp/data" -o "$tmp/raw.txt"
grep -v '^decoupling/benchmark' "$tmp/raw.txt" > "$tmp/cover.txt"
go tool cover -func="$tmp/cover.txt" > "$dir/func.txt"
