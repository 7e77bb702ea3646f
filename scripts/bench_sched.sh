#!/bin/sh
# Runs the testability-aware scheduling benchmarks and records the
# results in BENCH_sched.json at the repo root: effort-based makespans
# and per-fault completion latencies (P50/P95/max) on the retimed
# benchmark for three variants — unscheduled (canonical order, one
# queue), easyfirst (one queue ordered by predicted score; no hard
# queue) and hardqueue (the full PlanScheduled plan: per-rung concurrent
# queues with rung budgets) — plus the Spearman rank correlation of
# predicted score against measured per-fault effort.
#
#   scripts/bench_sched.sh               # default -benchtime=1x
#   BENCHTIME=5x scripts/bench_sched.sh
#   BENCH_GATE=1 scripts/bench_sched.sh  # also enforce the regression
#                                        # gate (used by CI)
#
# Everything the gate checks is hardware-independent effort accounting,
# not wall time, so it cannot flake on a loaded machine:
#
#   - hardqueue's modeled makespan must be strictly below unscheduled's
#     (concurrent big-budget queues must actually shorten the campaign);
#   - every variant's verdicts must equal the baseline's (prediction
#     may reorder and budget, never decide);
#   - easyfirst must charge exactly the baseline's gate evaluations (a
#     pure reordering) and hardqueue no more than them (rung budgets
#     only skip low rungs that were going to out-budget anyway);
#   - the predictor's Spearman rank correlation must be positive
#     (scores that anti-correlate with real effort would invert every
#     scheduling decision).
set -eu
cd "$(dirname "$0")/.."

out=$(go test -run='^$' -bench='BenchmarkSched' \
	-benchtime="${BENCHTIME:-1x}" ./internal/campaign/)
printf '%s\n' "$out"

printf '%s\n' "$out" | awk \
	-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-v gover="$(go env GOVERSION)" \
	-v gate="${BENCH_GATE:-0}" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^BenchmarkSched\//, "", name)
	metrics = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		if (metrics != "") metrics = metrics ", "
		metrics = metrics "\"" $(i + 1) "\": " $i
		if ($(i + 1) == "makespan-evals/op") mk[name] = $i
		if ($(i + 1) == "lat-p50-evals/op") p50[name] = $i
		if ($(i + 1) == "lat-p95-evals/op") p95[name] = $i
		if ($(i + 1) == "gate-evals/op") ge[name] = $i
		if ($(i + 1) == "verdict-match/op") vm[name] = $i
		if ($(i + 1) == "spearman-x1000/op") sp[name] = $i
	}
	rec[n++] = "    {\"name\": \"" name "\", \"iterations\": " $2 ", " metrics "}"
}
function ratio(a, b, arr) { return (a in arr && b in arr && arr[a] > 0) ? arr[b] / arr[a] : 0 }
END {
	u = "retimed/unscheduled"; e = "retimed/easyfirst"; h = "retimed/hardqueue"
	makespan_speedup = ratio(h, u, mk)
	p50_speedup = ratio(h, u, p50)
	p95_speedup = ratio(h, u, p95)
	easyfirst_p50_speedup = ratio(e, u, p50)
	evals_saved = (u in ge && h in ge) ? ge[u] - ge[h] : 0
	spearman = (u in sp) ? sp[u] / 1000 : 0
	print "{" > "BENCH_sched.json"
	print "  \"generated\": \"" date "\"," > "BENCH_sched.json"
	print "  \"go\": \"" gover "\"," > "BENCH_sched.json"
	printf "  \"derived\": {\"makespan_speedup\": %.3f, \"p50_latency_speedup\": %.3f, \"p95_latency_speedup\": %.3f, \"easyfirst_p50_speedup\": %.3f, \"evals_saved\": %d, \"spearman\": %.3f},\n", \
		makespan_speedup, p50_speedup, p95_speedup, easyfirst_p50_speedup, evals_saved, spearman > "BENCH_sched.json"
	print "  \"benchmarks\": [" > "BENCH_sched.json"
	for (i = 0; i < n; i++) print rec[i] (i < n - 1 ? "," : "") > "BENCH_sched.json"
	print "  ]" > "BENCH_sched.json"
	print "}" > "BENCH_sched.json"
	if (gate + 0) {
		fails = 0
		if (!(u in mk) || !(e in mk) || !(h in mk)) {
			print "GATE FAIL: missing benchmark rows"
			fails++
		} else {
			if (mk[h] >= mk[u]) {
				printf "GATE FAIL: hardqueue makespan %d did not beat unscheduled %d\n", mk[h], mk[u]
				fails++
			}
			if (vm[e] != 1 || vm[h] != 1) {
				printf "GATE FAIL: scheduling changed verdicts (easyfirst %d, hardqueue %d)\n", vm[e], vm[h]
				fails++
			}
			if (ge[e] != ge[u]) {
				printf "GATE FAIL: easyfirst charged %d gate-evals, baseline %d (pure reordering must be exact)\n", ge[e], ge[u]
				fails++
			}
			if (ge[h] > ge[u]) {
				printf "GATE FAIL: hardqueue charged %d gate-evals, baseline %d\n", ge[h], ge[u]
				fails++
			}
			if (sp[u] <= 0) {
				printf "GATE FAIL: spearman x1000 = %d, predictor anti-correlates with real effort\n", sp[u]
				fails++
			}
		}
		if (fails) exit 1
		printf "GATE OK: makespan %.2fx, p50 latency %.2fx, %d evals saved, spearman %.2f\n", \
			makespan_speedup, p50_speedup, evals_saved, spearman
	}
}'

echo "wrote BENCH_sched.json"
