#!/bin/sh
# Runs the fault-simulation kernel benchmarks and records the results
# in BENCH_fsim.json at the repo root, so kernel perf changes leave a
# reviewable trail next to the code.
#
#   scripts/bench_fsim.sh                 # default -benchtime=20x
#   BENCHTIME=200x scripts/bench_fsim.sh  # steadier numbers
#   BENCH_GATE=1 scripts/bench_fsim.sh    # also enforce the regression
#                                         # gate (used by CI)
#
# Besides the raw per-benchmark numbers the JSON carries derived
# ratios:
#
#   speedup_vs_seed   ParallelFaultSim (narrow serial headline) against
#                     the seed kernel's recorded 5046183 ns/pass on the
#                     reference container — >1 means faster than the
#                     kernel this PR replaced. Only meaningful on
#                     comparable hardware; cross-machine it is noise.
#   speedup_w8        Workers/w1 over Workers/w8 wall time — the real
#                     parallel speedup on this host. Bounded by the
#                     host's core count: 1.0 on a single-CPU container.
#   active_vs_obliv   oblivious over active — how much the event-driven
#                     active region saves over full per-frame sweeps.
#
# The gate intentionally checks hardware-independent *relative* ratios,
# not absolute times:
#   - w8 must not be slower than 1.5x w1 (worker fan-out must never add
#     overhead; the seed's flat scaling bug would trip this on any
#     multi-core host and a dispatch-overhead regression trips it
#     everywhere);
#   - active must beat oblivious (the active-region machinery must pay
#     for itself).
#
# The JSON also records the host: "cpus" (online processors) and
# "gomaxprocs" (the -N suffix go test put on the benchmark names), so
# the worker rows can be read against the parallelism they really had.
set -eu
cd "$(dirname "$0")/.."

seed_baseline_ns=5046183

out=$(go test -run='^$' -bench=. -benchtime="${BENCHTIME:-20x}" ./internal/fault/)
printf '%s\n' "$out"

printf '%s\n' "$out" | awk \
	-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-v gover="$(go env GOVERSION)" \
	-v cpus="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" \
	-v seed="$seed_baseline_ns" \
	-v gate="${BENCH_GATE:-0}" '
/^Benchmark/ {
	name = $1
	if (gomaxprocs == "") gomaxprocs = match(name, /-[0-9]+$/) ? substr(name, RSTART + 1) : 1
	sub(/-[0-9]+$/, "", name)
	sub(/^Benchmark/, "", name)
	metrics = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		if (metrics != "") metrics = metrics ", "
		metrics = metrics "\"" $(i + 1) "\": " $i
	}
	rec[n++] = "    {\"name\": \"" name "\", \"iterations\": " $2 ", " metrics "}"
	ns[name] = $3
}
function ratio(a, b) { return (a in ns && b in ns && ns[b] > 0) ? ns[a] / ns[b] : 0 }
END {
	speedup_vs_seed = ("ParallelFaultSim" in ns && ns["ParallelFaultSim"] > 0) ? seed / ns["ParallelFaultSim"] : 0
	speedup_w8 = ratio("ParallelFaultSimWorkers/w1", "ParallelFaultSimWorkers/w8")
	active_vs_obliv = ratio("ActiveRegionVsOblivious/oblivious", "ActiveRegionVsOblivious/active")
	print "{" > "BENCH_fsim.json"
	print "  \"generated\": \"" date "\"," > "BENCH_fsim.json"
	print "  \"go\": \"" gover "\"," > "BENCH_fsim.json"
	print "  \"cpus\": " cpus "," > "BENCH_fsim.json"
	print "  \"gomaxprocs\": " (gomaxprocs == "" ? 0 : gomaxprocs) "," > "BENCH_fsim.json"
	print "  \"seed_baseline_ns\": " seed "," > "BENCH_fsim.json"
	printf "  \"derived\": {\"speedup_vs_seed\": %.3f, \"speedup_w8\": %.3f, \"active_vs_obliv\": %.3f},\n", \
		speedup_vs_seed, speedup_w8, active_vs_obliv > "BENCH_fsim.json"
	print "  \"benchmarks\": [" > "BENCH_fsim.json"
	for (i = 0; i < n; i++) print rec[i] (i < n - 1 ? "," : "") > "BENCH_fsim.json"
	print "  ]" > "BENCH_fsim.json"
	print "}" > "BENCH_fsim.json"
	if (gate + 0) {
		fails = 0
		if (speedup_w8 > 0 && speedup_w8 < 1 / 1.5) {
			printf "GATE FAIL: w8 is %.2fx slower than w1 (limit 1.5x)\n", 1 / speedup_w8
			fails++
		}
		if (active_vs_obliv > 0 && active_vs_obliv < 1.0) {
			printf "GATE FAIL: active-region kernel slower than oblivious (%.2fx)\n", 1 / active_vs_obliv
			fails++
		}
		if (fails) exit 1
		printf "GATE OK: speedup_w8 %.2f, active/oblivious %.2f\n", \
			speedup_w8, active_vs_obliv
	}
}'

echo "wrote BENCH_fsim.json"
