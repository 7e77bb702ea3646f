#!/bin/sh
# Runs the ATPG search benchmarks and records the results in
# BENCH_atpg.json at the repo root: the per-probe window cost (full
# sweep vs event-driven incremental) and end-to-end generation on the
# original/retimed pair in incremental, oblivious (the pre-incremental
# full-sweep baseline), shared-cache and cdcl (conflict-driven search:
# learned blocking cubes + non-chronological backjumping + restarts on
# top of the shared cache) modes.
#
#   scripts/bench_atpg.sh               # default -benchtime=5x
#   BENCHTIME=20x scripts/bench_atpg.sh
#   BENCH_GATE=1 scripts/bench_atpg.sh  # also enforce the regression
#                                       # gate (used by CI)
#
# Every row records B/op and allocs/op beside its time (-benchmem).
# Besides the raw per-benchmark numbers the JSON carries derived
# ratios, all on the retimed circuit (the hard half of the pair):
#
#   incr_vs_obliv    oblivious over incremental wall time — what the
#                    event-driven window saves over full re-sweeps at
#                    byte-identical search trajectories.
#   shared_vs_incr   incremental over shared-cache wall time — the
#                    cross-fault justification cache's win.
#   cdcl_vs_shared   shared-cache over cdcl wall time — the
#                    conflict-driven stack's win on top of the cache.
#   cdcl_vs_incr     incremental over cdcl wall time — the combined
#                    cache + conflict-driven win.
#   cdcl_evals_ratio shared-cache over cdcl charged gate-evals — >1
#                    means cdcl charged less search effort for the
#                    same fault list.
#   aborted_delta    shared-cache aborted minus cdcl aborted — faults
#                    the conflict-driven search completes within the
#                    budget that the cache-only search gives up on.
#
# The gate checks hardware-independent *search-effort* invariants, not
# wall times: on both circuits the cdcl rows must charge no more gate
# evaluations than shared-cache, detect no fewer faults, and abort no
# more — learned cubes only cover refuted regions, so any violation is
# a real regression in the conflict analyzer, not noise.
#
# The JSON also records the host: "cpus" (online processors) and
# "gomaxprocs" (the -N suffix go test put on the benchmark names).
set -eu
cd "$(dirname "$0")/.."

out=$(go test -run='^$' -bench='BenchmarkWindow|BenchmarkSearch' -benchmem \
	-benchtime="${BENCHTIME:-5x}" ./internal/atpg/)
printf '%s\n' "$out"

printf '%s\n' "$out" | awk \
	-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-v gover="$(go env GOVERSION)" \
	-v cpus="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" \
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
		if ($(i + 1) == "ns/op") ns[name] = $i
		if ($(i + 1) == "gate-evals/op") ge[name] = $i
		if ($(i + 1) == "detected/op") det[name] = $i
		if ($(i + 1) == "aborted/op") ab[name] = $i
	}
	rec[n++] = "    {\"name\": \"" name "\", \"iterations\": " $2 ", " metrics "}"
}
function ratio(a, b) { return (a in ns && b in ns && ns[b] > 0) ? ns[a] / ns[b] : 0 }
END {
	incr_vs_obliv = ratio("Search/retimed/oblivious", "Search/retimed/incremental")
	shared_vs_incr = ratio("Search/retimed/incremental", "Search/retimed/shared-cache")
	cdcl_vs_shared = ratio("Search/retimed/shared-cache", "Search/retimed/cdcl")
	cdcl_vs_incr = ratio("Search/retimed/incremental", "Search/retimed/cdcl")
	cdcl_evals_ratio = ("Search/retimed/cdcl" in ge && ge["Search/retimed/cdcl"] > 0) ? \
		ge["Search/retimed/shared-cache"] / ge["Search/retimed/cdcl"] : 0
	aborted_delta = ("Search/retimed/cdcl" in ab) ? \
		ab["Search/retimed/shared-cache"] - ab["Search/retimed/cdcl"] : 0
	print "{" > "BENCH_atpg.json"
	print "  \"generated\": \"" date "\"," > "BENCH_atpg.json"
	print "  \"go\": \"" gover "\"," > "BENCH_atpg.json"
	print "  \"cpus\": " cpus "," > "BENCH_atpg.json"
	print "  \"gomaxprocs\": " (gomaxprocs == "" ? 0 : gomaxprocs) "," > "BENCH_atpg.json"
	printf "  \"derived\": {\"incr_vs_obliv\": %.3f, \"shared_vs_incr\": %.3f, \"cdcl_vs_shared\": %.3f, \"cdcl_vs_incr\": %.3f, \"cdcl_evals_ratio\": %.3f, \"aborted_delta\": %.3f},\n", \
		incr_vs_obliv, shared_vs_incr, cdcl_vs_shared, cdcl_vs_incr, cdcl_evals_ratio, aborted_delta > "BENCH_atpg.json"
	print "  \"benchmarks\": [" > "BENCH_atpg.json"
	for (i = 0; i < n; i++) print rec[i] (i < n - 1 ? "," : "") > "BENCH_atpg.json"
	print "  ]" > "BENCH_atpg.json"
	print "}" > "BENCH_atpg.json"
	if (gate + 0) {
		fails = 0
		split("Search/orig Search/retimed", pre, " ")
		for (p in pre) {
			s = pre[p] "/shared-cache"; c = pre[p] "/cdcl"
			if (!(s in ge) || !(c in ge)) {
				print "GATE FAIL: missing " pre[p] " shared-cache/cdcl rows"
				fails++
				continue
			}
			if (ge[c] > ge[s]) {
				printf "GATE FAIL: %s charged %d gate-evals, shared-cache %d\n", c, ge[c], ge[s]
				fails++
			}
			if (det[c] < det[s]) {
				printf "GATE FAIL: %s detected %d faults, shared-cache %d\n", c, det[c], det[s]
				fails++
			}
			if (ab[c] > ab[s]) {
				printf "GATE FAIL: %s aborted %d faults, shared-cache %d\n", c, ab[c], ab[s]
				fails++
			}
		}
		if (fails) exit 1
		printf "GATE OK: cdcl evals ratio %.2f, aborted delta %d, cdcl/shared wall %.2fx\n", \
			cdcl_evals_ratio, aborted_delta, cdcl_vs_shared
	}
}'

echo "wrote BENCH_atpg.json"
