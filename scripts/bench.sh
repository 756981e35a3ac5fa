#!/bin/sh
# Benchmark harness: runs the Go benchmarks and records the results as a
# JSON baseline so future PRs can diff performance instead of guessing.
# Covers the analyzer suite, the BenchmarkCtxOverhead_* pairs that
# bound the context-first request path's checkpoint cost (the LiveCtx
# variant of each pair must stay within ~2% of Background), the
# fault-point fast path (BenchmarkPointDisabled must stay in the
# single-nanosecond range so disabled points cost <1% on the E1
# end-to-end figures), and the admission-control middleware
# (BenchmarkAdmissionOverhead unlimited vs maxInFlight64), the obs
# subsystem (BenchmarkCounterAddDisabled must stay ≤ ~10 ns so disarmed
# metric sites are free; BenchmarkSpanActive/SpanNoTrace bound the span
# cost on and off the traced path — together they keep the E1 end-to-end
# delta under 1%), and the compiled read path (BenchmarkPlanCacheHit vs
# Miss is the parse+plan cost the plan cache removes per request;
# BenchmarkVectorScan vs RowScan is the batch-at-a-time storage edge;
# the E1 figure reports a hit_ratio column that perf_gate.sh holds at
# ≥ 0.90, and the _NoPlanCache variant is the cached-vs-uncached A/B).
# The wire path added in PR 10 rides the same harness: the proto frame
# codecs (BenchmarkFrameEncode/Decode must stay zero-alloc — the whole
# point of the reused-buffer design) and the closed-loop load harness
# (BenchmarkLoadHarness drives the binary protocol end to end over
# loopback and reports tail latency as a p99_ns column, gated by
# max_p99_ns in the budget). BenchmarkTenantInsert/rows=1k and rows=100k
# time a single-row INSERT through the tenant catalog at two table sizes;
# their ceilings fail any return of a per-insert row-quota scan.
# Each benchmark runs BENCH_COUNT times and the minimum ns/op is
# recorded — the min is the noise-robust estimator on shared CI
# hardware, where a single pass showed ±10% swings that dwarf the effect
# being measured. RunParallel benchmarks (names ending in Parallel) run
# in their own pass with a 1s benchtime: at a fixed 100x their b.N is
# split over GOMAXPROCS goroutines and the figure measures goroutine
# start-up, not the contended operation (BenchmarkCounterAddParallel's
# 120 ns ceiling is only meaningful on multi-core hosts with enough
# iterations). Output file defaults to BENCH_PR8.json at the repo
# root; override with BENCH_OUT.
set -eu

cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-BENCH_PR8.json}"
PKGS="${BENCH_PKGS:-./internal/analysis/ ./internal/sql/ ./internal/olap/ ./internal/fault/ ./internal/obs/ ./internal/server/ ./internal/replica/ ./internal/proto/ ./internal/tenant/ ./cmd/odbis-load/}"
# The experiment hot paths the context-first refactor must not regress:
# E1 (Fig. 1 end-to-end request) and E5 (Fig. 4 per-layer overhead).
ROOT_BENCH="${BENCH_ROOT:-Figure1_|Figure4_}"
PARALLEL_BENCH='Parallel$'

echo "==> go test -bench (${PKGS} + root ${ROOT_BENCH}) -> ${OUT}"
{
	go test -bench . -skip "${PARALLEL_BENCH}" -benchmem -benchtime "${BENCH_TIME:-100x}" -count "${BENCH_COUNT:-5}" -run '^$' ${PKGS}
	go test -bench "${PARALLEL_BENCH}" -benchmem -benchtime 1s -count "${BENCH_COUNT:-5}" -run '^$' ${PKGS}
	go test -bench "${ROOT_BENCH}" -benchmem -benchtime "${BENCH_TIME:-100x}" -count "${BENCH_COUNT:-5}" -run '^$' .
} |
	awk -v out="$OUT" '
	/^Benchmark/ {
		# Drop the -GOMAXPROCS suffix go test appends on multi-core hosts
		# so names match scripts/perf_budget.json on any machine.
		name = $1; sub(/-[0-9]+$/, "", name); iters = $2; ns = $3 + 0
		bop = "null"; aop = "null"; hr = "null"; p99 = "null"
		for (i = 4; i <= NF; i++) {
			if ($i == "B/op") bop = $(i - 1)
			if ($i == "allocs/op") aop = $(i - 1)
			if ($i == "hit_ratio") hr = $(i - 1)
			if ($i == "p99_ns") p99 = $(i - 1)
		}
		if (!(name in min_ns)) { order[n++] = name }
		if (!(name in min_ns) || ns < min_ns[name]) {
			min_ns[name] = ns; best_it[name] = iters
			best_b[name] = bop; best_a[name] = aop; best_h[name] = hr
			best_p[name] = p99
		}
	}
	{ print }
	END {
		if (!n) { printf "[]\n" > out; exit 1 }
		printf "[\n" > out
		for (i = 0; i < n; i++) {
			name = order[i]
			printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"hit_ratio\": %s, \"p99_ns\": %s}%s\n", \
				name, best_it[name], min_ns[name], best_b[name], best_a[name], best_h[name], best_p[name], (i < n - 1 ? "," : "") >> out
		}
		printf "]\n" >> out
	}
	'
echo "==> wrote ${OUT}"
