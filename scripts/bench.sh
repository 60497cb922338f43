#!/bin/sh
# Runs the tier-1 benchmark families and writes JSON snapshots with ns/op,
# B/op and allocs/op per benchmark:
#
#   - the Figure 9/10 experiments plus the geo ClosestS micro-benchmarks
#     (PR 1 baseline),
#   - the cloud serving benchmarks — sharded store vs the pre-sharding
#     legacy path (PR 4 baseline),
#   - the eco-routing benchmarks — warm/cold query latency, invalidation
#     cost, and the warm /v1/route serving path (PR 5 baseline), and
#   - the ingest benchmarks — per-submission cost of single-JSON vs batched
#     JSON/binary submits, plus wire-batch decode (PR 6 baseline), and
#   - the fusion accumulator benchmarks — RobustAccumulator.AddDevice under
#     the naive, huber and trimmed policies on the same workload
#     (PR 7 baseline), and
#   - the traced-ingest benchmarks — the mixed ingest path with tracing off,
#     1% head-sampled, and fully sampled, interleaved round-robin and
#     reduced to per-benchmark medians; Full vs Off is the observability
#     overhead claim (PR 8 baseline), and
#   - the routescale benchmarks — CCH point queries at 1×/10×/100× the
#     paper's network, the full vs incremental customization pair, the
#     many-to-many matrix, and the road CSR-vs-map adjacency sweep
#     (PR 9 baseline; the 100× fixtures make this the slowest family), and
#   - the emission benchmarks — the city emission table (full build,
#     one-road incremental, warm cache hit) and the pollutant-objective
#     routing path (warm min-NOx queries with the p95 the acceptance bar
#     reads, plus the lazy per-bucket row build) (PR 10 baseline).
#
# Usage: scripts/bench.sh [pr1.json] [pr4.json] [pr5.json] [pr6.json] [pr7.json] [pr8.json] [pr9.json] [pr10.json]
#   (defaults BENCH_PR1.json, BENCH_PR4.json, BENCH_PR5.json, BENCH_PR6.json,
#   BENCH_PR7.json, BENCH_PR8.json, BENCH_PR9.json, BENCH_PR10.json)
set -eu

cd "$(dirname "$0")/.."
out1="${1:-BENCH_PR1.json}"
out4="${2:-BENCH_PR4.json}"
out5="${3:-BENCH_PR5.json}"
out6="${4:-BENCH_PR6.json}"
out7="${5:-BENCH_PR7.json}"
out8="${6:-BENCH_PR8.json}"
out9="${7:-BENCH_PR9.json}"
out10="${8:-BENCH_PR10.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# emit_json parses `BenchmarkName  iters  ns/op  B/op  allocs/op` lines from
# the file in $1 into a JSON array on stdout.
emit_json() {
    awk '
    BEGIN { print "[" }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
        ns = ""; bytes = ""; allocs = ""
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op")     ns = $(i-1)
            if ($(i) == "B/op")      bytes = $(i-1)
            if ($(i) == "allocs/op") allocs = $(i-1)
        }
        if (ns == "") next
        if (n++) printf ",\n"
        printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, ns
        if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
        if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
        printf "}"
    }
    END { print "\n]" }
    ' "$1"
}

# median_rounds reduces repeated `BenchmarkName ...` lines in the file in $1
# to one line per benchmark: the round whose ns/op is the median. Medians of
# interleaved rounds (rather than the best of sequential ones) keep slow
# machine drift from aliasing into cross-benchmark ratios.
median_rounds() {
    awk '
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns = ""
        for (i = 2; i <= NF; i++) if ($(i) == "ns/op") ns = $(i - 1) + 0
        if (ns == "") next
        n = cnt[name]++
        val[name, n] = ns
        line[name, n] = $0
        if (!(name in seen)) { seen[name] = ++names; byidx[names] = name }
    }
    END {
        for (k = 1; k <= names; k++) {
            name = byidx[k]
            m = cnt[name]
            for (a = 0; a < m; a++) idx[a] = a
            for (a = 0; a < m; a++)
                for (b = a + 1; b < m; b++)
                    if (val[name, idx[b]] < val[name, idx[a]]) {
                        t = idx[a]; idx[a] = idx[b]; idx[b] = t
                    }
            print line[name, idx[int(m / 2)]]
        }
    }
    ' "$1"
}

go test -run '^$' -bench 'BenchmarkFigure(9a|9b|10a|10b)' -benchmem -benchtime=1x . >"$tmp"
go test -run '^$' -bench 'BenchmarkClosestS' -benchmem ./internal/geo >>"$tmp"
emit_json "$tmp" >"$out1"
echo "wrote $out1:"
cat "$out1"

go test -run '^$' -bench 'BenchmarkServer|BenchmarkHandleFused' -benchmem ./internal/cloud >"$tmp"
emit_json "$tmp" >"$out4"
echo "wrote $out4:"
cat "$out4"

go test -run '^$' -bench 'BenchmarkEcoRoute' -benchmem ./internal/ecoroute ./internal/cloud >"$tmp"
emit_json "$tmp" >"$out5"
echo "wrote $out5:"
cat "$out5"

go test -run '^$' -bench 'BenchmarkIngest' -benchmem ./internal/cloud >"$tmp"
emit_json "$tmp" >"$out6"
echo "wrote $out6:"
cat "$out6"

go test -run '^$' -bench 'BenchmarkFusionAccAdd' -benchmem ./internal/fusion >"$tmp"
emit_json "$tmp" >"$out7"
echo "wrote $out7:"
cat "$out7"

# The traced-ingest family measures a single-digit-percent effect on
# machines whose wall clock drifts by more than that between invocations;
# sequential runs (all Off, then all Full, minutes apart) alias the drift
# into the Off/Full ratio. Build the test binary once, interleave the
# configs round-robin at a fixed iteration count, and snapshot the
# per-benchmark median round.
obsdir="$(mktemp -d)"
trap 'rm -f "$tmp"; rm -rf "$obsdir"' EXIT
go test -c -o "$obsdir/cloud.test" ./internal/cloud
: >"$tmp"
round=0
rounds="${BENCH_OBS_ROUNDS:-5}"
while [ "$round" -lt "$rounds" ]; do
    for b in Off Sampled Full; do
        "$obsdir/cloud.test" -test.run '^$' -test.bench "BenchmarkTracedIngest${b}\$" \
            -test.benchmem -test.benchtime=40000x | grep '^Benchmark' >>"$tmp"
    done
    round=$((round + 1))
done
median_rounds "$tmp" >"$obsdir/median.txt"
emit_json "$obsdir/median.txt" >"$out8"
echo "wrote $out8:"
cat "$out8"

# The routescale family builds the 10× and 100× country networks and their
# contracted hierarchies once per process, then times queries and
# customizations; the one-time fixtures dominate the wall clock, hence the
# long -timeout.
go test -run '^$' -bench 'BenchmarkRouteScale' -benchmem -timeout 30m ./internal/ecoroute ./internal/road >"$tmp"
emit_json "$tmp" >"$out9"
echo "wrote $out9:"
cat "$out9"

go test -run '^$' -bench 'BenchmarkEmission' -benchmem ./internal/cloud ./internal/ecoroute >"$tmp"
emit_json "$tmp" >"$out10"
echo "wrote $out10:"
cat "$out10"
