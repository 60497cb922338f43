#!/bin/sh
# Guard rail that instrumentation (or any other change) stayed off the hot
# paths: rerun the PR 1 benchmark family (pipeline experiments + geo), the
# PR 4 serving family (sharded cloud store vs legacy), and the PR 5
# eco-routing family (warm/cold queries, invalidation, /v1/route) and fail
# if any benchmark regresses more than its tolerance vs the committed
# baselines.
#
# Usage: scripts/bench_check.sh [pr1.json] [pr4.json] [pr5.json] [pr6.json] [pr7.json] [pr8.json] [pr9.json] [pr10.json]
#   BENCH_TOLERANCE_PCT           allowed ns/op regression for the PR 1
#                                 family (default 10)
#   BENCH_SERVING_TOLERANCE_PCT   allowed ns/op regression for the serving
#                                 family; parallel mixed-load benchmarks are
#                                 noisier, so the default is looser (30)
#   BENCH_ECOROUTE_TOLERANCE_PCT  allowed ns/op regression for the
#                                 eco-routing family; the cold-query and
#                                 invalidation benches re-integrate fuel
#                                 costs over the whole network per op, so
#                                 the default is looser (30)
#   BENCH_INGEST_TOLERANCE_PCT    allowed ns/op regression for the ingest
#                                 family (PR 6: batched submits, wire
#                                 decode); end-to-end HTTP benches are
#                                 noisy, so the default is looser (30)
#   BENCH_FUSION_TOLERANCE_PCT    allowed ns/op regression for the fusion
#                                 accumulator family (PR 7: naive vs robust
#                                 Add); the loops churn a fresh window slice
#                                 per op and are cache-sensitive, so the
#                                 default is looser (30)
#   BENCH_OBS_TOLERANCE_PCT       allowed ns/op regression for the traced
#                                 ingest family (PR 8: tracing off / 1% /
#                                 full); end-to-end HTTP benches are noisy,
#                                 so the default is looser (30)
#   OBS_OVERHEAD_PCT              allowed TracedIngestFull overhead over
#                                 TracedIngestOff in the fresh measurement —
#                                 the PR 8 acceptance bar (default 5)
#   BENCH_ROUTESCALE_TOLERANCE_PCT  allowed ns/op regression for the
#                                 routescale family (PR 9: CCH at
#                                 1×/10×/100× scale); the 100× fixtures and
#                                 matrix benches are long-running and
#                                 cache-sensitive, so the default is the
#                                 loosest (40)
#   ROUTESCALE_P95_NS             CCH warm point-query p95 budget on the
#                                 100× (country-scale) graph — the PR 9
#                                 sub-millisecond acceptance bar
#                                 (default 1000000)
#   CUSTOMIZE_SPEEDUP_MIN         required full/incremental customization
#                                 ns/op ratio after a one-road tick on the
#                                 100× graph — the PR 9 ≥5× claim
#                                 (default 5)
#   BENCH_EMISSION_TOLERANCE_PCT  allowed ns/op regression for the emission
#                                 family (PR 10: city-table full build /
#                                 one-road incremental / warm cache hit, plus
#                                 pollutant-objective routing); the builds
#                                 integrate four pollutants over every 5 m
#                                 cell of the 164.8 km network per op, so the
#                                 default is looser (30)
#   EMISSION_ROUTE_P95_NS         warm pollutant-objective (min-NOx) point-
#                                 query p95 budget — pollutant objectives
#                                 must stay under the same 1 ms serving bar
#                                 as the fuel objective (default 1000000)
#   BENCH_COUNT                   runs per benchmark; the best run is
#                                 compared, which filters scheduler noise
#                                 (default 3)
set -eu

cd "$(dirname "$0")/.."
baseline1="${1:-BENCH_PR1.json}"
baseline4="${2:-BENCH_PR4.json}"
baseline5="${3:-BENCH_PR5.json}"
baseline6="${4:-BENCH_PR6.json}"
baseline7="${5:-BENCH_PR7.json}"
baseline8="${6:-BENCH_PR8.json}"
baseline9="${7:-BENCH_PR9.json}"
baseline10="${8:-BENCH_PR10.json}"
tol1="${BENCH_TOLERANCE_PCT:-10}"
tol4="${BENCH_SERVING_TOLERANCE_PCT:-30}"
tol5="${BENCH_ECOROUTE_TOLERANCE_PCT:-30}"
tol6="${BENCH_INGEST_TOLERANCE_PCT:-30}"
tol7="${BENCH_FUSION_TOLERANCE_PCT:-30}"
tol8="${BENCH_OBS_TOLERANCE_PCT:-30}"
overhead8="${OBS_OVERHEAD_PCT:-5}"
tol9="${BENCH_ROUTESCALE_TOLERANCE_PCT:-40}"
p95bar9="${ROUTESCALE_P95_NS:-1000000}"
custspeedup9="${CUSTOMIZE_SPEEDUP_MIN:-5}"
tol10="${BENCH_EMISSION_TOLERANCE_PCT:-30}"
p95bar10="${EMISSION_ROUTE_P95_NS:-1000000}"
count="${BENCH_COUNT:-3}"

for b in "$baseline1" "$baseline4" "$baseline5" "$baseline6" "$baseline7" "$baseline8" "$baseline9" "$baseline10"; do
    if [ ! -f "$b" ]; then
        echo "bench_check: baseline $b not found" >&2
        exit 1
    fi
done

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# compare measured-output-file baseline tolerance: compares the best
# (minimum) measured ns/op per benchmark against the baseline's ns/op.
compare() {
    awk -v tol="$3" -v baseline="$2" '
    BEGIN {
        # Parse the baseline JSON (the simple one-object-per-line form
        # bench.sh writes): pull "name" and "ns_per_op" pairs.
        while ((getline line < baseline) > 0) {
            if (match(line, /"name": "[^"]+"/)) {
                name = substr(line, RSTART + 9, RLENGTH - 10)
                if (match(line, /"ns_per_op": [0-9.e+]+/)) {
                    base[name] = substr(line, RSTART + 13, RLENGTH - 13) + 0
                }
            }
        }
        close(baseline)
    }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op") {
                ns = $(i - 1) + 0
                if (!(name in best) || ns < best[name]) best[name] = ns
            }
        }
    }
    END {
        fail = 0
        checked = 0
        for (name in base) {
            if (!(name in best)) {
                printf "bench_check: MISSING  %-28s (in baseline, not measured)\n", name
                fail = 1
                continue
            }
            checked++
            delta = (best[name] - base[name]) * 100 / base[name]
            status = "ok"
            if (delta > tol) { status = "REGRESSED"; fail = 1 }
            printf "bench_check: %-9s %-28s base %14.0f ns/op, now %14.0f ns/op (%+.1f%%)\n", \
                status, name, base[name], best[name], delta
        }
        if (checked == 0) {
            print "bench_check: no benchmarks compared" > "/dev/stderr"
            fail = 1
        }
        if (fail) {
            printf "bench_check: FAIL (tolerance %s%%)\n", tol
            exit 1
        }
        printf "bench_check: OK (%d benchmarks within %s%%)\n", checked, tol
    }
    ' "$1"
}

go test -run '^$' -bench 'BenchmarkFigure(9a|9b|10a|10b)' -benchmem -benchtime=1x -count="$count" . >"$tmp"
go test -run '^$' -bench 'BenchmarkClosestS' -benchmem -count="$count" ./internal/geo >>"$tmp"
compare "$tmp" "$baseline1" "$tol1"

go test -run '^$' -bench 'BenchmarkServer|BenchmarkHandleFused' -benchmem -count="$count" ./internal/cloud >"$tmp"
compare "$tmp" "$baseline4" "$tol4"

go test -run '^$' -bench 'BenchmarkEcoRoute' -benchmem -count="$count" ./internal/ecoroute ./internal/cloud >"$tmp"
compare "$tmp" "$baseline5" "$tol5"

go test -run '^$' -bench 'BenchmarkIngest' -benchmem -count="$count" ./internal/cloud >"$tmp"
compare "$tmp" "$baseline6" "$tol6"

go test -run '^$' -bench 'BenchmarkFusionAccAdd' -benchmem -count="$count" ./internal/fusion >"$tmp"
compare "$tmp" "$baseline7" "$tol7"

# The traced-ingest family measures a single-digit-percent effect, smaller
# than the slow wall-clock drift of a shared machine; sequential -count runs
# (all Off, then all Full, minutes apart) alias that drift into the Off/Full
# ratio. Interleave the configs round-robin at a fixed iteration count and
# compare the per-benchmark median round.
obsdir="$(mktemp -d)"
trap 'rm -f "$tmp"; rm -rf "$obsdir"' EXIT
go test -c -o "$obsdir/cloud.test" ./internal/cloud
: >"$obsdir/raw.txt"
round=0
while [ "$round" -lt "$count" ]; do
    for b in Off Sampled Full; do
        "$obsdir/cloud.test" -test.run '^$' -test.bench "BenchmarkTracedIngest${b}\$" \
            -test.benchmem -test.benchtime=40000x | grep '^Benchmark' >>"$obsdir/raw.txt"
    done
    round=$((round + 1))
done
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
' "$obsdir/raw.txt" >"$tmp"
compare "$tmp" "$baseline8" "$tol8"
# The PR 8 acceptance bar: in the medians just measured, the fully sampled
# path must stay within OBS_OVERHEAD_PCT of the tracing-off baseline.
awk -v tol="$overhead8" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op") {
            ns = $(i - 1) + 0
            if (!(name in best) || ns < best[name]) best[name] = ns
        }
    }
}
END {
    off = best["BenchmarkTracedIngestOff"]
    full = best["BenchmarkTracedIngestFull"]
    if (off == 0 || full == 0) {
        print "bench_check: traced-ingest overhead gate: benchmarks missing" > "/dev/stderr"
        exit 1
    }
    overhead = (full - off) * 100 / off
    printf "bench_check: traced-ingest overhead: off %.0f ns/op, full %.0f ns/op (%+.1f%%, bar %s%%)\n", \
        off, full, overhead, tol
    if (overhead > tol) {
        print "bench_check: FAIL (full tracing overhead above the bar)"
        exit 1
    }
    print "bench_check: OK (observability overhead within the bar)"
}
' "$tmp"

# The routescale family (PR 9): regression check against the baseline, then
# the two country-scale acceptance bars measured fresh — CCH p95 under a
# millisecond on the 100× graph, and incremental re-customization at least
# CUSTOMIZE_SPEEDUP_MIN times cheaper than a full pass.
go test -run '^$' -bench 'BenchmarkRouteScale' -benchmem -timeout 30m -count="$count" ./internal/ecoroute ./internal/road >"$tmp"
compare "$tmp" "$baseline9" "$tol9"
awk -v p95bar="$p95bar9" -v cmin="$custspeedup9" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op") {
            ns = $(i - 1) + 0
            if (!(name in best) || ns < best[name]) best[name] = ns
        }
        if ($(i) == "p95-ns") {
            p = $(i - 1) + 0
            if (!(name in p95) || p < p95[name]) p95[name] = p
        }
    }
}
END {
    fail = 0
    cchP95 = p95["BenchmarkRouteScaleCCHQuery100x"]
    full = best["BenchmarkRouteScaleCCHCustomizeFull100x"]
    incr = best["BenchmarkRouteScaleCCHRecustomizeTick100x"]
    if (cchP95 == 0 || full == 0 || incr == 0) {
        print "bench_check: routescale gates: benchmarks missing" > "/dev/stderr"
        exit 1
    }
    printf "bench_check: routescale CCH 100x p95 %.0f ns (bar %s ns)\n", cchP95, p95bar
    if (cchP95 > p95bar) { print "bench_check: FAIL (country-scale p95 above the bar)"; fail = 1 }
    printf "bench_check: routescale full/incremental customization %.1fx (bar %sx)\n", full / incr, cmin
    if (full / incr < cmin) { print "bench_check: FAIL (incremental customization speedup below the bar)"; fail = 1 }
    if (fail) exit 1
    print "bench_check: OK (routescale acceptance bars hold)"
}
' "$tmp"

# The emission family (PR 10): regression check against the baseline, then
# two acceptance bars read from the same fresh run — the full city-table
# build must stay within tolerance of the committed baseline (checked by
# compare above), and warm pollutant-objective routing must keep its query
# p95 under the existing 1 ms serving bar.
go test -run '^$' -bench 'BenchmarkEmission' -benchmem -count="$count" ./internal/cloud ./internal/ecoroute >"$tmp"
compare "$tmp" "$baseline10" "$tol10"
awk -v p95bar="$p95bar10" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) {
        if ($(i) == "p95-ns") {
            p = $(i - 1) + 0
            if (!(name in p95) || p < p95[name]) p95[name] = p
        }
    }
}
END {
    q = p95["BenchmarkEmissionRouteQuery"]
    if (q == 0) {
        print "bench_check: emission routing p95 gate: benchmark missing" > "/dev/stderr"
        exit 1
    }
    printf "bench_check: emission (min-NOx) routing p95 %.0f ns (bar %s ns)\n", q, p95bar
    if (q > p95bar) {
        print "bench_check: FAIL (pollutant-objective query p95 above the bar)"
        exit 1
    }
    print "bench_check: OK (pollutant routing holds the serving bar)"
}
' "$tmp"
