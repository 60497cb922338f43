#!/usr/bin/env bash
# Tier-1 verification gate: formatting, vet, build, and the full test suite
# under the race detector. CI and pre-merge checks run exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race (serving concurrency gate) =="
# The sharded cloud store, the fusion accumulator, and the eco-routing
# engine (atomic snapshot swap + CCH weight cache) are the packages with real
# lock hierarchies; run them first, uncached, so a data race there fails
# fast with a focused report.
go test -race -count=1 ./internal/cloud/... ./internal/fusion/... ./internal/ecoroute/...

echo "== go test -race (write coalescer gate) =="
# The batched-ingest coalescer interleaves enqueue, per-shard folding, and
# Close-time draining; hammer exactly those tests uncached so a regression
# in the shutdown or idempotency interleavings fails with a focused report.
go test -race -count=2 -run 'TestCoalescer|TestKeyRingConcurrent|TestBatched' ./internal/cloud

echo "== go test -race (robust fusion / device trust gate) =="
# The trust-weighted fusion path threads per-device state (reputation, bias)
# through the submit door, the batch codec, and the coalescer fold under a
# road-lock -> device-lock hierarchy; run the robust/device tests uncached so
# a determinism or locking regression fails with a focused report.
go test -race -count=1 -run 'TestRobust|TestDevice' ./internal/fusion ./internal/cloud

echo "== go test -race (contraction / customization gate) =="
# The CCH splits work across one-time contraction, per-metric customization
# (copy-on-write weight tables with refcounted recycling behind cchWMu), and
# lock-free query reads; the road CSR build feeds the node ordering. Run the
# CCH and determinism tests uncached and concurrently so a torn weight table
# or a non-deterministic ordering fails with a focused report.
go test -race -count=1 -run 'TestCCH|TestMatrixCtx|Deterministic|TestNetworkCSR' ./internal/ecoroute ./internal/road

echo "== go test -race (observability gate) =="
# The tracer ring, the tail-sampling trace store (late-span merge, linked-in
# fold spans), the SLO engine, and the traced ingest path (traceparent
# propagation across client retries and the coalescer queue) all run under
# concurrent submitters; run them uncached so a race or a lost span fails
# with a focused report.
go test -race -count=1 ./internal/obs/...
go test -race -count=2 -run 'TestTrace|TestSLO|TestExemplar|TestExposition|TestHealthz' ./internal/obs ./internal/cloud ./cmd/cloudfuse

echo "== go test -race (emission / pollutant routing gate) =="
# The emission path spans the opMode bin tables, the lazily built per-bucket
# pollutant cost rows inside the routing snapshot (sync.Once + atomic flag
# under concurrent queries), and the generation-keyed city-table cache on the
# cloud server; run those tests uncached so a torn row build, a stale table
# generation, or a Dijkstra/CCH pollutant-route mismatch fails with a
# focused report.
go test -race -count=1 -run 'TestOpMode|TestTripEmissions|TestEmission|TestRate|TestPollutant|TestPlanEmissions|TestMinNOx|TestObjective' \
    ./internal/emission ./internal/fuel ./internal/ecoroute ./internal/cloud

echo "== go test (fixed-size estimator gate) =="
# The EKF and the LOESS normal equations run on fixed-size stack arrays. The
# pinned-bits tests hold the estimator outputs to recorded SHA-256 digests of
# their Float64bits (batch, streaming, altitude baseline, lane-change
# smoothing), and the allocation tests hold a filter step to zero heap
# allocations and Smooth to its output slice; run them uncached so a changed
# operation order or an escaping array fails with a focused report.
go test -count=1 -run 'TestPinnedBits|Allocations' \
    ./internal/kalman ./internal/core ./internal/smoothing ./internal/baseline

echo "== go test -race =="
go test -race ./...

echo "verify: OK"
