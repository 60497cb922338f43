#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#	bash e2ebench/run.sh --workload citymap --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The build cache, the binary and the Go
# tool's own state all stay under .bench_build/, so nothing outside the
# checkout is written.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
