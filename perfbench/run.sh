#!/usr/bin/env bash
# Builds pcpdad, pcpscenario and the benchmark driver from the sources of
# the checkout it is run in, then runs the driver with the given
# arguments. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload update-closed --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pcpdad || ! -d cmd/pcpscenario ]]; then
	echo "perfbench: run from the root of a pcpda checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0
mkdir -p "$out/bin" "$out/tmp"
go build -o "$out/bin/" ./cmd/pcpdad ./cmd/pcpscenario
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
