#!/usr/bin/env bash
# Builds perfbench from the checkout's source and runs it with the given
# arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload sim-flat-allreduce --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and trace files stay under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
