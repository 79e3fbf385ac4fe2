#!/usr/bin/env bash
# Builds cmd/aftermath and the benchmark from the checkout in the
# current directory (the repository root), then runs the benchmark with
# the given arguments, for example:
#
#   bash perfbench/run.sh --workload explore-seidel --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/aftermath ] || [ ! -f perfbench/go.mod ]; then
	echo "run.sh: run from the repository root: it needs go.mod, cmd/aftermath and perfbench" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
mkdir -p "$out/bin" "$HOME"
go build -o "$out/bin/aftermath" ./cmd/aftermath >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin/aftermath" -work "$out/work" "$@"
