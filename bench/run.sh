#!/usr/bin/env bash
# Builds and runs the repository benchmark (see bench/README.md). Flags pass
# through to the driver, for example:
#
#   bash bench/run.sh -workload quote-fresh -seed 1
#   bash bench/run.sh -seed 1 -repeat 3 -o results.json
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/ at the repository root: the build cache, temporary files,
# the built programs and each run's scratch directory.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
state="$root/.bench_build"
mkdir -p "$state/tmp" "$state/home"
export GOCACHE="$state/gocache" GOPATH="$state/gopath" GOTMPDIR="$state/tmp" TMPDIR="$state/tmp" \
	HOME="$state/home" XDG_CONFIG_HOME="$state/home/.config" XDG_CACHE_HOME="$state/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/bench" build -o "$state/bin/bench" .
exec "$state/bin/bench" -root "$root" "$@"
