#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#	bash bench/run.sh --workload chaos-suite --seed 1 --seconds 25 --trace 0
#	bash bench/run.sh                 # every workload, one child process each
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the current directory, and the module proxy is off, so
# a run reads and writes nothing outside the checkout and never touches
# the network. Build output goes to stderr: the last line of stdout is the
# benchmark's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$out/sanbenchmark" .) >&2
exec "$out/sanbenchmark" "$@"
