#!/usr/bin/env bash
# Builds the end-to-end benchmark from source inside the checkout and
# runs it. Everything it writes (build cache, binary, run data, spans)
# goes under .bench_build/ at the checkout root.
#
#   bash e2ebench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -root "$root" "$@"
