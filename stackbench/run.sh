#!/usr/bin/env bash
# Builds stackbench from source and runs it with the given arguments, e.g.
#
#   bash stackbench/run.sh --workload kv-steady --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the traced run's span files live under
# .bench_build/stackbench at the checkout root, so a run reads and writes
# nothing outside the checkout but the Go toolchain. Build output goes to
# standard error; the last line of standard output is the result.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build/stackbench"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd "$bench_dir" && go build -o "$build/stackbench" .) >&2
exec "$build/stackbench" --out "$build/spans" "$@"
