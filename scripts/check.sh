#!/bin/sh
# Tier-1 verification: vet, build, and test (with the race detector) the
# whole module. Run via `make check` or directly.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
fmt_out="$(gofmt -l .)"
if [ -n "$fmt_out" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$fmt_out" >&2
	exit 1
fi
echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
echo "== go test -race (all packages except sim-heavy experiments)"
# experiments is single-threaded discrete-event simulation and takes ~150s
# under the race detector for zero extra coverage; it runs un-instrumented
# below instead.
go test -race $(go list ./... | grep -v 'internal/experiments$')
echo "== go test -race ./internal/audit/..."
go test -race ./internal/audit/...
echo "== go test -race ./internal/controlplane/..."
go test -race ./internal/controlplane/...
echo "== go test ./internal/experiments"
go test ./internal/experiments
echo "== stackbench tiny-scale tests (its own module, built as stackbench/run.sh builds it)"
(cd stackbench && GOFLAGS=-mod=mod GOPROXY=off go test ./...)
echo "== audit torture smoke (12 seeds, must be violation-free)"
go run ./cmd/smbench -fig torture -torture-seeds 12 -foundbugs-out "" -fail-on-bugs
echo "== solver benchmark smoke (-benchtime=1x)"
go test ./internal/solver -run '^$' -bench . -benchtime=1x
echo "== sim-kernel benchmark smoke (-benchtime=1x)"
go test . -run '^$' -bench 'ProfilerOverhead|SimScale' -benchtime=1x
echo "== kernel-bench smoke (120k-shard point vs committed BENCH_sim.json, >20% regression fails)"
go run ./cmd/smbench -fig simscale -sim-smoke -sim-baseline BENCH_sim.json -bench-sim-out ""
echo "== control-plane smoke (100k-shard point vs committed BENCH_controlplane.json, >20% regression fails)"
go run ./cmd/smbench -controlscale -controlplane-baseline BENCH_controlplane.json -bench-controlplane-out ""
echo "check: OK"
