#!/usr/bin/env bash
# Builds the flowdns daemon and the benchmark program from the checkout in the
# current directory, then runs one workload:
#
#   bash flowbench/run.sh --workload wire-paced --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout, including the Go build cache.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/flowdns ] || [ ! -f flowbench/go.mod ]; then
	echo "flowbench: run from the repository root (go.mod, cmd/flowdns and flowbench/ are missing here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp TMPDIR=$out/tmp
go build -o "$out/flowdns" ./cmd/flowdns
(cd flowbench && go build -o "$out/flowbench" .)
exec "$out/flowbench" -daemon "$out/flowdns" -workdir "$out/runs" "$@"
