#!/bin/sh
# Builds the benchmark from source and runs it, keeping every build
# artefact inside the checkout (.bench_build). Arguments go to the
# program: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
set -e
root=$(pwd)
: "${GOCACHE:=$root/.bench_build/gocache}"
GOTMPDIR=$root/.bench_build/tmp
export GOCACHE GOTMPDIR
mkdir -p "$GOTMPDIR"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
