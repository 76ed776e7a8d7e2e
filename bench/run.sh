#!/usr/bin/env bash
# Launcher of the play benchmark: builds bench/ (a module of its own that
# imports the repository's packages through a replace directive) into
# .bench_build/ inside the checkout and runs it from the checkout root.
# Every cache and temporary file stays under .bench_build/, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# The replace directive points at the parent directory; without the
# repository around it there is nothing to build, and that is an error.
if [ ! -f "$root/go.mod" ]; then
	echo "bench: $root/go.mod not found: the benchmark builds the repository it sits in" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go -C "$root/bench" build -o "$build/playbench" .
exec "$build/playbench" "$@"
