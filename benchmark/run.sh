#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build directory
# and runs it from the checkout root. Everything the build writes (binary and
# Go build cache) stays inside the checkout; nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOTOOLCHAIN=local GOPROXY=off
# Temporary files too: the compiler's work directory, and the Dist backend's
# run directories with their sockets and ring segments. The compiler wants an
# absolute path; the benchmark gets a relative one, so that a Unix socket
# under it fits sun_path however long the checkout's own path is (worker
# processes inherit the working directory).
mkdir -p .bench_build/tmp
TMPDIR="$root/.bench_build/tmp" go build -C benchmark -o ../.bench_build/trambench .
TMPDIR=.bench_build/tmp exec .bench_build/trambench "$@"
