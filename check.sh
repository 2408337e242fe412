#!/usr/bin/env bash
# check.sh [tier...] — the repository's gate, one tier per CI job.
# .github/workflows/ci.yml runs `./check.sh <job id>` and nothing else, so the
# commands below are the only copy. No argument means `test` (tier-1); an
# unknown tier exits 2 before anything runs. Perf is not a tier: it is
# measured by benchmark/run.sh (see docs/PERF.md).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"

tiers="test race dist chaos fuzz-smoke examples golden-figure serve docs"

# Build + unit tests, the engine benchmarks once through, and benchmark/ —
# its own module, which the root's ./... never builds
# (TestBenchmarkModuleBuilds runs the same two commands from tier-1).
tier_test() {
  out=$(gofmt -l .)
  if [ -n "$out" ]; then
    echo "gofmt needed on:"; echo "$out"; exit 1
  fi
  go vet ./...
  go build ./...
  go test ./...
  (
    cd benchmark
    export GOPROXY=off GOTOOLCHAIN=local
    go vet ./...
    go test ./...
  )
  go test ./internal/sim/ -run xxx -bench Engine -benchtime 1000x
}

# The real-concurrency layers under the race detector: the public surface,
# the lock-free buffers, the goroutine runtime, the parallel harness. The
# runtime's in-flight, lane and stage invariants, the per-worker bind
# contract and MPBuffer's run claims (PushN) then run repeatedly: their
# concurrent halves catch an ordering bug only on some interleavings.
tier_race() {
  go test -race ./tram/ ./internal/shmem/ ./internal/rt/ ./internal/bench/
  go test -race ./internal/rt/ -run 'Settle|Lane|Parks|Quiesce|Slot' -count=20
  go test -race ./tram/ ./internal/rt/ -run Bind -count=20
  go test -race ./internal/shmem/ -run PushN -count=50
}

# The multi-process backend with real subprocesses: framing, transports and
# the coordinator/worker protocol under the race detector (workers inherit
# the instrumented binary), the cross-backend conformance suite (the pattern
# also picks up TestConformanceAdaptiveMatchesStatic), and a tables smoke per
# -transport flag (tcp includes the injected-link-latency sweep).
tier_dist() {
  go build ./...
  go test -race ./internal/wire/ ./internal/transport/... ./internal/dist/
  go test ./tram/ -run 'TestConformance' -v -count=1
  go run ./cmd/tramlab -backend dist -transport socket -itemdiv 16 -quiet
  go run ./cmd/tramlab -backend dist -transport shm -itemdiv 16 -quiet
  go run ./cmd/tramlab -backend dist -transport tcp -itemdiv 16 -quiet
}

# Fault injection under the race detector; the hard -timeout turns a hang
# into a stack-dumped failure.
tier_chaos() {
  go test -race ./internal/dist/ -run 'TestPhaseKillMatrix|TestChaosMatrix|TestChaosKillLeader|TestRunTimeout|TestCleanRun' -v -count=1 -timeout 10m
  go test -race ./internal/transport/... -run 'Dead|Liveness|Deadline|Stall|Interrupt|Injection' -v -count=1 -timeout 5m
  TRAM_CHAOS=full go test -race ./tram/ -run TestChaosRotation -v -count=1 -timeout 15m
}

# Every fuzz target for a short budget on top of the checked-in seed corpora
# (-run xxx skips unit tests; go test allows one -fuzz target per invocation).
tier_fuzz_smoke() {
  go test ./internal/wire/ -run xxx -fuzz FuzzDecode -fuzztime 10s
  go test ./internal/wire/ -run xxx -fuzz FuzzFrameRoundTrip -fuzztime 10s
  go test ./internal/wire/ -run xxx -fuzz FuzzBundle -fuzztime 10s
  go test ./internal/transport/shmring/ -run xxx -fuzz FuzzSegment -fuzztime 10s
  go test ./tram/ -run xxx -fuzz FuzzU64Codec -fuzztime 10s
  go test ./tram/ -run xxx -fuzz FuzzPairCodec -fuzztime 10s
}

# The public API's runnable entry points: build every example and run each at
# a small scale on every backend it exposes.
tier_examples() {
  go build ./examples/...
  go run ./examples/quickstart -items 5000 -buffer 128
  go run ./examples/liveagg -clients 5000 -conns 8 -events 10 -procs 2 -workers 2 -backend both -transport shm
  go run ./examples/liveagg -clients 2000 -conns 8 -events 10 -procs 2 -workers 2 -backend dist -transport socket
  go run ./examples/liveagg -clients 2000 -conns 8 -events 10 -procs 2 -workers 2 -backend dist -transport tcp
  go run ./examples/sssp -scale 11 -deg 6 -backend both
  go run ./examples/sssp -scale 10 -deg 6 -backend dist
  go run ./examples/phold -events 200000 -procs 2 -backend sim
  go run ./examples/phold -events 200000 -procs 2 -backend real
  go run ./examples/phold -events 100000 -procs 2 -backend dist
}

# Determinism as a gate: the same fixed-seed figure sweep at two harness
# widths must produce byte-identical tables, and the tiny-scale tables must
# equal the committed ones (the file TestFiguresMatchGolden compares against,
# keyed by GOARCH there for the same reason as here).
tier_golden_figure() {
  go build -o tramlab ./cmd/tramlab
  ./tramlab -fig 3,9,11 -workerdiv 8 -itemdiv 8 -nodes 8 -seed 7 -quiet -j 1 > golden_j1.txt
  ./tramlab -fig 3,9,11 -workerdiv 8 -itemdiv 8 -nodes 8 -seed 7 -quiet -j 4 > golden_j4.txt
  diff -u golden_j1.txt golden_j4.txt
  golden=internal/bench/testdata/figures_tiny.golden
  arch=$(go env GOARCH)
  [ "$arch" = amd64 ] || golden=internal/bench/testdata/figures_tiny_$arch.golden
  ./tramlab -fig 3,9,11,12,18 -workerdiv 16 -itemdiv 256 -nodes 4 -seed 1 -quiet > golden_tiny.txt
  diff -u "$golden" golden_tiny.txt
}

# tramserve end to end: the serve packages and the public tram.Serve surface
# under the race detector, and a load-generator smoke whose exit status
# asserts the service contract (every event acked, drained account equal).
tier_serve() {
  go test -race ./internal/serve/ -count=1 -timeout 10m
  go test -race ./tram/ -run 'TestServe' -v -count=1 -timeout 10m
  go run ./cmd/tramload -self real -clients 20000 -conns 16 -events 10
  go run ./cmd/tramload -self dist -procs 2 -workers 4 -clients 5000 -conns 8 -events 10
}

# Docs as a gate: links, canonical names, the README's CI job list.
tier_docs() {
  go run ./cmd/doccheck
}

[ $# -gt 0 ] || set -- test
for t in "$@"; do
  case " $tiers " in
    *" $t "*) ;;
    *) echo "check.sh: unknown tier '$t' (tiers: $tiers)" >&2; exit 2 ;;
  esac
done
for t in "$@"; do
  echo "== check.sh $t"
  "tier_${t//-/_}"
done
