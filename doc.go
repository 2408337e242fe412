// Package tramlib is a Go reproduction of "Shared Memory-Aware
// Latency-Sensitive Message Aggregation for Fine-Grained Communication"
// (Chandrasekar & Kale, SC 2024; arXiv:2411.03533).
//
// Applications program against the public tram package — one typed
// aggregation API (tram.Config, tram.Lib[T] with Insert/Flush, tram.App[T]
// kernels over the tram.Ctx surface) with three interchangeable execution
// backends behind it:
//
//   - tram.Sim executes on a deterministic discrete-event model of a
//     multi-node SMP cluster (internal/charm over internal/sim, the §III-C
//     cost model in internal/core, the alpha-beta network in
//     internal/netsim) and reports bit-reproducible virtual-time metrics.
//   - tram.Real executes the identical kernel on goroutines over the
//     lock-free shared-memory buffers (internal/rt over internal/shmem) and
//     reports measured wall-clock metrics — every "process" of the topology
//     still lives in one address space.
//   - tram.Dist runs each ProcID as a real OS process: the binary
//     re-executes itself once per process (tram.RegisterDist + tram.Main),
//     intra-process traffic keeps the shared-memory buffers, and
//     process-crossing batches travel internal/transport's pluggable peer
//     mesh in internal/wire's encoding — wire-framed Unix-domain sockets;
//     or (Config.Dist.Transport "shm", for process pairs the
//     Config.Dist.Nodes grouping puts on one node) mmap'd shared-memory
//     SPSC rings (internal/transport/shmring) carrying each frame with one
//     in-place encode and zero syscalls; or (Config.Dist.Transport "tcp")
//     TCP streams with digest-checked hellos, keepalive liveness, and
//     optional deterministic injected link latency — the one kind that
//     crosses machines, with workers launched over SSH from a host file
//     (Config.Dist.Hosts, tram.ParseHostFile, internal/dist/hostfile) and
//     the control plane on TCP (Config.Dist.ListenAddr).
//     internal/dist coordinates, with a
//     Mattern-style four-counter termination detection standing in for the
//     single-process quiescence count; the quiescence protocol sits above
//     the transport seam and never learns which link carried a batch. The
//     paper's central distinction — cheap shared-memory aggregation inside
//     a node vs framed message aggregation across — is thus measured
//     against a genuine process boundary, both ways.
//
// The paper's workloads (internal/apps: histogram, index-gather, ping-ack,
// ping-pong, SSSP, PHOLD) are single-source kernels on that API; the
// benchmarks of the evaluation section are regenerated by internal/bench and
// cmd/tramlab, whose -real mode prints the simulated-vs-measured tables the
// cost-model calibration rests on and whose -backend dist mode prints the
// one-address-space vs real-process-boundary tables.
//
// The Dist backend carries a failure contract: a worker process that dies,
// wedges, or drops its control connection ends the run with a typed
// *tram.PeerFailureError naming the process and protocol phase (wrapping
// tram.ErrPeerDied / tram.ErrRunTimeout for errors.Is), within a bounded
// detection latency — heartbeats ride the quiescence probes, RunTimeout
// bounds the run phase, and teardown reaps every child and removes every
// socket and ring file. A deterministic fault-injection harness
// (internal/faultinject, armed via TRAMLIB_FAULTS) drives chaos suites in
// internal/dist and tram that hold the contract across phases, fault kinds,
// kernels, schemes, and all three peer transports.
//
// Cross-backend correctness is pinned by the conformance suite
// (tram/conformance_test.go): every application kernel, on every aggregation
// scheme, on all three backends — Dist under all three peer transports —
// must reproduce backend-independent results (serial RNG replays, response
// completeness, a Dijkstra oracle, exact event conservation), with socket,
// shm, and tcp runs element-wise identical. See README.md's testing guide
// for how to add an app to it.
//
// See README.md for the quickstart (mirrored as the godoc Example in
// tram/example_test.go), cmd/tramlab usage (including the -j parallel
// harness), and the hot-path pooling invariants. Performance is measured by
// one instrument, benchmark/run.sh against BENCHMARK.json (docs/PERF.md);
// that the public API adds zero allocations over the internal hot path is a
// tier-1 test, tram's TestWrapperAllocParityWithCore, and the simulator
// engine's allocation-free event churn is internal/sim's
// TestEngineChurnAllocs. ARCHITECTURE.md draws the layer diagram and names the
// invariants each seam carries; docs/DEPLOY.md covers multi-machine
// deployment (host files, SSH, ports, sizing) and the failure model.
package tramlib
