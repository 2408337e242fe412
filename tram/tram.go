// Package tram is the public face of this repository's TramLib reproduction:
// a shared memory-aware, latency-sensitive message aggregation library for
// fine-grained communication (Chandrasekar & Kale, SC 2024), with one typed
// API over three interchangeable execution backends.
//
// An application is written once against three small pieces:
//
//   - Config — topology, aggregation scheme, buffer sizing, flush policy,
//     and (for the simulated backend) the §III-C cost model.
//   - Lib[T] — the typed item surface: Insert(ctx, dest, item) submits an
//     item for aggregated delivery, Flush(ctx) force-seals the caller's
//     buffers. Items are packed into 64-bit words by a fixed-size Codec.
//   - App[T] — the kernel: Deliver runs at each item's destination worker,
//     Spawn assigns each worker its generation loop.
//
// The same App then runs on any backend:
//
//   - Sim executes on the deterministic discrete-event simulator
//     (internal/charm + internal/sim): virtual-time metrics, bit-identical
//     across runs and hosts, modelling a multi-node SMP cluster.
//   - Real executes on actual goroutines over the lock-free shared-memory
//     buffers (internal/rt + internal/shmem): wall-clock metrics measured on
//     the host, every "process" of the topology in one address space.
//   - Dist runs each ProcID as a real OS process (internal/dist +
//     internal/wire): the binary re-executes itself once per process (or,
//     with Config.Dist.Hosts, workers launch over SSH on other machines),
//     intra-process traffic keeps the shared-memory buffers, and
//     process-crossing batches are length-prefix framed onto a mesh of
//     peer links — Unix-domain sockets, mmap'd shared-memory rings, or TCP
//     streams, per Config.Dist.Transport. Because worker processes are
//     fresh executions, Dist apps are registered by name (RegisterDist) and
//     rebuilt from serialized parameters — call Main first thing in main —
//     and application results come back as per-process reports
//     (Metrics.Reports). See ARCHITECTURE.md for the seams and
//     docs/DEPLOY.md for multi-machine deployment and the failure model.
//
// Every backend hands kernels the same Ctx interface (Self / Proc / Send /
// Contribute / Flush, plus Charge / Now / Post for cost modelling and local
// scheduling), so the sim-vs-real comparison behind the paper's cost-model
// calibration — and the one-address-space vs real-process-boundary
// comparison behind its shared-memory argument — is a one-line backend
// swap. The conformance suite (conformance_test.go) holds all three to
// backend-independent results on every scheme.
//
// # Aggregation schemes
//
// Scheme selects the paper's §III-B buffer wiring, identical across
// backends:
//
//	Direct  no aggregation; every item is its own message (baseline).
//	WW      one buffer per (source worker, destination worker). SMP-unaware.
//	WPs     one buffer per (source worker, destination process); items are
//	        grouped by destination worker at the receiving process.
//	WsP     like WPs, but grouped at the source before sending.
//	PP      one buffer per destination process shared by all workers of the
//	        source process, filled with atomics.
//
// # Zero-alloc invariant
//
// The Lib[T] hot path adds no allocations over the underlying runtime:
// Encode/Decode pack items into machine words, and each worker's Ctx is
// built once and bound to its runtime context before the run — no item or
// handler entry rebinds it — so inserting and delivering through the public
// API is allocation-free in steady state, the same pooling discipline
// internal/core and internal/rt maintain. Under the identity codec (U64) the
// backends call Deliver with no decode step in between. Two tests hold it:
// the same insert stream through Lib[uint64] on Sim and against
// internal/core directly must cost the same mallocs per simulator event
// (TestWrapperAllocParityWithCore), and the same histogram flood through
// Lib[uint64] on Real and against internal/rt directly the same mallocs per
// item (TestRealWrapperAllocParityWithRT).
package tram

import (
	"tramlib/internal/cluster"
	"tramlib/internal/core"
	"tramlib/internal/netsim"
	"tramlib/internal/stats"
)

// Scheme selects the aggregation strategy (see the package comment).
type Scheme = core.Scheme

// The aggregation schemes of the paper's §III-B, plus the no-aggregation
// baseline.
const (
	Direct = core.Direct
	WW     = core.WW
	WPs    = core.WPs
	WsP    = core.WsP
	PP     = core.PP
)

// Schemes returns the canonical enumeration of every scheme, Direct first.
// Schemes()[1:] is the aggregating subset. Sweep loops and CLI listings
// should iterate this so adding a scheme is a one-place change.
func Schemes() []Scheme { return core.Schemes() }

// ParseScheme converts a scheme name (as printed by Scheme.String) back to a
// Scheme.
func ParseScheme(name string) (Scheme, error) { return core.ParseScheme(name) }

// WorkerID identifies a worker PE globally (0 .. Topology.TotalWorkers()-1).
type WorkerID = cluster.WorkerID

// ProcID identifies an OS process globally (0 .. Topology.TotalProcs()-1).
type ProcID = cluster.ProcID

// Topology describes the rectangular SMP cluster an application runs on:
// physical nodes × processes per node × worker PEs per process.
type Topology = cluster.Topology

// SMP returns the conventional SMP topology (the paper's evaluation platform
// runs 8 processes of 8 workers per node).
func SMP(nodes, procsPerNode, workersPerProc int) Topology {
	return cluster.SMP(nodes, procsPerNode, workersPerProc)
}

// NonSMP returns the MPI-everywhere topology: one worker per process.
func NonSMP(nodes, workersPerNode int) Topology { return cluster.NonSMP(nodes, workersPerNode) }

// NetParams is the simulated backend's alpha-beta network and comm-thread
// calibration.
type NetParams = netsim.Params

// DefaultNetParams returns the Delta-like network calibration the paper's
// figures are reproduced with.
func DefaultNetParams() NetParams { return netsim.DefaultParams() }

// CostParams models the per-operation virtual costs of §III-C charged by the
// simulated backend.
type CostParams = core.CostParams

// DefaultCosts returns the calibrated §III-C cost parameters.
func DefaultCosts() CostParams { return core.DefaultCosts() }

// Hist is a log-bucketed latency histogram (see Metrics.Latency).
type Hist = stats.Hist

// NewHist returns an empty histogram (use this, not the zero value, so Min
// reports correctly).
func NewHist() *Hist { return stats.NewHist() }
