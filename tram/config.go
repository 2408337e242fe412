package tram

import (
	"fmt"
	"time"

	"tramlib/internal/core"
	"tramlib/internal/dist/hostfile"
	"tramlib/internal/rt"
	"tramlib/internal/sim"
	"tramlib/internal/transport/shmring"
)

// Config configures one TramLib application run: the machine, the
// aggregation scheme, buffer sizing, the flush policy, and the simulated
// backend's cost model. One Config drives both backends; fields that apply
// to only one backend are marked (the other backend ignores them).
type Config struct {
	// Topo is the cluster the application runs on. The Sim backend models
	// it over the discrete-event network; the Real backend runs one
	// goroutine per worker on the host.
	Topo Topology
	// Scheme selects the aggregation buffer wiring (§III-B). It decides, on
	// every backend alike, what a buffer is addressed to, who fills it, where
	// items are grouped, and whether same-process items bypass the buffers
	// (every scheme but WW, the SMP-unaware one) — nothing else in Config
	// overrides any of that.
	Scheme Scheme
	// BufferItems is g: the number of items a buffer holds before it is
	// sent automatically.
	BufferItems int

	// ItemBytes is m: the wire size of one item payload. Sim only.
	ItemBytes int
	// WorkerTagBytes is the per-item destination tag added on the wire by
	// the process-addressed schemes (<item, dest_w>). Sim only.
	WorkerTagBytes int
	// MsgHeaderBytes is the fixed envelope size of an aggregated message.
	// Sim only.
	MsgHeaderBytes int
	// TrackLatency records per-item insert→delivery latency into
	// Metrics.Latency. Sim only (real-clock latency is an application
	// concern: timestamp items via Ctx.Now, as the index-gather kernel
	// does).
	TrackLatency bool
	// FlushOnIdle flushes a worker's buffers whenever it goes idle. Sim
	// only: the Real backend always flushes idle workers (it is how the
	// goroutine runtime guarantees progress).
	FlushOnIdle bool
	// FlushTimeout, if positive, flushes a worker's buffers that long
	// (virtual time) after the first unflushed insert. Sim only; the
	// Real backend's latency bound is FlushDeadline.
	FlushTimeout time.Duration
	// FlushBurst, if positive, caps how many buffers a timeout flush
	// drains per firing. Sim only.
	FlushBurst int
	// Costs is the §III-C per-operation cost model. Sim only.
	Costs CostParams
	// Net is the alpha-beta network and comm-thread calibration. Sim only.
	Net NetParams

	// FlushDeadline is the paper's latency bound on the Real and Dist
	// backends: the longest an item may sit in a buffer (wall clock) before
	// the buffer's owner seals it — the worker filling it, checked once per
	// scheduler slot, with the progress goroutine behind the shared buffers of
	// parked processes. 0 disables deadline flushing. The Sim backend's
	// timeout flush is FlushTimeout.
	FlushDeadline time.Duration
	// ChunkSize is the number of generation steps (and, on the Real
	// backend, posted local tasks or delivered messages) a worker runs per
	// scheduler slot, between message drains and deadline checks.
	ChunkSize int

	// Adaptive configures per-destination adaptive aggregation on the Real
	// and Dist backends (and serve mode): a controller in the progress
	// goroutine steers each destination's effective buffer depth and flush
	// deadline from its measured arrival rate, and optionally switches
	// low-rate destinations to Direct framing. The zero value keeps the
	// static BufferItems/FlushDeadline policy; adaptation never changes what
	// a run computes, only how items batch (the conformance suite pins
	// adaptive results element-wise identical to static). Ignored by Sim.
	// See docs/TUNING.md for the knobs and the controller's feedback loops.
	Adaptive AdaptiveOptions

	// Dist configures the multi-process backend. Ignored by Sim and Real.
	Dist DistOptions

	// Serve configures Lib.Serve runs (the tramserve ingestion service).
	// Ignored by Run.
	Serve ServeOptions
}

// AdaptiveOptions configures the adaptive aggregation controller
// (Config.Adaptive). Enabled with every other field zero selects workable
// defaults derived from FlushDeadline; see the field docs on rt.Adaptive and
// docs/TUNING.md for the full policy. Requires a positive FlushDeadline when
// Enabled; a no-op under the Direct scheme (nothing aggregates).
type AdaptiveOptions = rt.Adaptive

// ServeOptions configures a long-running ingestion service (Lib.Serve): the
// client and metrics listeners, the admission window, and the drain bound.
type ServeOptions struct {
	// Listen is the client listener's TCP bind address ("127.0.0.1:0" picks
	// an ephemeral loopback port). Required to Serve.
	Listen string
	// MetricsListen, if non-empty, binds the HTTP metrics scrape endpoint.
	MetricsListen string
	// IngressCap is the per-destination-worker admission window: how many
	// client events may be in flight toward one worker before further
	// admissions block (the start of the service's end-to-end backpressure
	// chain). 0 selects the runtime default (4096).
	IngressCap int
	// DrainTimeout bounds Drain's edge-close step (final acks and ingress
	// flush). 0 selects the backend default (StartTimeout on Dist, 30s on
	// Real); the post-drain quiescence settle is bounded by Dist.RunTimeout
	// as usual.
	DrainTimeout time.Duration
}

// DistTransport selects the Dist backend's peer data plane for same-node
// process pairs (see DistOptions.Transport).
type DistTransport string

const (
	// TransportSocket frames every peer pair's batches over Unix-domain
	// stream sockets (encode + write syscall + kernel copy + read syscall).
	TransportSocket DistTransport = "socket"
	// TransportShm carries same-node pairs' batches over mmap'd
	// shared-memory SPSC rings, encoded once into the shared mapping and
	// parsed in place by the receiver. Pairs whose processes sit on
	// different nodes (per DistOptions.Nodes) still use sockets.
	TransportShm DistTransport = "shm"
	// TransportTCP frames every peer pair's batches over TCP streams
	// (TCP_NODELAY, optional keepalive, a digest-checked hello on accept).
	// The only transport that can cross machines: with DistOptions.Hosts
	// naming remote targets, workers are launched over SSH and dial each
	// other by the addresses gathered through the coordinator.
	TransportTCP DistTransport = "tcp"
)

// DistHost describes one machine of a Dist run and how many worker
// processes it hosts. Build the slice directly or parse a host file with
// ParseHostFile. Processes are assigned to hosts in slice order: the first
// host gets ProcIDs 0..Procs-1, and so on; the totals must cover the
// topology exactly.
type DistHost struct {
	// Target is the SSH destination ("node1", "deploy@10.0.0.2"), or
	// "local"/"localhost" for processes forked on the coordinator's
	// machine without SSH.
	Target string
	// Procs is how many worker processes run on this host (>= 1).
	Procs int
	// Listen, if non-empty, is the "host:port" the first worker on this
	// target binds its data listener to; subsequent workers on the same
	// target use consecutive ports (port 0 lets each pick an ephemeral
	// port, usable only when the coordinator can route to whatever
	// address the kernel reports). Empty binds 127.0.0.1:0 — local-only.
	Listen string
	// Cmd, if non-empty, overrides the worker executable path on this
	// host (remote hosts otherwise re-run the coordinator's executable
	// path verbatim, which assumes a shared filesystem layout).
	Cmd string
}

// ParseHostFile reads a host file (one host per line: a target followed by
// key=value options procs=, listen=, cmd=; '#' comments) into the slice
// DistOptions.Hosts takes. See docs/DEPLOY.md for the format and a worked
// deployment.
func ParseHostFile(path string) ([]DistHost, error) {
	hosts, err := hostfile.ParseFile(path)
	if err != nil {
		return nil, fmt.Errorf("tram: %w", err)
	}
	out := make([]DistHost, len(hosts))
	for i, h := range hosts {
		out[i] = DistHost{Target: h.Target, Procs: h.Procs, Listen: h.Listen, Cmd: h.Cmd}
	}
	return out, nil
}

// DistOptions are the Dist backend's knobs: the application registration the
// worker processes rebuild, plus transport, socket, and framing parameters.
type DistOptions struct {
	// App names the RegisterDist registration worker processes build;
	// required to run on the Dist backend.
	App string
	// Params is handed verbatim to the registered builder in every process.
	Params []byte
	// Transport selects the peer data plane: TransportSocket (also the ""
	// default), TransportShm, or TransportTCP. The transport changes how
	// bytes move, never what the run computes — the conformance suite pins
	// socket, shm, and tcp results element-wise identical.
	Transport DistTransport
	// Nodes maps each ProcID to a physical-node id, telling the coordinator
	// which process pairs may share memory: same node id selects the shm
	// ring (under TransportShm), different ids select sockets. Nil places
	// every process on one node — on the single machine the Dist backend
	// runs on, that is the truth. Must have Topo.TotalProcs() entries when
	// set.
	Nodes []int
	// RingBytes sizes each shm ring segment's data area (one segment per
	// directed same-node pair). 0 selects the 1 MiB default. A single ring
	// record is capped at half the data area, so RingBytes must be at least
	// twice the largest frame a full aggregation buffer can produce;
	// Validate enforces it against BufferItems.
	RingBytes int
	// Hierarchical enables two-level node-leader routing over Nodes: each
	// node's lowest-numbered process relays its node's cross-node traffic,
	// so the mesh keeps one star link per same-node process plus one link
	// per node pair — O(nodes²) + O(procs/node) instead of O(P²) — and
	// frames sharing a next hop travel as one bundled frame. Routing changes
	// how batches move, never what the run computes: the conformance suite
	// pins hierarchical results element-wise identical to the flat mesh.
	Hierarchical bool
	// SockDir is where the run's Unix-socket directory is created ("" uses
	// the system temp dir). Socket paths are length-limited (~100 bytes),
	// so keep it short.
	SockDir string
	// StartTimeout bounds worker spawn + handshake + final-report
	// collection (not the run itself). 0 means 30s.
	StartTimeout time.Duration
	// RunTimeout bounds the run phase (Start broadcast to proven global
	// quiescence). Past it the coordinator aborts the run and Run returns an
	// error wrapping ErrRunTimeout. It also bounds how long one worker's
	// data-plane send may block on backpressure. 0 leaves the run unbounded.
	RunTimeout time.Duration
	// HeartbeatInterval paces the coordinator's run-phase liveness checks
	// (probe replies double as heartbeats; a worker silent for four
	// intervals is declared dead). 0 means 500ms.
	HeartbeatInterval time.Duration
	// ProbeInterval paces idle quiescence-probe rounds; workers' quiet
	// hints trigger immediate rounds regardless. 0 means 250µs.
	ProbeInterval time.Duration
	// MaxFrameBytes caps frames on the worker-to-worker data sockets. 0
	// means the wire package's default (64 MiB). Must fit a full buffer of
	// items (12 bytes each plus a 20-byte frame header) when set.
	MaxFrameBytes int

	// Hosts places worker processes on machines (TransportTCP). Nil forks
	// every process locally. With any remote target, Transport must be
	// TransportTCP and ListenAddr must be set; the proc totals must cover
	// the topology exactly. See ParseHostFile and docs/DEPLOY.md.
	Hosts []DistHost
	// ListenAddr, if non-empty, binds the coordinator's control endpoint
	// on TCP at this "host:port" (port 0 for ephemeral) instead of a
	// Unix socket. Required when Hosts names remote targets — it must be
	// an address those machines can dial.
	ListenAddr string
	// KeepAlive sets the TCP keepalive probe period on peer data links,
	// turning a vanished remote machine into ErrPeerDied instead of an
	// indefinite stall. 0 keeps keepalive on at the OS default period.
	// Ignored by the socket and shm transports.
	KeepAlive time.Duration
	// LinkDelay injects a fixed receive-side delay on every TCP peer
	// frame — an in-process netem for testing latency sensitivity on one
	// machine. Requires TransportTCP when positive.
	LinkDelay time.Duration
	// LinkJitter adds a deterministic per-frame pseudo-random delay in
	// [0, LinkJitter) on top of LinkDelay (seeded per directed link, so
	// runs are reproducible). Requires TransportTCP when positive.
	LinkJitter time.Duration
}

// DefaultConfig returns the configuration the paper's main experiments use
// at the given topology and scheme: g=1024, 8-byte items, a 1 ms real-runtime
// flush deadline, and the calibrated cost model. The sim-side fields are identical to
// internal/core's DefaultConfig and the real-side fields to internal/rt's
// DefaultConfig (asserted by tests).
func DefaultConfig(topo Topology, scheme Scheme) Config {
	return Config{
		Topo:           topo,
		Scheme:         scheme,
		BufferItems:    1024,
		ItemBytes:      8,
		WorkerTagBytes: 2,
		MsgHeaderBytes: 64,
		Costs:          DefaultCosts(),
		Net:            DefaultNetParams(),
		FlushDeadline:  time.Millisecond,
		ChunkSize:      256,
	}
}

// simConfig projects the unified config onto the simulated library's config.
func (c Config) simConfig() core.Config {
	return core.Config{
		Scheme:         c.Scheme,
		BufferItems:    c.BufferItems,
		ItemBytes:      c.ItemBytes,
		WorkerTagBytes: c.WorkerTagBytes,
		MsgHeaderBytes: c.MsgHeaderBytes,
		FlushOnIdle:    c.FlushOnIdle,
		FlushTimeout:   sim.Time(c.FlushTimeout),
		FlushBurst:     c.FlushBurst,
		TrackLatency:   c.TrackLatency,
		Costs:          c.Costs,
	}
}

// realConfig projects the unified config onto the goroutine runtime's config.
func (c Config) realConfig() rt.Config {
	return rt.Config{
		Topo:          c.Topo,
		Scheme:        c.Scheme,
		BufferItems:   c.BufferItems,
		FlushDeadline: c.FlushDeadline,
		ChunkSize:     c.ChunkSize,
		Adaptive:      c.Adaptive,
	}
}

// wireFrameOverhead is the fixed per-frame cost on the Dist data sockets
// (4-byte length prefix + 16-byte header) and itemWireBytes the worst-case
// per-item cost (a WsP runs frame degenerating to one run per item: 8-byte
// run header + 8-byte word).
const (
	wireFrameOverhead = 20
	itemWireBytes     = 16
)

// Validate reports configuration errors. A valid Config is valid for every
// backend.
func (c Config) Validate() error {
	if err := c.Topo.Validate(); err != nil {
		return fmt.Errorf("tram: %w", err)
	}
	if err := c.simConfig().Validate(); err != nil {
		return fmt.Errorf("tram: %w", err)
	}
	if err := c.realConfig().Validate(); err != nil {
		return fmt.Errorf("tram: %w", err)
	}
	if c.Dist.StartTimeout < 0 {
		return fmt.Errorf("tram: negative Dist.StartTimeout")
	}
	if c.Dist.RunTimeout < 0 {
		return fmt.Errorf("tram: negative Dist.RunTimeout")
	}
	if c.Dist.HeartbeatInterval < 0 {
		return fmt.Errorf("tram: negative Dist.HeartbeatInterval")
	}
	if c.Dist.ProbeInterval < 0 {
		return fmt.Errorf("tram: negative Dist.ProbeInterval")
	}
	if c.Dist.MaxFrameBytes < 0 {
		return fmt.Errorf("tram: negative Dist.MaxFrameBytes")
	}
	if c.Dist.MaxFrameBytes > 0 {
		need := c.BufferItems*itemWireBytes + wireFrameOverhead
		if c.Dist.Hierarchical {
			// A relayed full buffer travels inside a bundle frame, which
			// adds one more frame envelope.
			need += wireFrameOverhead
		}
		if c.Dist.MaxFrameBytes < need {
			return fmt.Errorf("tram: Dist.MaxFrameBytes %d cannot carry a full buffer of %d items (need >= %d)",
				c.Dist.MaxFrameBytes, c.BufferItems, need)
		}
	}
	switch c.Dist.Transport {
	case "", TransportSocket, TransportShm, TransportTCP:
	default:
		return fmt.Errorf("tram: unknown Dist.Transport %q (want %q, %q, or %q)",
			c.Dist.Transport, TransportSocket, TransportShm, TransportTCP)
	}
	if c.Dist.KeepAlive < 0 {
		return fmt.Errorf("tram: negative Dist.KeepAlive")
	}
	if c.Dist.LinkDelay < 0 {
		return fmt.Errorf("tram: negative Dist.LinkDelay")
	}
	if c.Dist.LinkJitter < 0 {
		return fmt.Errorf("tram: negative Dist.LinkJitter")
	}
	if (c.Dist.LinkDelay > 0 || c.Dist.LinkJitter > 0) && c.Dist.Transport != TransportTCP {
		return fmt.Errorf("tram: Dist.LinkDelay/LinkJitter inject latency on TCP links only (set Dist.Transport = %q)", TransportTCP)
	}
	if len(c.Dist.Hosts) > 0 {
		total, remote := 0, false
		for i, h := range c.Dist.Hosts {
			if h.Target == "" {
				return fmt.Errorf("tram: Dist.Hosts[%d] has no target", i)
			}
			if h.Procs < 1 {
				return fmt.Errorf("tram: Dist.Hosts[%d] (%s) has proc count %d", i, h.Target, h.Procs)
			}
			total += h.Procs
			if h.Target != "local" && h.Target != "localhost" {
				remote = true
			}
		}
		if total != c.Topo.TotalProcs() {
			return fmt.Errorf("tram: Dist.Hosts supplies %d procs for a %d-proc topology", total, c.Topo.TotalProcs())
		}
		if remote && c.Dist.Transport != TransportTCP {
			return fmt.Errorf("tram: remote Dist.Hosts require Dist.Transport = %q", TransportTCP)
		}
		if remote && c.Dist.ListenAddr == "" {
			return fmt.Errorf("tram: remote Dist.Hosts require Dist.ListenAddr (workers cannot dial a unix control socket)")
		}
	}
	if c.Dist.Nodes != nil && len(c.Dist.Nodes) != c.Topo.TotalProcs() {
		return fmt.Errorf("tram: Dist.Nodes has %d entries for %d processes",
			len(c.Dist.Nodes), c.Topo.TotalProcs())
	}
	if c.Dist.RingBytes < 0 {
		return fmt.Errorf("tram: negative Dist.RingBytes")
	}
	if c.Serve.IngressCap < 0 {
		return fmt.Errorf("tram: negative Serve.IngressCap")
	}
	if c.Serve.DrainTimeout < 0 {
		return fmt.Errorf("tram: negative Serve.DrainTimeout")
	}
	if c.Dist.Transport == TransportShm {
		ring := c.Dist.RingBytes
		if ring == 0 {
			ring = shmring.DefaultDataBytes
		}
		frame := c.BufferItems*itemWireBytes + wireFrameOverhead
		if c.Dist.Hierarchical {
			// A leader relays bundled full buffers through the same rings:
			// one more frame envelope per ring record.
			frame += wireFrameOverhead
		}
		if need := 2 * frame; ring < need {
			return fmt.Errorf("tram: Dist.RingBytes %d cannot carry a full buffer of %d items (records are capped at half the ring; need >= %d)",
				ring, c.BufferItems, need)
		}
	}
	return nil
}
