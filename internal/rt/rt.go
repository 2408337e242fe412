// Package rt is the real-concurrency TramLib runtime: it executes the same
// application kernels the simulator runs (histogram, index-gather, ping-ack)
// on actual goroutines communicating through the lock-free aggregation
// buffers of internal/shmem, wired as §III-B prescribes. What a scheme
// prescribes is core.Plan — the table in internal/core/plan.go, the one place
// a scheme is turned into behaviour — and New lays the buffers out from it,
// once, as a slot table indexed by the plan's route:
//
//   - a buffer is addressed to a destination worker (WW: N·t routes, bare
//     payload words) or a destination process (WPs, WsP, PP: N routes, items
//     tagged with their destination worker);
//   - it is owned by one source worker, a single-producer shmem.SPBuffer
//     only that worker's goroutine touches (WW, WPs, WsP), or shared by the
//     workers of a source process, a shmem.MPBuffer filled through the atomic
//     claim/seal protocol (PP — and, in serve mode, the ingress buffers the
//     frontend goroutines fill, which are the same type and are treated the
//     same);
//   - a process-addressed batch is grouped by destination worker where it is
//     sealed (WsP) or by a worker of the receiving process (WPs, PP), and the
//     runs are forwarded through shared memory;
//   - items for another worker of the sender's process bypass the buffers
//     under every process-addressed plan, and are buffered under WW, the
//     SMP-unaware scheme; Direct buffers nothing.
//
// A bypassing item is not sent on its own either: it joins a lane, one per
// sibling of the sender, indexed by the sibling's rank — plain memory only the
// sender touches, at most BufferItems items. The worker hands each non-empty
// lane to its sibling as one worker-addressed message when its scheduler slot
// ends (see the latency bound below) and when a lane fills. A lane has no
// deadline and is not an aggregation buffer: its posts are not counted as
// batches, and its items count as LocalDirect exactly as before.
//
// Under a shared plan (PP) an item for another process is staged the same
// way before it reaches the shared buffer: each worker keeps one stage per
// destination process, plain memory holding at most one slot's worth of
// items (ChunkSize, at most BufferItems), and pushes it with one
// MPBuffer.PushN — one claim and one fill for the whole run — when its slot
// ends and when the stage fills. The shared buffer still fills t× sooner than
// a worker's own would; what the stage saves is the per-item atomics on lines
// every sibling writes.
//
// Self items are delivered inline on every plan — mirroring core.Lib.Insert.
// The one route an owner never uses is its own (its own worker under WW, its
// own process otherwise), so that slot does not exist. Ctx.Send pushes through
// a typed view of the worker's slots that New set from the plan; everything
// else — idle and explicit flushes, deadline checks, the adaptive
// controller's seal targets and fan-in — walks the slots and is written once.
//
// Where internal/charm models time by charging virtual costs, this runtime
// measures wall-clock time; comparing the two is the sim-vs-real calibration
// the paper's cost model (§III-C) rests on. internal/bench's -real tables
// put the columns side by side.
//
// # Execution model
//
// Each simulated "process" is a group of worker goroutines. A worker runs
// its kernel in chunks (Config.ChunkSize generation steps), draining its
// inbox, running posted local tasks (Ctx.Post — the continuations of
// worklist-driven kernels), and checking the delivery deadline between
// chunks — the analogue of Charm++'s scheduler slots. When its kernel is
// exhausted the worker flushes its buffers and keeps draining deliveries and
// tasks until global quiescence.
//
// A worker is bound once, before the run: NewBound calls its BindFunc with
// the worker's Ctx — the one pointer every kernel step, delivery (self items
// included) and posted task of that worker receives — and keeps the kernel
// and delivery hook it returns. A caller that adapts Ctx to its own context
// type can therefore build that worker's adapter once, there, rather than
// look it up per item. New is the shared-hook form: one DeliverFunc for every
// worker and a SpawnFunc for the kernels, bound the same way.
//
// Quiescence mirrors charm.Runtime.Run: every inserted item is tracked in an
// in-flight counter that is decremented only after the item's DeliverFunc
// returns, so sends issued from delivery handlers (index-gather responses)
// extend the run; the runtime completes when no worker is generating and no
// item is undelivered.
//
// # Counters and in-flight accounting
//
// Ctx.Send writes nothing another goroutine writes, and performs no atomic
// operation of its own on the buffered paths. The per-item counters
// (Inserted, SelfItems, LocalDirect, DirectItems) live in each worker, on
// lines only that worker's goroutine writes: a plain tally, added to the
// worker's published counts once per kernel chunk and once per delivered
// batch. Counters and Run's Result sum the published counts over the workers
// on read (plus Metrics.Ingested/IngestedDirect, the shared pair the
// serve-mode admit path keeps because frontend goroutines are not workers),
// so a mid-run snapshot trails each running worker by at most one chunk or
// batch and is exact whenever the runtime is quiet. Everything else in
// Metrics is batch-granular.
//
// In-flight accounting is one shared counter, Runtime.inflight, touched once
// per sealed batch, once per unbuffered post and once per delivered batch. A
// worker tallies its sends (and Ctx.Post tasks) in a private unsettled count
// and settles — adds the tally to inflight — only where an item becomes
// reachable by another goroutine: in its single-producer buffers' emit
// closures, before postInline, before it pushes a stage into a shared
// MPBuffer, and before it posts a lane.
// Retiring a delivered batch and settling the sends its DeliverFuncs issued
// is a single add of (unsettled − n). The settle-before-publish invariant:
//
//   - an item is counted in inflight before any other goroutine can see it,
//     so the counter is never negative;
//   - a worker holding unsettled sends is either counted in producing or is
//     inside a handler (or posted task) whose batch is still counted;
//   - every worker settles before producing.Add(-1), and past that point its
//     handlers and posted tasks each end by settling, so it parks with
//     nothing unsettled — and, since the same points post the lanes and push
//     the stages, with every lane and stage empty.
//
// Hence producing == 0 && inflight == 0 still implies that no item exists
// anywhere, zero is reached only by a decrement (no wake-up is lost), and
// LocallyQuiet, SetQuietNotify and CrossCounts keep their meaning in
// partitioned mode. Counters().Inflight is therefore "published and
// undelivered": it excludes sends still private to a running worker, which
// is safe to exclude because that worker is itself visible in Producing or
// in the batch it is handling.
//
// # Partitioned mode
//
// Config.Part restricts a runtime to ONE process of the topology: only that
// process's workers run as goroutines, and batches addressed outside it are
// handed to a Remote transport instead of a local inbox — internal/dist
// implements Remote over internal/transport's pluggable peer links
// (wire-framed Unix sockets, or mmap'd shared-memory rings between
// same-node processes), running each ProcID as a real OS process.
// Intra-process traffic still flows through the internal/shmem buffers
// exactly as in whole-topology mode; only the cross-process legs change
// transport. The runtime is transport-agnostic by construction: Remote is
// the entire seam, so the quiescence counters, deadline ownership, and
// batch-ownership rules below hold identically whichever link kind carries
// a batch. In this mode local quiescence (no producing worker, no in-flight
// local item) is necessary but not sufficient — items may be in transit —
// so the runtime does not stop itself: it signals each local transition to
// quiet (SetQuietNotify), exposes monotone cross-process sent/received
// counters (CrossCounts) for the coordinator's distributed termination
// detection, and terminates when the coordinator calls Stop.
//
// # Latency bound
//
// The paper's §III delivery deadline (Config.FlushDeadline) is enforced, for
// every scheme, by the goroutines that own the buffers. A worker re-checks
// the buffers it fills — its own single-producer ones and its process's
// shared ones — once per scheduler slot (worker.deadlineFlush): between
// kernel chunks while it generates, and in its consume phase after every
// drained inbox chain, after every slot of posted tasks, and every ChunkSize
// messages inside a long chain. Hence the bound:
//
//   - the oldest item waits ≤ FlushDeadline + one chunk while its buffer's
//     owner runs (generation and consume phase; for a shared buffer, while
//     any worker of the process does);
//   - ≤ FlushDeadline + tick (the progress goroutine's period,
//     FlushDeadline/2) for shared buffers of parked processes;
//   - ≤ one scheduler slot of its sender for a same-process item under a
//     bypassing plan, with no deadline involved: the worker posts its lanes
//     after every kernel chunk, at the end of every delivered batch and
//     posted task (worker.finish), and in its flush (Ctx.Flush, the idle
//     flush, the flush before it leaves the generation phase). That is the
//     granularity at which a running sibling drains its inbox anyway;
//   - for a cross-process item under PP, the shared-buffer terms above plus
//     one scheduler slot of its sender: it waits in its sender's stage until
//     the same points push the stages, and its deadline starts when it
//     enters the shared buffer. Like an item in a WW, WPs or WsP sender's own
//     buffer, it cannot leave before its sender's slot ends.
//
// A staged item belongs to its sender alone, like an item in a
// single-producer buffer: the progress goroutine cannot flush an item staged
// inside a kernel step (or DeliverFunc) that never returns. It reaches the
// shared buffer when that call returns.
//
// No request path exists from the progress goroutine to a worker, and none
// is needed: a worker never parks with a non-empty owned buffer — flushing
// everything it fills (mirroring core.Config.FlushOnIdle) is the last thing
// it does before the park, and nothing but its own goroutine can put an item
// into a single-producer buffer — so an owned buffer that holds items belongs
// to a worker that is running, and a running worker could only have served a
// request at the drain point where it now checks for itself. A worker held
// inside one kernel step or DeliverFunc checks when that call returns, as a
// request would have waited for it to.
//
// The progress goroutine keeps exactly two jobs: it is the backstop for
// shared buffers, which hold items from goroutines that may all be parked,
// held inside a later kernel step, or not workers at all
// (MPBuffer.FlushIfOlder is safe from any goroutine), and it runs the
// adaptive controller's policy tick.
//
// # Pooling and batch ownership
//
// Sealed batches travel by reference, never copied on the wire: the slice a
// buffer emits is handed through the destination's inbox and ownership moves
// with it. The receiving worker returns the slice (and the message node
// wrapping it) to the runtime's pools after delivering its items; the
// buffers' SetAlloc hooks draw replacement storage from the same pools, so
// the steady-state seal/deliver cycle recycles a fixed set of arrays. Lanes
// recycle the same way through a pool of their own, sized for one scheduler
// slot (ChunkSize, at most BufferItems) rather than one buffer: a lane takes
// storage when its first item arrives, hands it over with the post, and the
// receiver returns it. A full-buffer slice per post would leave most of each
// one empty, and the bytes, not the count, of what waits in inboxes set how
// often the garbage collector runs. A stage is not handed over — PushN copies
// its items into the shared buffer's storage — so it is not pooled: each
// worker allocates it on first use, at the lane size, and reuses it.
// DeliverFunc receives scalar payloads and must not retain them — exactly
// the contract core.Lib imposes on applications.
package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tramlib/internal/cluster"
	"tramlib/internal/core"
	"tramlib/internal/shmem"
	"tramlib/internal/stats"
)

// Item is one in-flight application item: a packed payload addressed to a
// destination worker. The process-addressed schemes ship it whole (the
// paper's <item, dest_w> framing) instead of stealing payload bits.
type Item struct {
	Dest cluster.WorkerID
	Val  uint64
}

// DeliverFunc receives one item at its destination. It runs on the
// destination worker's goroutine (ctx.Self() is the destination), so
// per-worker application state indexed by ctx.Self() needs no locking.
type DeliverFunc func(ctx *Ctx, value uint64)

// KernelFunc is one generation step of a worker's kernel, called with
// step = 0 .. steps-1. It runs on the worker's goroutine.
type KernelFunc func(ctx *Ctx, step int)

// SpawnFunc assigns each worker its kernel: it returns the number of generation
// steps and the step function (nil kernel or zero steps means the worker
// only consumes). Called once per worker before the run starts.
type SpawnFunc func(w cluster.WorkerID) (steps int, kernel KernelFunc)

// BindFunc binds one worker before the run starts. ctx is the worker's
// context: every kernel step, delivery and posted task of that worker
// receives this same pointer for the whole run, so a hook may close over
// per-worker state found through it once, here. It returns the worker's
// kernel (as SpawnFunc does) and its delivery hook. Called once per local
// worker, in worker order.
type BindFunc func(ctx *Ctx) (steps int, kernel KernelFunc, deliver DeliverFunc)

// Remote is the cross-process transport of partitioned mode: sealed batches
// addressed outside the local process are flushed through it (internal/dist
// implements it by routing to internal/transport peer links — sockets or
// shared-memory rings; the runtime never knows which). Implementations
// receive ownership of every slice argument and must return the storage via
// the runtime's Recycle methods once encoded. Calls arrive from worker and
// progress goroutines concurrently and may block on backpressure (a full
// socket buffer or ring).
type Remote interface {
	// SendOne ships one unbuffered item (Direct wiring).
	SendOne(dest cluster.WorkerID, value uint64)
	// SendPayloads ships a worker-addressed batch (WW wiring).
	SendPayloads(dest cluster.WorkerID, payloads []uint64, full bool)
	// SendItems ships an ungrouped process-addressed batch (WPs, PP).
	SendItems(dest cluster.ProcID, items []Item, full bool)
	// SendRuns ships a source-grouped process-addressed batch (WsP).
	SendRuns(dest cluster.ProcID, runs []Run, full bool)
}

// Partition restricts a runtime to one process of the topology (see the
// package comment's partitioned-mode section).
type Partition struct {
	// Proc is the process this runtime hosts; only its workers run here.
	Proc cluster.ProcID
	// Remote carries batches addressed to other processes.
	Remote Remote
}

// Config parameterizes one real run.
type Config struct {
	Topo   cluster.Topology
	Scheme core.Scheme
	// BufferItems is g: items per aggregation buffer.
	BufferItems int
	// FlushDeadline is the paper's latency bound: the longest an item may
	// sit in a buffer before the buffer's owner seals it (see the package
	// comment's latency-bound section). 0 disables deadline flushing (idle
	// flushes still guarantee progress).
	FlushDeadline time.Duration
	// ChunkSize is a Charm++ scheduler slot: the number of generation steps,
	// posted tasks or delivered messages a worker runs between inbox drains
	// and deadline checks.
	ChunkSize int
	// Part, when non-nil, runs the runtime in partitioned mode: only
	// Part.Proc's workers execute locally and cross-process batches flow
	// through Part.Remote. Nil runs the whole topology in-process.
	Part *Partition
	// Serve switches the runtime to the run-forever service lifecycle: local
	// quiescence notifies (SetQuietNotify) instead of terminating the run,
	// external events enter through Ingest under bounded per-destination
	// admission (IngressCap), and only Stop ends the run — after the caller
	// has drained (see WaitQuiet). Requires FlushDeadline > 0: an open-ended
	// run has no end-of-generation flush, so the latency bound is the only
	// thing guaranteeing buffered items ever leave.
	Serve bool
	// IngressCap bounds the number of admitted-but-undelivered ingress items
	// per destination worker (serve mode only): Ingest blocks — and TryIngest
	// sheds — once a destination's ingress window is full, so a stalled
	// consumer backpressures its own clients instead of growing the inbox
	// without bound. 0 selects DefaultIngressCap.
	IngressCap int
	// Adaptive, when Enabled, activates the per-destination adaptive
	// aggregation controller (see adaptive.go): occupancy seal targets and
	// flush deadlines steered by measured arrival rates and realized flush
	// latency, plus optional Direct/buffered path selection. Results are
	// unchanged by construction — only batching boundaries and framing move.
	Adaptive Adaptive
}

// DefaultIngressCap is the per-destination-worker admission window used when
// Config.IngressCap is 0 in serve mode.
const DefaultIngressCap = 4096

// DefaultConfig returns a paper-like real-runtime configuration.
func DefaultConfig(topo cluster.Topology, scheme core.Scheme) Config {
	return Config{
		Topo:          topo,
		Scheme:        scheme,
		BufferItems:   1024,
		FlushDeadline: time.Millisecond,
		ChunkSize:     256,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Topo.Validate(); err != nil {
		return err
	}
	if c.Scheme > core.PP {
		return fmt.Errorf("rt: invalid scheme %d", c.Scheme)
	}
	if c.Scheme.Plan().Buffered && c.BufferItems <= 0 {
		return fmt.Errorf("rt: BufferItems must be positive, got %d", c.BufferItems)
	}
	if c.ChunkSize <= 0 {
		return fmt.Errorf("rt: ChunkSize must be positive, got %d", c.ChunkSize)
	}
	if c.FlushDeadline < 0 {
		return fmt.Errorf("rt: negative FlushDeadline")
	}
	if c.Part != nil {
		if p := int(c.Part.Proc); p < 0 || p >= c.Topo.TotalProcs() {
			return fmt.Errorf("rt: partition proc %d outside topology %v", p, c.Topo)
		}
		if c.Part.Remote == nil {
			return fmt.Errorf("rt: partitioned config needs a Remote transport")
		}
	}
	if c.IngressCap < 0 {
		return fmt.Errorf("rt: negative IngressCap")
	}
	if c.Serve && c.FlushDeadline <= 0 {
		return fmt.Errorf("rt: serve mode requires a positive FlushDeadline")
	}
	if err := c.Adaptive.validate(c); err != nil {
		return err
	}
	return nil
}

// Metrics holds the runtime's shared activity counters: the ones updated once
// per batch, by whichever goroutine seals or delivers it. The per-item
// counters of Ctx.Send are worker-owned (worker.counts); Counters sums both.
type Metrics struct {
	Delivered   atomic.Int64 // items handed to DeliverFunc (excluding self items)
	Batches     atomic.Int64 // aggregated batches emitted
	FullBatches atomic.Int64 // batches emitted because a buffer filled
	Flushes     atomic.Int64 // batches emitted by an explicit/idle/deadline flush
	// DeadlineFlushes counts batches flushed specifically by the latency
	// bound (also counted in Flushes).
	DeadlineFlushes atomic.Int64
	// PathSwitches counts adaptive Direct<->buffered transitions.
	PathSwitches atomic.Int64

	// Ingested and IngestedDirect are the admit path's share of Inserted and
	// DirectItems (serve mode): per-event writes from frontend goroutines,
	// kept off the line the workers' per-batch counters above live on.
	_              [64]byte
	Ingested       atomic.Int64
	IngestedDirect atomic.Int64
}

// The per-item counters of Ctx.Send, as indexes into a worker's sent tally
// and its published counts.
const (
	cInserted    = iota // items passed to Send
	cSelfItems          // self items delivered inline
	cLocalDirect        // same-process items sent through a lane (SMP-aware path)
	cDirectItems        // items sent unbuffered because their adaptive route was in Direct framing
	numSendCounts
)

// Result reports one completed run.
type Result struct {
	// Wall is the measured wall-clock makespan: goroutine launch to global
	// quiescence.
	Wall time.Duration
	// Delivered is the number of items handed to the application,
	// including inline self items.
	Delivered int64
	// Inserted is the number of Send calls.
	Inserted int64
	// Reduced is the sum of all Contribute values (the runtime's global
	// reduction, Charm++'s contribute/reduction pair).
	Reduced int64
	// Batches/FullBatches/Flushes/DeadlineFlushes/SelfItems/LocalDirect
	// mirror Counters at completion.
	Batches         int64
	FullBatches     int64
	Flushes         int64
	DeadlineFlushes int64
	SelfItems       int64
	LocalDirect     int64
	// RemoteSent / RemoteRecv count items shipped to and received from other
	// OS processes (partitioned mode only; zero otherwise).
	RemoteSent int64
	RemoteRecv int64
	// DirectItems / PathSwitches mirror the adaptive controller's metrics
	// (zero when Config.Adaptive is off).
	DirectItems  int64
	PathSwitches int64
}

// msgKind discriminates inbox message layouts.
type msgKind uint8

const (
	mkToWorker msgKind = iota // payloads all addressed to the receiving worker
	mkItems                   // items for several workers of the receiving process (WPs/PP)
	mkRuns                    // pre-grouped runs (WsP): deliver own, forward the rest
)

// Run is one pre-grouped run: payload words all addressed to a single
// destination worker (the mkRuns message body, and the unit Remote.SendRuns
// ships for WsP).
type Run struct {
	Dest     cluster.WorkerID
	Payloads []uint64
}

// msg is one inbox delivery. Nodes and their slices are pooled; see the
// package comment for the ownership rules.
type msg struct {
	next     *msg // mpsc link
	kind     msgKind
	payloads []uint64 // mkToWorker
	items    []Item   // mkItems
	runs     []Run    // mkRuns
	inlined  bool     // payloads aliases inline (single-item fast path)
	lane     bool     // payloads is a posted lane (recycled to Runtime.laneBufs)
	ingress  bool     // delivery releases one ingress credit (serve mode)
	inline   [1]uint64
}

// ownedSlot is one single-producer buffer of the slot table: the route it
// feeds and what the flush paths need of it, whichever item type it carries.
type ownedSlot struct {
	route int
	buf   interface {
		Flush()
		OldestNanos() int64
		SetTarget(n int)
	}
}

// sharedSlot is one multi-producer buffer of the slot table. route is -1 when
// its seals cannot be attributed to one route (ingress buffers, which are
// process-addressed, under a worker-addressed plan).
type sharedSlot struct {
	route int
	buf   *shmem.MPBuffer[Item]
}

// worker is one PE: a goroutine owning an inbox and its share of the slot
// table.
type worker struct {
	// inbox is the one field other goroutines write; the pad keeps it off the
	// lines the owner reads and writes per item.
	inbox mpsc
	_     [64]byte

	id   cluster.WorkerID
	proc cluster.ProcID
	rank int
	rt   *Runtime
	note chan struct{} // capacity 1: wake-up for a parked worker

	kernel  KernelFunc
	steps   int
	deliver DeliverFunc

	// owned lists the single-producer buffers this worker fills, one per
	// route it can reach. bare, tagged and shared are Send's typed views,
	// indexed by route: New sets the one the plan prescribes — bare payloads
	// to a destination worker, tagged items to a destination process through
	// the worker's own buffers, or through its process's shared ones — and
	// none when nothing is buffered. bypassLocal is Plan.BypassLocal.
	owned       []ownedSlot
	bare        []*shmem.SPBuffer[uint64]
	tagged      []*shmem.SPBuffer[Item]
	shared      []*shmem.MPBuffer[Item]
	bypassLocal bool

	// lanes[r] holds the items this worker sent to its sibling of rank r
	// since it last posted that lane (bypassLocal plans only: nil otherwise,
	// and lanes[rank] is never used). A lane is nil while empty.
	lanes [][]uint64

	// stages[p] holds the items this worker sent toward process p since it
	// last pushed them into shared[p] (shared plans only: nil otherwise, and
	// the own process's entry is never used). A stage is allocated on first
	// use and reused after every push, which copies its items out.
	stages [][]Item

	// runScratch is reused across mkItems groupings (the worker handles one
	// message at a time, and runs are consumed before the next grouping).
	runScratch []Run

	// remoteRuns is the partitioned-mode WsP emit scratch: Remote.SendRuns
	// encodes synchronously, so the headers are dead when it returns and the
	// slice can be reused by the next sealed batch of this worker's buffers.
	remoteRuns []Run

	// local is the worker's own task queue (Ctx.Post): continuations of
	// worklist-driven kernels (SSSP drains, PDES event loops). Only the
	// owning goroutine touches it; tasks count toward the runtime's
	// in-flight work so quiescence waits for them.
	local     []func(*Ctx)
	localHead int

	ctx     Ctx
	contrib int64

	// sent tallies the worker's per-item counters since it last published
	// them, in plain memory; counts is the published running total Counters
	// reads, brought up to date once per kernel chunk and once per delivered
	// batch (publishCounts). unsettled is the sends and posted tasks the
	// worker has issued but not yet added to rt.inflight (see the package
	// comment's settle-before-publish invariant). The trailing pad ends the
	// owner-written region, so the next heap object cannot put a
	// shared-written field on its last line.
	sent      [numSendCounts]int64
	counts    [numSendCounts]atomic.Int64
	unsettled int64
	_         [64]byte
}

// Ctx is the execution context passed to kernels and DeliverFunc, mirroring
// charm.Ctx's application surface: Send submits an item, Contribute feeds the
// global reduction, Flush force-seals the caller's buffers. A kernel signals
// Done by returning from its last step. Must not be retained or shared
// across goroutines.
type Ctx struct {
	rt *Runtime
	w  *worker
}

// Runtime executes kernels over real goroutines. Create with New or NewBound,
// then Run.
type Runtime struct {
	cfg  Config
	topo cluster.Topology
	plan core.Plan // the scheme's row of the §III-B table, read once in New

	workers []*worker
	// shared[p] lists the multi-producer buffers the workers of process p
	// fill together (empty unless the plan shares buffers).
	shared [][]sharedSlot
	procRR []atomic.Int32 // receiving-worker round-robin per process

	done     chan struct{}
	doneOnce sync.Once

	// Partitioned-mode state: quietC (if set) is notified on every
	// transition to local quiescence.
	part   *Partition
	quietC chan struct{}

	// Serve-mode state (nil/unused otherwise): gates[d] is destination d's
	// ingress admission window (a channel semaphore: a buffered slot per
	// admitted-but-undelivered item), ingress lists the buffers aggregating
	// admitted events bound for remote processes — ingressTo is admit's view
	// of them, indexed by destination process — and flushHist (if installed)
	// observes realized batch ages at seal.
	gates     []chan struct{}
	ingress   []sharedSlot
	ingressTo []*shmem.MPBuffer[Item]
	flushHist *stats.AtomicHist

	// Adaptive-controller state (nil/zero when Config.Adaptive is off):
	// routes is the per-destination table (see adaptive.go), adaptive the
	// normalized knobs, ctlLast the controller's previous tick time (progress
	// goroutine only).
	routes   []route
	adaptive Adaptive
	ctlLast  time.Time

	msgPool  sync.Pool // *msg
	u64s     slicePool[uint64]
	itemsPkd slicePool[Item]
	laneBufs slicePool[uint64] // lane storage (see the package comment)

	// parkHook, if set, runs on a worker's goroutine immediately before it
	// parks. Tests only.
	parkHook func(*worker)

	// Everything below is written by many goroutines, once per batch; the
	// pads keep those writes off the lines holding the read-mostly fields
	// above, which Ctx.Send loads per item.
	_         [64]byte
	producing atomic.Int64 // workers still in their generation phase
	inflight  atomic.Int64 // items published (see the package comment) but not yet delivered
	// sentCross/recvCross are the monotone item counters of the coordinator's
	// four-counter termination detection (partitioned mode).
	sentCross atomic.Int64
	recvCross atomic.Int64
	M         Metrics
	_         [64]byte
}

// New builds a runtime with one delivery hook shared by every worker; spawn
// assigns each worker its kernel.
func New(cfg Config, deliver DeliverFunc, spawn SpawnFunc) *Runtime {
	return NewBound(cfg, SharedBind(deliver, spawn))
}

// SharedBind is the BindFunc of New: every worker gets deliver, and spawn
// assigns the kernels.
func SharedBind(deliver DeliverFunc, spawn SpawnFunc) BindFunc {
	return func(ctx *Ctx) (int, KernelFunc, DeliverFunc) {
		steps, kernel := spawn(ctx.Self())
		return steps, kernel, deliver
	}
}

// NewBound builds a runtime; bind gives each worker its kernel and delivery
// hook (see BindFunc).
func NewBound(cfg Config, bind BindFunc) *Runtime {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	topo := cfg.Topo
	plan := cfg.Scheme.Plan()
	rt := &Runtime{
		cfg:    cfg,
		topo:   topo,
		plan:   plan,
		done:   make(chan struct{}),
		shared: make([][]sharedSlot, topo.TotalProcs()),
		procRR: make([]atomic.Int32, topo.TotalProcs()),
		part:   cfg.Part,
	}
	rt.msgPool.New = func() any { return &msg{} }
	minCap := cfg.BufferItems
	if minCap <= 0 {
		minCap = 1
	}
	rt.u64s.minCap = minCap
	rt.itemsPkd.minCap = minCap
	rt.laneBufs.minCap = min(cfg.ChunkSize, minCap)

	// In partitioned mode only the local process's workers exist (and bind
	// is called only for them); slots for remote workers stay nil.
	rt.workers = make([]*worker, topo.TotalWorkers())
	local := 0
	for i := range rt.workers {
		id := cluster.WorkerID(i)
		if rt.part != nil && topo.ProcOf(id) != rt.part.Proc {
			continue
		}
		w := &worker{
			id:   id,
			proc: topo.ProcOf(id),
			rank: topo.RankInProc(id),
			rt:   rt,
			note: make(chan struct{}, 1),

			bypassLocal: plan.BypassLocal,
		}
		if plan.BypassLocal {
			w.lanes = make([][]uint64, topo.WorkersPerProc)
		}
		w.ctx = Ctx{rt: rt, w: w}
		w.steps, w.kernel, w.deliver = bind(&w.ctx)
		rt.workers[i] = w
		local++
	}
	// The producing count is armed HERE, synchronously at construction — not
	// in Run — so the runtime reads as non-quiet from the moment it exists.
	// In partitioned mode, termination probes can arrive on the control
	// goroutine before the goroutine running Run has been scheduled at all;
	// if the count were armed inside Run, such a probe would observe
	// producing == 0 && inflight == 0 and report a brand-new, never-started
	// runtime as quiet — letting the coordinator declare global quiescence
	// before the run begins (observed on single-CPU hosts).
	rt.producing.Store(int64(local))

	if plan.Buffered {
		rt.wireBuffers()
	}
	if cfg.Serve {
		rt.wireServe(cfg)
	}
	if cfg.Adaptive.Enabled && plan.Buffered {
		rt.wireAdaptive()
	}
	return rt
}

// wireBuffers builds the slot table: for every local owner the plan names — a
// worker, or a process when buffers are shared — one buffer per route except
// the owner's own, which never carries an item (Send delivers self items
// inline under a worker-addressed plan, and bypasses the buffers for the
// sender's own process under a process-addressed one).
func (rt *Runtime) wireBuffers() {
	plan, topo := rt.plan, rt.topo
	routes := plan.Routes(topo)
	if plan.Shared {
		for p := range rt.shared {
			proc := cluster.ProcID(p)
			if rt.part != nil && proc != rt.part.Proc {
				continue
			}
			own := plan.Route(topo, topo.FirstWorkerOf(proc))
			view := make([]*shmem.MPBuffer[Item], routes)
			for r := range view {
				if r == own {
					continue
				}
				s := rt.newShared(r, cluster.ProcID(r), false)
				view[r] = s.buf
				rt.shared[p] = append(rt.shared[p], s)
			}
			for rank := 0; rank < topo.WorkersPerProc; rank++ {
				w := rt.workers[topo.WorkerOf(proc, rank)]
				w.shared = view
				w.stages = make([][]Item, routes)
			}
		}
		return
	}
	grouped := plan.Group == core.GroupAtSource
	for _, w := range rt.workers {
		if w == nil {
			continue
		}
		own := plan.Route(topo, w.id)
		if plan.ProcRouted {
			w.tagged = make([]*shmem.SPBuffer[Item], routes)
		} else {
			w.bare = make([]*shmem.SPBuffer[uint64], routes)
		}
		for r := 0; r < routes; r++ {
			if r == own {
				continue
			}
			if plan.ProcRouted {
				dst := cluster.ProcID(r)
				w.tagged[r] = newOwned(w, r, rt.allocItems, func(items []Item, full bool) {
					rt.emitToProc(w, dst, items, grouped, full)
				})
			} else {
				dest := cluster.WorkerID(r)
				w.bare[r] = newOwned(w, r, rt.allocU64, func(payloads []uint64, full bool) {
					rt.emitToWorker(dest, payloads, full)
				})
			}
		}
	}
}

// newOwned builds w's single-producer buffer for route and lists it among the
// worker's slots. The buffer's emit closure runs on w's goroutine and is where
// the batch becomes reachable by others, so it settles w's tally first.
func newOwned[T any](w *worker, route int, alloc shmem.AllocFunc[T], emit func(items []T, full bool)) *shmem.SPBuffer[T] {
	rt := w.rt
	g := rt.cfg.BufferItems
	b := shmem.NewSPBuffer(g, func(bt shmem.Batch[T]) {
		w.settle()
		rt.noteSeal(route, len(bt.Items), bt.Oldest)
		emit(bt.Items, len(bt.Items) == g)
	})
	b.SetAlloc(alloc)
	w.owned = append(w.owned, ownedSlot{route: route, buf: b})
	return b
}

// newShared builds one multi-producer buffer toward process dst, its seals
// attributed to route. Its emit closure runs on whichever goroutine seals; the
// items were settled before the push. An ingress buffer holds admitted
// external events, whose credits release at the seal — the hand-off to the
// transport.
func (rt *Runtime) newShared(route int, dst cluster.ProcID, ingress bool) sharedSlot {
	g := rt.cfg.BufferItems
	b := shmem.NewMPBuffer(g, func(bt shmem.Batch[Item]) {
		rt.noteSeal(route, len(bt.Items), bt.Oldest)
		if ingress {
			// Read the dests before emitToProc, which consumes (and may
			// recycle) the slice.
			for _, it := range bt.Items {
				rt.releaseIngress(it.Dest)
			}
		}
		rt.emitToProc(nil, dst, bt.Items, false, len(bt.Items) == g)
	})
	b.SetAlloc(rt.allocItems)
	return sharedSlot{route: route, buf: b}
}

// Run launches every (local) worker goroutine plus the progress goroutine
// and executes to quiescence: global quiescence in whole-topology mode, or —
// in partitioned mode — until the coordinator calls Stop after its
// distributed termination detection. Returns the measured local result.
func (rt *Runtime) Run() Result {
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range rt.workers {
		if w == nil {
			continue
		}
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run()
		}()
	}
	if rt.cfg.FlushDeadline > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.progress()
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	c := rt.Counters()
	res := Result{
		Wall:            wall,
		Delivered:       c.Delivered,
		Inserted:        c.Inserted,
		Batches:         c.Batches,
		FullBatches:     c.FullBatches,
		Flushes:         c.Flushes,
		DeadlineFlushes: c.DeadlineFlushes,
		SelfItems:       c.SelfItems,
		LocalDirect:     c.LocalDirect,
		RemoteSent:      c.RemoteSent,
		RemoteRecv:      c.RemoteRecv,
		DirectItems:     c.DirectItems,
		PathSwitches:    c.PathSwitches,
	}
	for _, w := range rt.workers {
		if w != nil {
			res.Reduced += w.contrib
		}
	}
	return res
}

// Workers returns the total worker count.
func (rt *Runtime) Workers() int { return len(rt.workers) }

// --- partitioned-mode coordination surface ---

// SetQuietNotify installs the local-quiescence notification channel: every
// transition to local quiet performs a non-blocking send on ch. Must be
// called before Run. Partitioned mode only.
func (rt *Runtime) SetQuietNotify(ch chan struct{}) { rt.quietC = ch }

// Stop terminates a partitioned run: the coordinator calls it once its
// termination detection proves global quiescence. Idempotent.
func (rt *Runtime) Stop() { rt.doneOnce.Do(func() { close(rt.done) }) }

// CrossCounts returns the monotone counts of items shipped to and received
// from other processes. An item is counted in sent *before* it leaves the
// local in-flight count and in recv only *after* it enters it, so at any
// instant every item is visible in at least one of {in-flight, sent-recv
// imbalance} — the invariant the four-counter termination scheme needs.
func (rt *Runtime) CrossCounts() (sent, recv int64) {
	return rt.sentCross.Load(), rt.recvCross.Load()
}

// LocallyQuiet reports whether no local worker is generating and no local
// item is in flight. Transient in partitioned mode: a frame arriving off the
// wire (visible in CrossCounts) can re-activate the process.
func (rt *Runtime) LocallyQuiet() bool {
	return rt.producing.Load() == 0 && rt.inflight.Load() == 0
}

// AllocPayloads returns pooled storage for n payload words (for decoding
// incoming frames; ownership passes back on Enqueue).
func (rt *Runtime) AllocPayloads(n int) []uint64 { return rt.u64s.get(n) }

// AllocItemSlice returns pooled storage for n items.
func (rt *Runtime) AllocItemSlice(n int) []Item { return rt.itemsPkd.get(n) }

// RecyclePayloads returns payload storage a Remote finished encoding.
func (rt *Runtime) RecyclePayloads(s []uint64) { rt.putU64(s) }

// RecycleItems returns item storage a Remote finished encoding.
func (rt *Runtime) RecycleItems(s []Item) { rt.putItems(s) }

// EnqueueOne injects one item received off the wire for local worker dest
// (the Direct wiring's single-item frames). Safe from any goroutine.
func (rt *Runtime) EnqueueOne(dest cluster.WorkerID, value uint64) {
	rt.inflight.Add(1)
	rt.recvCross.Add(1)
	rt.postInline(dest, value)
}

// EnqueuePayloads injects a worker-addressed batch received off the wire.
// payloads must come from AllocPayloads; ownership transfers.
func (rt *Runtime) EnqueuePayloads(dest cluster.WorkerID, payloads []uint64) {
	rt.inflight.Add(int64(len(payloads)))
	rt.recvCross.Add(int64(len(payloads)))
	m := rt.getMsg()
	m.kind = mkToWorker
	m.payloads = payloads
	rt.post(rt.workers[dest], m)
}

// EnqueueItems injects a process-addressed batch received off the wire; a
// local worker (round-robin, as in whole-topology mode) groups it by
// destination worker. items must come from AllocItemSlice; ownership
// transfers.
func (rt *Runtime) EnqueueItems(items []Item) {
	rt.inflight.Add(int64(len(items)))
	rt.recvCross.Add(int64(len(items)))
	m := rt.getMsg()
	m.kind = mkItems
	m.items = items
	rt.post(rt.nextRecv(rt.part.Proc), m)
}

// EnqueueRuns injects a source-grouped batch received off the wire. The runs
// slice itself is copied (callers reuse their scratch); each run's payload
// slice must come from AllocPayloads and transfers ownership.
func (rt *Runtime) EnqueueRuns(runs []Run) {
	var n int64
	for _, r := range runs {
		n += int64(len(r.Payloads))
	}
	rt.inflight.Add(n)
	rt.recvCross.Add(n)
	m := rt.getMsg()
	m.kind = mkRuns
	m.runs = append(m.runs[:0], runs...)
	rt.post(rt.nextRecv(rt.part.Proc), m)
}

// --- pools ---

func (rt *Runtime) allocU64(n int) []uint64 { return rt.u64s.get(n) }

func (rt *Runtime) allocItems(n int) []Item { return rt.itemsPkd.get(n) }

func (rt *Runtime) putU64(s []uint64) { rt.u64s.put(s) }
func (rt *Runtime) putItems(s []Item) { rt.itemsPkd.put(s) }
func (rt *Runtime) getMsg() *msg      { return rt.msgPool.Get().(*msg) }
func (rt *Runtime) putMsg(m *msg)     { *m = msg{runs: m.runs[:0]}; rt.msgPool.Put(m) }

// --- send side ---

// post enqueues m on worker w's inbox and wakes it if parked.
func (rt *Runtime) post(w *worker, m *msg) {
	w.inbox.push(m)
	select {
	case w.note <- struct{}{}:
	default:
	}
}

// postInline ships one unbuffered item as a worker-addressed message whose
// payload lives in the message node itself (no slice pooling involved): the
// Direct scheme, adaptive routes in Direct framing, and single items off the
// wire. In partitioned mode a remote-process destination goes to the wire
// instead.
func (rt *Runtime) postInline(dest cluster.WorkerID, value uint64) {
	if rt.part != nil && rt.topo.ProcOf(dest) != rt.part.Proc {
		rt.sentCross.Add(1)
		rt.part.Remote.SendOne(dest, value)
		rt.finish(1)
		return
	}
	m := rt.getMsg()
	m.kind = mkToWorker
	m.inlined = true
	m.inline[0] = value
	m.payloads = m.inline[:1]
	rt.post(rt.workers[dest], m)
}

// nextRecv picks the receiving worker of process p round-robin (the Charm++
// nodegroup delivery the simulator implements in charm.Runtime.nextRR).
func (rt *Runtime) nextRecv(p cluster.ProcID) *worker {
	t := int32(rt.topo.WorkersPerProc)
	r := rt.procRR[p].Add(1) - 1
	rank := int(((r % t) + t) % t)
	return rt.workers[rt.topo.WorkerOf(p, rank)]
}

// emitToWorker ships a sealed worker-addressed batch (WW and forwarded runs).
func (rt *Runtime) emitToWorker(dest cluster.WorkerID, payloads []uint64, full bool) {
	rt.accountBatch(full)
	if rt.part != nil && rt.topo.ProcOf(dest) != rt.part.Proc {
		n := int64(len(payloads))
		rt.sentCross.Add(n)
		rt.part.Remote.SendPayloads(dest, payloads, full)
		rt.finish(n)
		return
	}
	m := rt.getMsg()
	m.kind = mkToWorker
	m.payloads = payloads
	rt.post(rt.workers[dest], m)
}

// emitToProc ships a sealed process-addressed batch. For WsP (grouped) the
// items are counting-sorted into per-worker runs here, on the emitting
// goroutine — the source-side grouping cost of Fig. 6; for WPs/PP the
// receiver pays it instead. owner is the worker whose single-producer buffer
// sealed the batch (nil for the shared PP buffers, which are never grouped).
func (rt *Runtime) emitToProc(owner *worker, dst cluster.ProcID, items []Item, grouped, full bool) {
	rt.accountBatch(full)
	if rt.part != nil && dst != rt.part.Proc {
		n := int64(len(items))
		rt.sentCross.Add(n)
		if grouped {
			// Source-side grouping happens here even for the wire: the runs
			// travel pre-grouped, so the receiving process only scatters.
			// SendRuns encodes before returning, so the owner's scratch is
			// reusable immediately (only the owning goroutine seals this
			// buffer — the same single-producer discipline as the buffer
			// itself).
			runs := rt.groupRuns(owner.remoteRuns[:0], dst, items)
			owner.remoteRuns = runs[:0]
			rt.putItems(items)
			rt.part.Remote.SendRuns(dst, runs, full)
		} else {
			rt.part.Remote.SendItems(dst, items, full)
		}
		rt.finish(n)
		return
	}
	m := rt.getMsg()
	if grouped {
		m.kind = mkRuns
		m.runs = rt.groupRuns(m.runs[:0], dst, items)
		rt.putItems(items)
	} else {
		m.kind = mkItems
		m.items = items
	}
	rt.post(rt.nextRecv(dst), m)
}

// groupRuns counting-sorts items by destination rank into pooled per-run
// payload slices.
func (rt *Runtime) groupRuns(runs []Run, dst cluster.ProcID, items []Item) []Run {
	first := rt.topo.FirstWorkerOf(dst)
	t := rt.topo.WorkersPerProc
	var scratch [][]uint64
	if t <= 64 {
		var arr [64][]uint64
		scratch = arr[:t]
	} else {
		scratch = make([][]uint64, t)
	}
	for _, it := range items {
		r := int(it.Dest - first)
		if scratch[r] == nil {
			scratch[r] = rt.allocU64(0)
		}
		scratch[r] = append(scratch[r], it.Val)
	}
	for r := 0; r < t; r++ {
		if scratch[r] != nil {
			runs = append(runs, Run{Dest: first + cluster.WorkerID(r), Payloads: scratch[r]})
		}
	}
	return runs
}

func (rt *Runtime) accountBatch(full bool) {
	rt.M.Batches.Add(1)
	if full {
		rt.M.FullBatches.Add(1)
	} else {
		rt.M.Flushes.Add(1)
	}
}

// --- Ctx API ---

// Self returns the executing worker's id.
func (c *Ctx) Self() cluster.WorkerID { return c.w.id }

// Proc returns the executing worker's process.
func (c *Ctx) Proc() cluster.ProcID { return c.w.proc }

// Runtime returns the runtime (topology queries, metrics).
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Topo returns the cluster topology.
func (c *Ctx) Topo() cluster.Topology { return c.rt.topo }

// Contribute adds v to the runtime's global reduction (summed into
// Result.Reduced). Lock-free: each worker owns its accumulator.
func (c *Ctx) Contribute(v int64) { c.w.contrib += v }

// Send submits one item for delivery to worker dest, routing it through the
// configured scheme's wiring — the real counterpart of core.Lib.Insert.
//
// The item joins the worker's unsettled tally here and rt.inflight only where
// it becomes reachable by another goroutine: right here for the unbuffered
// path, in the emit closure for a single-producer buffer, at the lane's post
// for a same-process item, and at the stage's push for a shared buffer.
func (c *Ctx) Send(dest cluster.WorkerID, value uint64) {
	rt := c.rt
	w := c.w
	w.sent[cInserted]++

	if dest == w.id {
		// Self items short-circuit inline, as in the simulator.
		w.sent[cSelfItems]++
		w.deliver(c, value)
		return
	}

	w.unsettled++
	dstProc := rt.topo.ProcOf(dest)
	if w.bypassLocal && dstProc == w.proc {
		// SMP-aware local path: no buffer and no deadline — the item joins
		// the sibling's lane and leaves with it when this slot ends.
		w.sent[cLocalDirect]++
		w.toLane(w.rank+int(dest-w.id), value)
		return
	}

	// The worker's typed view of its slots says where the item goes, and the
	// buffer index is the route index.
	switch {
	case w.bare != nil:
		if rt.routes != nil && w.routeSend(int(dest), dest, value) {
			return
		}
		w.bare[dest].Push(value)
	case w.tagged != nil:
		if rt.routes != nil && w.routeSend(int(dstProc), dest, value) {
			return
		}
		w.tagged[dstProc].Push(Item{Dest: dest, Val: value})
	case w.shared != nil:
		if rt.routes != nil && w.routeSend(int(dstProc), dest, value) {
			return
		}
		w.toStage(dstProc, Item{Dest: dest, Val: value})
	default:
		w.postInline(dest, value)
	}
}

// Flush posts the calling worker's lanes and stages and force-seals every
// buffer it fills — its own and its process's shared ones: the explicit
// end-of-phase flush of the paper.
func (c *Ctx) Flush() { c.w.flushOwn(); c.rt.flushProc(c.w.proc) }

// Post schedules fn to run later on this worker's goroutine, after currently
// queued inbox messages have been drained — the real-runtime counterpart of a
// normal-priority self-message in the simulator. It is how worklist-driven
// kernels (SSSP bucket drains, PDES event loops) yield between batches so
// arriving deliveries interleave with local work. Posted tasks count as
// in-flight work: the run does not quiesce until every task has executed.
// Must be called from the worker's own goroutine (kernels and DeliverFuncs
// already run there).
func (c *Ctx) Post(fn func(*Ctx)) {
	c.w.unsettled++
	c.w.local = append(c.w.local, fn)
}

// --- worker loop ---

func (w *worker) run() {
	rt := w.rt
	if w.kernel != nil && w.steps > 0 {
		chunk := rt.cfg.ChunkSize
		for done := 0; done < w.steps; {
			n := chunk
			if rest := w.steps - done; rest < n {
				n = rest
			}
			for i := 0; i < n; i++ {
				w.kernel(&w.ctx, done+i)
			}
			done += n
			w.publishCounts()
			w.endSlot()
			w.drain()
			w.runLocal()
			w.deadlineFlush()
			// An external Stop mid-generation (a distributed run aborting
			// after a peer failure) must halt the kernel promptly, not after
			// the remaining steps: check once per chunk, like the consume
			// phase's park does.
			select {
			case <-rt.done:
				return
			default:
			}
		}
	}
	// Generation over: flush, settle, and enter the consume-only phase, where
	// the worker is visible to quiescence only through rt.inflight. The
	// flushes' seals and runLocal's finish have normally settled everything
	// already; the explicit settle keeps the invariant from resting on that.
	w.flushOwn()
	rt.flushProc(w.proc)
	w.settle()
	if rt.producing.Add(-1) == 0 {
		rt.checkQuiesce()
	}
	for {
		if w.drain() || w.runLocal() {
			// Still running: what the handlers and tasks buffered is this
			// worker's to keep within the deadline, as between kernel chunks.
			w.deadlineFlush()
			continue
		}
		// Idle: everything delivered locally and no local tasks pending;
		// flush what we buffered while draining (responses, relaxations),
		// then park until a message or quiescence.
		w.flushOwn()
		rt.flushProc(w.proc)
		if w.drain() || w.hasLocal() {
			continue
		}
		// Nothing is unsettled here: in this phase sends come only from
		// handlers and posted tasks, and each ends in w.finish. And nothing
		// is buffered in a slot this worker owns, or held in a lane: the
		// flush above emptied them and no handler has run since — the
		// invariant that lets the deadline live with the owner (see the
		// package comment).
		if rt.parkHook != nil {
			rt.parkHook(w)
		}
		select {
		case <-w.note:
		case <-rt.done:
			return
		}
	}
}

// hasLocal reports whether posted tasks are pending.
func (w *worker) hasLocal() bool { return w.localHead < len(w.local) }

// runLocal executes up to ChunkSize posted tasks (a scheduler slot, so inbox
// drains interleave with long local-work chains) and reports whether any ran.
// Tasks posted by a running task land behind the existing queue, preserving
// post order.
func (w *worker) runLocal() bool {
	if !w.hasLocal() {
		return false
	}
	limit := w.rt.cfg.ChunkSize
	ran := 0
	for ; ran < limit && w.hasLocal(); ran++ {
		fn := w.local[w.localHead]
		w.local[w.localHead] = nil
		w.localHead++
		fn(&w.ctx)
		w.finish(1)
	}
	if w.localHead == len(w.local) {
		w.local = w.local[:0]
		w.localHead = 0
	} else if w.localHead > 64 && w.localHead*2 > len(w.local) {
		n := copy(w.local, w.local[w.localHead:])
		for i := n; i < len(w.local); i++ {
			w.local[i] = nil
		}
		w.local = w.local[:n]
		w.localHead = 0
	}
	return ran > 0
}

// drain processes every currently queued inbox message, reporting whether
// any was handled. A chain longer than a scheduler slot (ChunkSize messages)
// re-checks the deadline between slots; the caller checks after the chain.
func (w *worker) drain() bool {
	m := w.inbox.popAll()
	if m == nil {
		return false
	}
	chunk := w.rt.cfg.ChunkSize
	for n := 1; m != nil; n++ {
		next := m.next
		m.next = nil
		w.handle(m)
		m = next
		if n%chunk == 0 && m != nil {
			w.deadlineFlush()
		}
	}
	return true
}

// handle delivers one inbox message and recycles its storage.
func (w *worker) handle(m *msg) {
	rt := w.rt
	switch m.kind {
	case mkToWorker:
		n := len(m.payloads)
		for _, v := range m.payloads {
			w.deliver(&w.ctx, v)
		}
		rt.M.Delivered.Add(int64(n))
		if m.ingress {
			// The admitted item is delivered: open its slot in the
			// destination's ingress window (ingress messages are inline, so
			// exactly one credit).
			rt.releaseIngress(w.id)
		}
		switch {
		case m.lane:
			rt.laneBufs.put(m.payloads)
		case !m.inlined:
			rt.putU64(m.payloads)
		}
		rt.putMsg(m)
		w.finish(int64(n))

	case mkItems:
		// Destination-side grouping (WPs, PP): deliver own items, forward
		// the other workers' runs through shared memory.
		items := m.items
		rt.putMsg(m)
		runs := rt.groupRuns(w.runScratch[:0], w.proc, items)
		w.runScratch = runs
		rt.putItems(items)
		w.scatterRuns(runs)

	case mkRuns:
		// Source-grouped (WsP): just scatter the runs.
		runs := m.runs
		w.scatterRuns(runs)
		rt.putMsg(m)
	}
}

// scatterRuns delivers the run addressed to this worker inline and forwards
// the others to their owners as worker-addressed messages (the shared-memory
// forwarding of Figs. 5–6). Run payload slices transfer ownership with the
// forwarded message; the inline run's slice is recycled here.
func (w *worker) scatterRuns(runs []Run) {
	rt := w.rt
	var own int64
	for _, r := range runs {
		if r.Dest == w.id {
			for _, v := range r.Payloads {
				w.deliver(&w.ctx, v)
			}
			own += int64(len(r.Payloads))
			rt.putU64(r.Payloads)
			continue
		}
		fm := rt.getMsg()
		fm.kind = mkToWorker
		fm.payloads = r.Payloads
		rt.post(rt.workers[r.Dest], fm)
	}
	if own > 0 {
		rt.M.Delivered.Add(own)
		w.finish(own)
	}
}

// postInline is rt.postInline for an item this worker just sent: it is about
// to be reachable by the destination, so the tally holding it settles first.
func (w *worker) postInline(dest cluster.WorkerID, value uint64) {
	w.settle()
	w.rt.postInline(dest, value)
}

// toLane appends a same-process item, already in the tally, to the lane of
// sibling rank r: plain memory, nothing another goroutine can see. A lane
// that reaches BufferItems is posted at once.
func (w *worker) toLane(r int, value uint64) {
	l := w.lanes[r]
	if l == nil {
		l = w.rt.laneBufs.get(0)
	}
	l = append(l, value)
	w.lanes[r] = l
	if len(l) >= w.rt.cfg.BufferItems {
		w.postLane(r)
	}
}

// postLane hands lane r to its sibling as one worker-addressed message,
// settling first: the lane's items become reachable here. A lane post is a
// hand-over, not an aggregated batch, so no batch counter sees it.
func (w *worker) postLane(r int) {
	w.settle()
	rt := w.rt
	m := rt.getMsg()
	m.kind = mkToWorker
	m.lane = true
	m.payloads = w.lanes[r]
	w.lanes[r] = nil
	rt.post(rt.workers[w.id+cluster.WorkerID(r-w.rank)], m)
}

// toStage appends a cross-process item, already in the tally, to the stage
// toward process p: plain memory, nothing another goroutine can see. A stage
// holds one scheduler slot's worth (the lane size) and is pushed when full.
func (w *worker) toStage(p cluster.ProcID, it Item) {
	s := w.stages[p]
	if s == nil {
		s = make([]Item, 0, w.rt.laneBufs.minCap)
	}
	s = append(s, it)
	w.stages[p] = s
	if len(s) == cap(s) {
		w.pushStage(int(p))
	}
}

// pushStage settles, then publishes stage p into its shared buffer with one
// claim and one fill, and keeps the emptied stage for reuse.
func (w *worker) pushStage(p int) {
	w.settle()
	w.shared[p].PushN(w.stages[p])
	w.stages[p] = w.stages[p][:0]
}

// endSlot posts every non-empty lane and pushes every non-empty stage. The
// worker calls it wherever a scheduler slot of its ends — after each kernel
// chunk, in finish, and in flushOwn — so an item it holds privately waits at
// most one slot of its sender before another goroutine can see it.
func (w *worker) endSlot() {
	for r, l := range w.lanes {
		if l != nil {
			w.postLane(r)
		}
	}
	for p, s := range w.stages {
		if len(s) != 0 {
			w.pushStage(p)
		}
	}
}

// settle publishes the worker's unsettled sends and posted tasks to
// rt.inflight. Owner goroutine only; called before anything in the tally
// becomes reachable by another goroutine.
func (w *worker) settle() {
	if w.unsettled != 0 {
		w.rt.inflight.Add(w.unsettled)
		w.unsettled = 0
	}
}

// publishCounts adds the worker's sent tally to its published counts. Every
// Send happens inside a kernel chunk, a handler or a posted task, and each of
// those ends here, so the published counts are exact whenever the worker is
// between them — in particular at quiescence — and lag a running worker by
// at most one chunk or batch.
func (w *worker) publishCounts() {
	for i, n := range w.sent {
		if n != 0 {
			w.counts[i].Add(n)
			w.sent[i] = 0
		}
	}
}

// finish retires n items this worker delivered (or one posted task it ran)
// and settles the sends their handlers issued, as one add. Called only after
// the DeliverFuncs returned, so those sends are in the tally. A positive or
// zero net cannot reach zero — the retired batch was counted until now — so
// only a net decrement checks for quiescence. The lanes and stages go out
// after the add, which settled their items: retiring before that settle could
// take inflight to zero with items still in a lane or stage.
func (w *worker) finish(n int64) {
	w.publishCounts()
	d := w.unsettled - n
	w.unsettled = 0
	if d != 0 && w.rt.inflight.Add(d) == 0 {
		w.rt.checkQuiesce()
	}
	w.endSlot()
}

// finish retires n items handed to the transport, from a goroutine with
// nothing unsettled: a worker inside an emit closure or past Send's settle,
// the progress goroutine sealing a shared buffer, a serve frontend.
func (rt *Runtime) finish(n int64) {
	if rt.inflight.Add(-n) == 0 {
		rt.checkQuiesce()
	}
}

func (rt *Runtime) checkQuiesce() {
	if rt.producing.Load() == 0 && rt.inflight.Load() == 0 {
		if rt.part != nil || rt.cfg.Serve {
			// Local quiet is not global quiet: items may be on the wire
			// (partitioned mode), or the next external event may be one
			// Ingest away (serve mode). Notify the coordinator glue and keep
			// running until Stop.
			if rt.quietC != nil {
				select {
				case rt.quietC <- struct{}{}:
				default:
				}
			}
			return
		}
		rt.doneOnce.Do(func() { close(rt.done) })
	}
}

// flushOwn seals every non-empty single-producer buffer the worker owns,
// posts its lanes and pushes its stages: afterwards it holds no item of its
// own anywhere, and its process's shared buffers hold everything it staged.
func (w *worker) flushOwn() {
	for _, s := range w.owned {
		s.buf.Flush()
	}
	w.endSlot()
}

// flushProc flushes the buffers process p's workers share; safe from any
// goroutine.
func (rt *Runtime) flushProc(p cluster.ProcID) { flushShared(rt.shared[p]) }

func flushShared(slots []sharedSlot) {
	for _, s := range slots {
		s.buf.Flush()
	}
}

// deadlineFlush seals the buffers this worker fills — its own, its process's
// shared ones and, on a serve frontend, the ingress ones — whose oldest item
// has exceeded the latency bound: the static FlushDeadline, or the slot's
// route deadline when the adaptive controller is steering.
func (w *worker) deadlineFlush() {
	rt := w.rt
	d := rt.cfg.FlushDeadline
	if d <= 0 {
		return
	}
	now := time.Now().UnixNano()
	cutoff := now - int64(d)
	for _, s := range w.owned {
		if o := s.buf.OldestNanos(); o != 0 && o <= rt.routeCutoff(s.route, now, cutoff) {
			s.buf.Flush()
			rt.M.DeadlineFlushes.Add(1)
		}
	}
	rt.deadlineFlushShared(rt.shared[w.proc], now, cutoff)
	rt.deadlineFlushShared(rt.ingress, now, cutoff)
}

// deadlineFlushShared seals the multi-producer buffers among slots whose
// oldest item is past its bound. Safe from any goroutine: every worker filling
// them runs it once per scheduler slot, and the progress goroutine behind
// them.
func (rt *Runtime) deadlineFlushShared(slots []sharedSlot, nowNs, cutoff int64) {
	for _, s := range slots {
		if s.buf.FlushIfOlder(rt.routeCutoff(s.route, nowNs, cutoff)) {
			rt.M.DeadlineFlushes.Add(1)
		}
	}
}

// routeCutoff returns the arrival stamp at or before which a buffer feeding
// route ri is overdue: now minus the route's deadline when the adaptive
// controller is steering it, else the caller's precomputed static cutoff
// (also for ri < 0, a buffer no single route accounts for).
func (rt *Runtime) routeCutoff(ri int, nowNs, cutoff int64) int64 {
	if rt.routes != nil && ri >= 0 {
		return nowNs - rt.routeDeadlineNs(ri)
	}
	return cutoff
}

// progress is the latency-sensitive progress goroutine: until quiescence it
// is the deadline backstop for shared buffers — those of processes whose
// workers are all parked or held inside a kernel step, and the ingress
// buffers, which no worker fills — and, when adaptive aggregation is on, it
// runs the controller's policy ticks. Single-producer buffers are their
// owners' business (see the package comment).
func (rt *Runtime) progress() {
	period := rt.cfg.FlushDeadline / 2
	if rt.routes != nil {
		// Adaptive deadlines can contract to MinDeadline, and the controller
		// wants its own cadence: tick fast enough for both.
		if p := rt.adaptive.MinDeadline / 2; p < period {
			period = p
		}
		if p := rt.adaptive.Interval; p < period {
			period = p
		}
		rt.ctlLast = time.Now()
	}
	if period < 50*time.Microsecond {
		period = 50 * time.Microsecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-rt.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		nowNs := now.UnixNano()
		cutoff := nowNs - int64(rt.cfg.FlushDeadline)
		for _, slots := range rt.shared {
			rt.deadlineFlushShared(slots, nowNs, cutoff)
		}
		rt.deadlineFlushShared(rt.ingress, nowNs, cutoff)
		if rt.routes != nil && now.Sub(rt.ctlLast) >= rt.adaptive.Interval {
			rt.controlTick(now)
		}
	}
}
