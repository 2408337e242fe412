// Package core implements TramLib, the paper's contribution: a shared
// memory-aware, latency-sensitive message aggregation library for fine-grained
// communication in SMP mode (§III).
//
// Applications send *items* — short application-level messages, a packed
// uint64 payload addressed to a destination worker. TramLib coalesces items
// into *messages* (aggregation buffers) to amortize the per-message α cost,
// choosing buffers according to the configured scheme:
//
//	Direct  no aggregation; every item is its own message (baseline).
//	WW      source worker keeps one buffer per destination worker (Fig. 4).
//	        SMP-unaware: the only scheme that also buffers same-process items.
//	WPs     source worker keeps one buffer per destination process; items are
//	        grouped by destination worker at the receiving process (Fig. 5).
//	WsP     like WPs, but the source worker sorts/groups items before sending,
//	        so the receiver only forwards runs (Fig. 6).
//	PP      one buffer per destination process shared by all workers of the
//	        source process, filled with atomics (Fig. 7).
//
// Aggregated messages are sent expedited (Charm++ expedited entry methods) so
// they overtake ordinary application messages. Sends are resized: a flushed
// buffer only transmits the bytes of the items it holds. Buffers can be
// flushed explicitly (Flush), when the owning PE goes idle (FlushOnIdle), or
// on a timeout (FlushTimeout).
//
// The package runs on the internal/charm runtime and charges the costs that
// §III-C analyzes: per-item insert, atomic insert with contention (PP),
// grouping O(g+t) at source (WsP) or destination (WPs/PP), per-item delivery,
// and per-message packing.
//
// # Pooling invariants
//
// The seal/deliver hot path recycles packets and their backing arrays on the
// Lib (see the packet type for the full ownership rules): a packet travels
// through the runtime exactly once and is released after delivery; buffer
// backing arrays swap with delivered packets' storage on seal/flush.
// Applications are unaffected — DeliverFunc receives scalar payloads and must
// not retain the Ctx past the handler.
package core

import (
	"fmt"

	"tramlib/internal/charm"
	"tramlib/internal/cluster"
	"tramlib/internal/sim"
	"tramlib/internal/stats"
)

// DeliverFunc receives one item at its destination worker. ctx executes on
// the destination PE; value is the item payload as passed to Insert.
type DeliverFunc func(ctx *charm.Ctx, value uint64)

// CostParams models the per-operation costs of §III-C. Defaults come from
// DefaultCosts and are calibrated by the internal/shmem microbenchmarks (see
// that package's contention benchmarks for the atomic costs).
type CostParams struct {
	// Insert is the cost of appending to a private single-producer buffer.
	Insert sim.Time
	// AtomicInsert is the base cost of an atomic claim into a shared
	// process-level buffer (PP).
	AtomicInsert sim.Time
	// AtomicContention is the extra cost per additional worker sharing the
	// process's buffers (PP); total = AtomicInsert + (t-1)·AtomicContention.
	AtomicContention sim.Time
	// SortPerItem is the per-item cost of grouping a buffer by destination
	// worker (counting sort), paid at the source for WsP and at the
	// destination for WPs/PP; the paper's O(g+t) grouping delay.
	SortPerItem sim.Time
	// SortPerBucket is the per-destination-worker overhead of grouping.
	SortPerBucket sim.Time
	// GroupForward is the per-run cost of forwarding a pre-grouped run
	// (WsP receiver).
	GroupForward sim.Time
	// Deliver is the per-item cost of handing an item to the application.
	Deliver sim.Time
	// Pack is the per-item cost of sealing items into an outgoing message.
	Pack sim.Time
	// ScanBuffer is the per-buffer cost of inspecting a buffer during Flush.
	ScanBuffer sim.Time
}

// DefaultCosts returns the calibrated cost parameters.
func DefaultCosts() CostParams {
	return CostParams{
		Insert:           15 * sim.Nanosecond,
		AtomicInsert:     22 * sim.Nanosecond,
		AtomicContention: 2 * sim.Nanosecond,
		SortPerItem:      4 * sim.Nanosecond,
		SortPerBucket:    12 * sim.Nanosecond,
		GroupForward:     20 * sim.Nanosecond,
		Deliver:          8 * sim.Nanosecond,
		Pack:             1 * sim.Nanosecond,
		ScanBuffer:       3 * sim.Nanosecond,
	}
}

// Config configures one TramLib instance.
type Config struct {
	Scheme Scheme
	// BufferItems is g: the number of items a buffer holds before it is
	// sent automatically.
	BufferItems int
	// ItemBytes is m: the wire size of one item payload.
	ItemBytes int
	// WorkerTagBytes is the per-item destination tag added on the wire by
	// the process-addressed schemes (<item, dest_w> in Figs. 5–7).
	WorkerTagBytes int
	// MsgHeaderBytes is the fixed envelope size of an aggregated message.
	MsgHeaderBytes int
	// FlushOnIdle flushes a worker's buffers whenever its PE goes idle.
	FlushOnIdle bool
	// FlushTimeout, if positive, flushes a worker's buffers that long
	// after the first unflushed insert.
	FlushTimeout sim.Time
	// FlushBurst, if positive, caps how many buffers a *timeout* flush
	// drains per firing (round-robin over destinations, remainder handled
	// by re-armed timers). Bounding the burst keeps a worker with many
	// mostly-empty buffers (WW at scale) from flooding its comm thread
	// with partial messages every period. Explicit Flush calls and idle
	// flushes are not capped.
	FlushBurst int
	// TrackLatency records per-item insert→delivery latency (Fig. 12).
	TrackLatency bool
	Costs        CostParams
}

// DefaultConfig returns the configuration the paper's main experiments use
// for the given scheme: g=1024 (512 for WW in the small-update runs is set by
// the experiment), 8-byte items.
func DefaultConfig(s Scheme) Config {
	return Config{
		Scheme:         s,
		BufferItems:    1024,
		ItemBytes:      8,
		WorkerTagBytes: 2,
		MsgHeaderBytes: 64,
		Costs:          DefaultCosts(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Scheme > PP {
		return fmt.Errorf("core: invalid scheme %d", c.Scheme)
	}
	if c.Scheme.Plan().Buffered && c.BufferItems <= 0 {
		return fmt.Errorf("core: BufferItems must be positive, got %d", c.BufferItems)
	}
	if c.ItemBytes <= 0 {
		return fmt.Errorf("core: ItemBytes must be positive, got %d", c.ItemBytes)
	}
	if c.WorkerTagBytes < 0 || c.MsgHeaderBytes < 0 {
		return fmt.Errorf("core: negative framing size")
	}
	if c.FlushTimeout < 0 {
		return fmt.Errorf("core: negative FlushTimeout")
	}
	return nil
}

// Metrics aggregates TramLib activity over a run.
type Metrics struct {
	Inserted      stats.Counter // items passed to Insert
	Delivered     stats.Counter // items handed to the application
	SelfItems     stats.Counter // items addressed to their own sender, delivered inline
	LocalDirect   stats.Counter // items delivered directly (same process, unbuffered; self items excluded)
	RemoteMsgs    stats.Counter // aggregated messages crossing a process boundary
	LocalMsgs     stats.Counter // aggregated/forward messages within a process
	FullMsgs      stats.Counter // messages sent because a buffer filled
	FlushMsgs     stats.Counter // messages sent by a flush (resized)
	Flushes       stats.Counter // Flush invocations
	PriorityItems stats.Counter // items sent via InsertPriority
	// PriorityLatency tracks insert→deliver latency of priority items
	// separately from the buffered-item Latency histogram.
	PriorityLatency *stats.Hist
	BytesSent       stats.Counter // wire bytes of remote aggregated messages
	Latency         *stats.Hist   // per-item insert→deliver latency (ns), if tracked

	curBuffered  int64
	PeakBuffered stats.MaxGauge // max items resident in buffers at once

	// PerSourceMsgs counts aggregated messages per buffer owner (Plan.Owner:
	// a source worker, or a source process when buffers are shared); used to
	// check the §III-C bounds.
	PerSourceMsgs []int64
}

// packetKind discriminates aggregated message layouts.
type packetKind uint8

const (
	pkToWorker  packetKind = iota // items all destined for the addressed worker
	pkUngrouped                   // items for several workers of the addressed process
	pkGrouped                     // items pre-grouped into runs (WsP)
)

type run struct {
	dest cluster.WorkerID
	off  int32
	n    int32
}

// packet is one aggregated message. Packets and their backing arrays are
// pooled on the Lib: a packet is acquired at seal time, travels through the
// runtime exactly once, and is released back to the pool after its items are
// delivered (onPacket). Ownership rules:
//
//   - An owned packet (parent == nil) owns payloads/born/dests; releasing it
//     returns those arrays to the Lib's slice pools.
//   - A scatter sub-packet (parent != nil) aliases a window of its parent's
//     arrays; releasing it only drops the parent's reference count, and the
//     parent's arrays are recycled when the last sub-packet is delivered.
//   - Single-item packets (Direct sends, SMP-local delivery, priority items)
//     store their payload in the packet's inline arrays (inlined == true), so
//     they carry no separately pooled storage at all.
type packet struct {
	kind     packetKind
	payloads []uint64
	born     []sim.Time // parallel to payloads; nil unless TrackLatency
	dests    []cluster.WorkerID
	runs     []run
	priority bool // sent by InsertPriority (latency tracked separately)

	parent  *packet // run-scatter parent whose arrays we alias
	refs    int32   // outstanding sub-packets referencing our arrays
	inlined bool    // payloads/born alias the inline arrays below

	inlineVal  [1]uint64
	inlineBorn [1]sim.Time
}

// buffer is one aggregation buffer. Arrays grow by appending, so partially
// filled buffers only occupy what they hold.
type buffer struct {
	payloads []uint64
	born     []sim.Time
	dests    []cluster.WorkerID
}

func (b *buffer) len() int { return len(b.payloads) }

// endpoint is the per-worker flush-timer state.
type endpoint struct {
	timerArmed  bool
	burstCursor int // round-robin position for bounded timeout flushes
}

// Lib is one TramLib instance spanning the whole simulated cluster (one
// library "group" in Charm++ terms: an endpoint on every PE).
type Lib struct {
	rt      *charm.Runtime
	cfg     Config
	deliver DeliverFunc

	// plan is the scheme's row of the §III-B table, read once in New; bufs is
	// the buffer table it lays out, bufs[Plan.Owner][Plan.Route], and
	// insertCost what one buffered insert charges (§III-C: a private append,
	// or an atomic claim contended by the process's other workers).
	plan       Plan
	bufs       [][]buffer
	insertCost sim.Time
	eps        []endpoint

	hPacket charm.HandlerID
	hTimer  charm.HandlerID

	// Recycling pools for the seal/deliver hot path. The engine is
	// single-threaded, so plain slices suffice; they grow to the peak number
	// of in-flight packets and then scheduling is allocation-free.
	pktPool     []*packet
	payloadPool arrayPool[uint64]
	bornPool    arrayPool[sim.Time]
	destsPool   arrayPool[cluster.WorkerID]
	groupCounts []int32 // counting-sort scratch (groupPacket)
	groupCursor []int32

	M Metrics
}

// New creates a TramLib instance on the runtime, delivering items through
// deliver. It registers its handlers with the runtime and, if FlushOnIdle is
// set, an idle hook on every PE. Call before Runtime.Run.
func New(rt *charm.Runtime, cfg Config, deliver DeliverFunc) *Lib {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	topo := rt.Topo
	plan := cfg.Scheme.Plan()
	l := &Lib{rt: rt, cfg: cfg, deliver: deliver, plan: plan, insertCost: cfg.Costs.Insert}
	l.M.Latency = stats.NewHist()
	l.M.PriorityLatency = stats.NewHist()
	if plan.Shared {
		l.insertCost = cfg.Costs.AtomicInsert + sim.Time(topo.WorkersPerProc-1)*cfg.Costs.AtomicContention
	}

	g := max(cfg.BufferItems, 1)
	l.payloadPool.min, l.bornPool.min, l.destsPool.min = g, g, g

	nWorkers := topo.TotalWorkers()
	l.eps = make([]endpoint, nWorkers)
	l.bufs = make([][]buffer, plan.Owners(topo))
	for o := range l.bufs {
		l.bufs[o] = make([]buffer, plan.Routes(topo))
	}
	l.M.PerSourceMsgs = make([]int64, len(l.bufs))

	l.hPacket = rt.Register("tram.packet", l.onPacket)
	l.hTimer = rt.Register("tram.flushTimer", l.onFlushTimer)

	if cfg.FlushOnIdle {
		for w := 0; w < nWorkers; w++ {
			l.rt.OnIdle(cluster.WorkerID(w), func(ctx *charm.Ctx) { l.Flush(ctx) })
		}
	}
	return l
}

// Config returns the library's configuration.
func (l *Lib) Config() Config { return l.cfg }

// --- packet and slice recycling ---

// getPacket returns a zeroed packet from the pool.
func (l *Lib) getPacket() *packet {
	if n := len(l.pktPool); n > 0 {
		p := l.pktPool[n-1]
		l.pktPool = l.pktPool[:n-1]
		return p
	}
	return &packet{}
}

// itemPacket builds a single-item pkToWorker packet with inline storage.
func (l *Lib) itemPacket(ctx *charm.Ctx, value uint64, priority bool) *packet {
	pkt := l.getPacket()
	pkt.kind = pkToWorker
	pkt.priority = priority
	pkt.inlined = true
	pkt.inlineVal[0] = value
	pkt.payloads = pkt.inlineVal[:1]
	if l.cfg.TrackLatency {
		pkt.inlineBorn[0] = ctx.Now()
		pkt.born = pkt.inlineBorn[:1]
	}
	return pkt
}

// arrayPool recycles the backing arrays of one of a buffer's parallel slices.
// The engine is single-threaded, so a plain stack suffices. Fresh arrays hold
// min items — one buffer's worth, so a recycled array always fits a sealed
// buffer. put drops arrays below that capacity (append-grown backing of
// buffers sealed early by a flush) to the GC instead: every pooled array then
// fits a full buffer, so refilled buffers never reallocate mid-fill and
// groupPacket never pops an array it cannot use.
type arrayPool[T any] struct {
	free [][]T
	min  int
}

func (p *arrayPool[T]) put(s []T) {
	if cap(s) >= p.min {
		p.free = append(p.free, s[:0])
	}
}

func (p *arrayPool[T]) get() []T {
	if n := len(p.free); n > 0 {
		s := p.free[n-1][:0]
		p.free = p.free[:n-1]
		return s
	}
	return make([]T, 0, p.min)
}

// releasePacket returns a delivered packet to the pool. Owned packets with
// outstanding sub-packet references are kept alive until the last reference
// drops; sub-packets forward the release to their parent.
func (l *Lib) releasePacket(pkt *packet) {
	if par := pkt.parent; par != nil {
		// Aliased arrays belong to the parent; never pool them from here.
		l.putPacketStruct(pkt)
		par.refs--
		if par.refs == 0 {
			l.releaseOwned(par)
		}
		return
	}
	if pkt.refs > 0 {
		return
	}
	l.releaseOwned(pkt)
}

// releaseOwned recycles an owned packet's backing arrays and struct.
func (l *Lib) releaseOwned(pkt *packet) {
	if !pkt.inlined {
		if pkt.payloads != nil {
			l.payloadPool.put(pkt.payloads)
		}
		if pkt.born != nil {
			l.bornPool.put(pkt.born)
		}
		if pkt.dests != nil {
			l.destsPool.put(pkt.dests)
		}
	}
	l.putPacketStruct(pkt)
}

// putPacketStruct zeroes the packet (keeping its runs capacity) and pools it.
func (l *Lib) putPacketStruct(pkt *packet) {
	runs := pkt.runs[:0]
	*pkt = packet{runs: runs}
	l.pktPool = append(l.pktPool, pkt)
}

// groupScratch returns zeroed counts and an uninitialized cursor array of
// size t. Safe to reuse per call: grouping never nests (it calls neither
// handlers nor the application).
func (l *Lib) groupScratch(t int) (counts, cursor []int32) {
	if cap(l.groupCounts) < t {
		l.groupCounts = make([]int32, t)
		l.groupCursor = make([]int32, t)
	}
	counts = l.groupCounts[:t]
	for i := range counts {
		counts[i] = 0
	}
	return counts, l.groupCursor[:t]
}

// Insert submits one item for delivery to worker dest. It must be called from
// a handler executing on the sending PE (ctx.Self() is the source worker).
func (l *Lib) Insert(ctx *charm.Ctx, dest cluster.WorkerID, value uint64) {
	l.M.Inserted.Inc()
	self := ctx.Self()
	topo := l.rt.Topo
	cfg := &l.cfg

	if dest == self {
		// Self items short-circuit: no buffering, no messaging.
		l.deliverSelf(ctx, value)
		return
	}

	dstProc := topo.ProcOf(dest)
	if l.plan.BypassLocal && dstProc == ctx.Proc() {
		// SMP-aware local path: direct shared-memory delivery.
		l.M.LocalDirect.Inc()
		pkt := l.itemPacket(ctx, value, false)
		ctx.Send(dest, l.hPacket, pkt, cfg.MsgHeaderBytes+cfg.ItemBytes, true)
		return
	}

	if !l.plan.Buffered {
		ctx.Charge(cfg.Costs.Pack)
		pkt := l.itemPacket(ctx, value, false)
		l.M.PerSourceMsgs[self]++
		l.accountSend(ctx, dstProc, 1, false)
		ctx.Send(dest, l.hPacket, pkt, cfg.MsgHeaderBytes+cfg.ItemBytes, false)
		return
	}

	ctx.Charge(l.insertCost)
	owner := l.plan.Owner(topo, self)
	route := l.plan.Route(topo, dest)
	buf := &l.bufs[owner][route]
	l.push(buf, ctx, dest, value)
	if buf.len() >= cfg.BufferItems {
		l.seal(ctx, owner, route, buf, false)
	}
	l.armTimer(ctx, &l.eps[self])
}

// deliverSelf hands an item addressed to its own sender to the application.
func (l *Lib) deliverSelf(ctx *charm.Ctx, value uint64) {
	ctx.Charge(l.cfg.Costs.Deliver)
	l.M.Delivered.Inc()
	l.M.SelfItems.Inc()
	if l.cfg.TrackLatency {
		l.M.Latency.Observe(0)
	}
	l.deliver(ctx, value)
}

// push appends an item to buf.
func (l *Lib) push(buf *buffer, ctx *charm.Ctx, dest cluster.WorkerID, value uint64) {
	buf.payloads = append(buf.payloads, value)
	if l.cfg.TrackLatency {
		buf.born = append(buf.born, ctx.Now())
	}
	if l.plan.Tagged {
		buf.dests = append(buf.dests, dest)
	}
	l.M.curBuffered++
	l.M.PeakBuffered.Observe(l.M.curBuffered)
}

// take moves buf's contents into a packet-ready triple and swaps recycled
// backing arrays into the drained buffer, so refills after a seal or flush
// append into storage recovered from already-delivered packets.
func (l *Lib) take(buf *buffer) (payloads []uint64, born []sim.Time, dests []cluster.WorkerID) {
	payloads, born, dests = buf.payloads, buf.born, buf.dests
	buf.payloads = l.payloadPool.get()
	if l.cfg.TrackLatency {
		buf.born = l.bornPool.get()
	} else {
		buf.born = nil
	}
	if l.plan.Tagged {
		buf.dests = l.destsPool.get()
	} else {
		buf.dests = nil
	}
	l.M.curBuffered -= int64(len(payloads))
	return
}

// seal emits the buffer owner keeps for route as one message: to the route's
// worker as it stands, or to the route's process, grouped here (the sort cost
// paid before the send, Fig. 6) or left for the receiver to group.
func (l *Lib) seal(ctx *charm.Ctx, owner, route int, buf *buffer, flush bool) {
	n := buf.len()
	payloads, born, dests := l.take(buf)
	cfg := &l.cfg
	ctx.Charge(sim.Time(n) * cfg.Costs.Pack)
	pkt := l.getPacket()
	pkt.payloads = payloads
	pkt.born = born
	pkt.dests = dests
	itemBytes := cfg.ItemBytes
	if l.plan.Tagged {
		itemBytes += cfg.WorkerTagBytes
	}
	bytes := cfg.MsgHeaderBytes + n*itemBytes
	l.M.PerSourceMsgs[owner]++
	if !l.plan.ProcRouted {
		dest := cluster.WorkerID(route)
		pkt.kind = pkToWorker
		l.accountSend(ctx, l.rt.Topo.ProcOf(dest), bytes, flush)
		ctx.Send(dest, l.hPacket, pkt, bytes, true)
		return
	}
	dstProc := cluster.ProcID(route)
	pkt.kind = pkUngrouped
	if l.plan.Group == GroupAtSource {
		t := l.rt.Topo.WorkersPerProc
		ctx.Charge(sim.Time(n)*cfg.Costs.SortPerItem + sim.Time(t)*cfg.Costs.SortPerBucket)
		l.groupPacket(pkt, dstProc)
		pkt.kind = pkGrouped
	}
	l.accountSend(ctx, dstProc, bytes, flush)
	ctx.SendToProc(dstProc, l.hPacket, pkt, bytes, true)
}

// groupPacket counting-sorts pkt's items by destination worker, filling
// pkt.runs and reordering payloads/born into recycled arrays; dests is
// returned to the pool.
func (l *Lib) groupPacket(pkt *packet, dstProc cluster.ProcID) {
	topo := l.rt.Topo
	t := topo.WorkersPerProc
	first := topo.FirstWorkerOf(dstProc)
	n := len(pkt.payloads)

	counts, cursor := l.groupScratch(t)
	for _, d := range pkt.dests {
		counts[d-first]++
	}
	var off int32
	for r := 0; r < t; r++ {
		cursor[r] = off
		if counts[r] > 0 {
			pkt.runs = append(pkt.runs, run{dest: first + cluster.WorkerID(r), off: off, n: counts[r]})
		}
		off += counts[r]
	}
	payloads := l.payloadPool.get()
	if cap(payloads) < n {
		payloads = make([]uint64, n)
	} else {
		payloads = payloads[:n]
	}
	var born []sim.Time
	if pkt.born != nil {
		born = l.bornPool.get()
		if cap(born) < n {
			born = make([]sim.Time, n)
		} else {
			born = born[:n]
		}
	}
	for i, d := range pkt.dests {
		r := d - first
		payloads[cursor[r]] = pkt.payloads[i]
		if born != nil {
			born[cursor[r]] = pkt.born[i]
		}
		cursor[r]++
	}
	l.payloadPool.put(pkt.payloads)
	if pkt.born != nil {
		l.bornPool.put(pkt.born)
	}
	l.destsPool.put(pkt.dests)
	pkt.payloads = payloads
	pkt.born = born
	pkt.dests = nil
}

// accountSend updates message metrics. bytes counts only remote messages.
func (l *Lib) accountSend(ctx *charm.Ctx, dstProc cluster.ProcID, bytes int, flush bool) {
	if dstProc == ctx.Proc() {
		l.M.LocalMsgs.Inc()
	} else {
		l.M.RemoteMsgs.Inc()
		l.M.BytesSent.Add(int64(bytes))
	}
	if flush {
		l.M.FlushMsgs.Inc()
	} else {
		l.M.FullMsgs.Inc()
	}
}

// onPacket handles an aggregated message arriving at a PE. Every arriving
// packet is released back to the pool here once its items are delivered (or,
// for run scatters, once the last forwarded sub-packet is delivered).
func (l *Lib) onPacket(ctx *charm.Ctx, data any, _ int) {
	pkt := data.(*packet)
	cfg := &l.cfg
	switch pkt.kind {
	case pkToWorker:
		if pkt.priority {
			l.deliverPriority(ctx, pkt)
			l.releasePacket(pkt)
			return
		}
		l.deliverItems(ctx, pkt.payloads, pkt.born)
		l.releasePacket(pkt)

	case pkUngrouped:
		// Group at the destination process (WPs, PP): O(g + t), then
		// forward each run to its worker through shared memory (Fig. 5).
		topo := l.rt.Topo
		t := topo.WorkersPerProc
		n := len(pkt.payloads)
		ctx.Charge(sim.Time(n)*cfg.Costs.SortPerItem + sim.Time(t)*cfg.Costs.SortPerBucket)
		l.groupPacket(pkt, ctx.Proc())
		l.scatterRuns(ctx, pkt)
		l.releasePacket(pkt)

	case pkGrouped:
		// WsP: runs were built at the source; just forward them.
		ctx.Charge(sim.Time(len(pkt.runs)) * cfg.Costs.GroupForward)
		l.scatterRuns(ctx, pkt)
		l.releasePacket(pkt)
	}
}

// scatterRuns delivers the run addressed to this PE inline and forwards the
// others as local messages. Forwarded sub-packets alias windows of pkt's
// arrays and hold a reference on pkt, so its storage is recycled only after
// the last sub-packet is delivered.
func (l *Lib) scatterRuns(ctx *charm.Ctx, pkt *packet) {
	self := ctx.Self()
	for _, r := range pkt.runs {
		pay := pkt.payloads[r.off : r.off+r.n]
		var born []sim.Time
		if pkt.born != nil {
			born = pkt.born[r.off : r.off+r.n]
		}
		if r.dest == self {
			l.deliverItems(ctx, pay, born)
			continue
		}
		sub := l.getPacket()
		sub.kind = pkToWorker
		sub.payloads = pay
		sub.born = born
		sub.parent = pkt
		pkt.refs++
		bytes := l.cfg.MsgHeaderBytes + int(r.n)*l.cfg.ItemBytes
		l.M.LocalMsgs.Inc()
		ctx.Send(r.dest, l.hPacket, sub, bytes, true)
	}
}

// deliverItems hands items to the application, charging per-item delivery
// cost and recording latency.
func (l *Lib) deliverItems(ctx *charm.Ctx, payloads []uint64, born []sim.Time) {
	per := l.cfg.Costs.Deliver
	for i, v := range payloads {
		ctx.Charge(per)
		if born != nil {
			l.M.Latency.Observe(int64(ctx.Now() - born[i]))
		}
		l.M.Delivered.Inc()
		l.deliver(ctx, v)
	}
}

// InsertPriority submits an item that bypasses aggregation entirely: it is
// sent immediately as its own expedited message, trading the full per-message
// α for minimum latency. This implements the item prioritization the paper's
// conclusion proposes for latency-critical items (e.g. small-distance SSSP
// updates or imminent PDES events). Note that a priority item can overtake
// items buffered earlier for the same destination.
func (l *Lib) InsertPriority(ctx *charm.Ctx, dest cluster.WorkerID, value uint64) {
	l.M.Inserted.Inc()
	l.M.PriorityItems.Inc()
	if dest == ctx.Self() {
		l.deliverSelf(ctx, value)
		return
	}
	ctx.Charge(l.cfg.Costs.Pack)
	pkt := l.itemPacket(ctx, value, true)
	bytes := l.cfg.MsgHeaderBytes + l.cfg.ItemBytes
	l.accountSend(ctx, l.rt.Topo.ProcOf(dest), bytes, false)
	ctx.Send(dest, l.hPacket, pkt, bytes, true)
}

// deliverPriority hands a priority packet's item to the application.
func (l *Lib) deliverPriority(ctx *charm.Ctx, pkt *packet) {
	ctx.Charge(l.cfg.Costs.Deliver)
	if pkt.born != nil {
		l.M.PriorityLatency.Observe(int64(ctx.Now() - pkt.born[0]))
	}
	l.M.Delivered.Inc()
	l.deliver(ctx, pkt.payloads[0])
}

// Flush sends every non-empty buffer the calling worker fills — its own, or
// its process's when they are shared — as resized messages. Matches the
// paper's per-PE flush call at the end of an update phase.
func (l *Lib) Flush(ctx *charm.Ctx) {
	l.M.Flushes.Inc()
	owner := l.plan.Owner(l.rt.Topo, ctx.Self())
	bufs := l.bufs[owner]
	for route := range bufs {
		buf := &bufs[route]
		ctx.Charge(l.cfg.Costs.ScanBuffer)
		if buf.len() > 0 {
			l.seal(ctx, owner, route, buf, true)
		}
	}
}

// armTimer arms the endpoint's one-shot flush timer if configured and idle.
func (l *Lib) armTimer(ctx *charm.Ctx, ep *endpoint) {
	if l.cfg.FlushTimeout <= 0 || ep.timerArmed {
		return
	}
	ep.timerArmed = true
	ctx.After(l.cfg.FlushTimeout, l.hTimer, ep)
}

// onFlushTimer handles a timeout flush on the owning PE. With FlushBurst set,
// it drains at most that many buffers and re-arms itself until none remain.
func (l *Lib) onFlushTimer(ctx *charm.Ctx, data any, _ int) {
	ep := data.(*endpoint)
	ep.timerArmed = false
	if l.cfg.FlushBurst <= 0 {
		l.Flush(ctx)
		return
	}
	if l.flushBurst(ctx, ep) {
		// Buffers remain: re-arm to continue draining next period.
		l.armTimer(ctx, ep)
	}
}

// flushBurst sends up to FlushBurst non-empty buffers of the set the calling
// worker fills, round-robin from ep's cursor. It reports whether items remain.
func (l *Lib) flushBurst(ctx *charm.Ctx, ep *endpoint) (remaining bool) {
	l.M.Flushes.Inc()
	cfg := &l.cfg
	owner := l.plan.Owner(l.rt.Topo, ctx.Self())
	bufs := l.bufs[owner]
	n := len(bufs)
	sent := 0
	scanned := 0
	for ; scanned < n && sent < cfg.FlushBurst; scanned++ {
		i := (ep.burstCursor + scanned) % n
		ctx.Charge(cfg.Costs.ScanBuffer)
		buf := &bufs[i]
		if buf.len() == 0 {
			continue
		}
		sent++
		l.seal(ctx, owner, i, buf, true)
	}
	ep.burstCursor = (ep.burstCursor + scanned) % n
	for i := range bufs {
		if bufs[i].len() > 0 {
			return true
		}
	}
	return false
}

// BufferedItems returns the number of items currently resident in buffers
// (all workers and processes). Zero after a full flush cycle completes.
func (l *Lib) BufferedItems() int64 { return l.M.curBuffered }

// MemoryModelBytes returns the §III-C worst-case buffer memory bound for this
// configuration and topology, in bytes: every owner (Plan.Owners) holds at
// most one full buffer per route (Plan.Routes), so
//
//	WW:       g·m·N·t per worker-core
//	WPs, WsP: g·m·N   per worker-core
//	PP:       g·m·N   per process
//
// where N is the total process count, t workers per process, g=BufferItems,
// m=ItemBytes. Used by tests to verify actual peak usage never exceeds it.
func (l *Lib) MemoryModelBytes() int64 {
	topo := l.rt.Topo
	perOwner := int64(l.cfg.BufferItems) * int64(l.cfg.ItemBytes) * int64(l.plan.Routes(topo))
	return perOwner * int64(l.plan.Owners(topo))
}
