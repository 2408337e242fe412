// Package shmem provides real (non-simulated) concurrent implementations of
// TramLib's aggregation buffers, using goroutines and sync/atomic. It serves
// two purposes:
//
//  1. It demonstrates the actual shared-memory protocols the paper's schemes
//     imply: a single-producer buffer for WW/WPs/WsP (each worker owns its
//     buffers — no synchronization), and a multi-producer claim/seal buffer
//     for PP, where all workers of a process contribute to one buffer per
//     destination through an atomic slot counter.
//  2. It carries the real workloads of internal/rt — and, through
//     internal/rt's partitioned mode, the intra-process traffic of
//     the multi-process Dist backend (internal/dist), where these buffers
//     are the cheap shared-memory half of the paper's intra- vs inter-process
//     distinction. Its contention benchmarks measure what the PP atomics
//     actually cost on real hardware, justifying core.CostParams'
//     AtomicInsert / AtomicContention calibration (§III-C's "overhead from
//     contention when we maintain common buffers").
//
// Buffers are generic over the item type: the simulated library's wire format
// is a packed uint64, but the real runtime ships <item, dest_w> pairs for the
// process-addressed schemes without stealing payload bits.
//
// The claim/seal protocol of MPBuffer: a producer atomically reserves a slot
// with a fetch-add on `pos`. If the slot index is within capacity, it writes
// the item and then marks completion with a fetch-add on `filled`; whoever
// fills the LAST slot seals the batch and hands it to the consumer — every
// batch is emitted exactly once, with no locks. Producers that overshoot
// capacity spin-wait for the sealer to install a fresh epoch, then retry.
// PushN is the same protocol for a run of items: one compare-and-swap claims
// as many slots as the epoch has left, one fetch-add on `filled` completes
// them, and the remainder goes to the next epoch.
//
// # Latency-bound hooks
//
// Both buffer types track when their oldest buffered item arrived
// (OldestNanos, a wall-clock nanosecond stamp readable from any goroutine),
// so that whoever fills a buffer can seal it once it has held items longer
// than the paper's §III delivery deadline. An SPBuffer's owner — in
// internal/rt, the worker goroutine — compares OldestNanos itself, once per
// scheduler slot, and calls Flush. MPBuffer.FlushIfOlder performs the
// check-and-flush in one step and is safe from any goroutine: internal/rt's
// workers call it on the buffers their process shares, and its progress
// goroutine behind them, for when every filler is parked.
//
// # Adaptive seal targets
//
// Both buffer types accept a dynamic seal target (SetTarget): an effective
// occupancy threshold at or below the allocated capacity. internal/rt's
// adaptive aggregation controller lowers it when a destination's arrival rate
// can't fill the full buffer inside the delivery deadline, so batches seal at
// the depth the rate can actually sustain instead of waiting out the deadline
// — and raises it back toward capacity when the destination runs hot. The
// target is advisory and racy by design: a push that crosses a freshly
// lowered target seals on the next push (SPBuffer) or is caught by the
// deadline flush (MPBuffer); capacity remains the hard bound either way.
//
// # Storage recycling
//
// Emit callbacks receive ownership of the batch's item slice. By default a
// drained buffer allocates fresh storage; SetAlloc installs a recycler (e.g.
// a sync.Pool drained by the consumer after delivery) so steady-state
// seal/deliver cycles reuse the same arrays.
package shmem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// nowNanos is the wall-clock source of the OldestNanos stamps. It is a
// variable only for tests.
var nowNanos = func() int64 { return time.Now().UnixNano() }

// Batch is a sealed buffer of items handed to the flush function. The
// receiver owns Items.
type Batch[T any] struct {
	Items []T
	// Seq is the buffer epoch (0 for the first batch, increasing).
	Seq uint64
	// Oldest is the UnixNano arrival stamp of the batch's oldest item (the
	// OldestNanos value at seal time), or 0 when unknown — an MPBuffer slot-0
	// claim whose stamp had not landed when the batch sealed. Consumers use
	// it to measure realized flush latency (batch age at seal).
	Oldest int64
}

// AllocFunc returns storage for one buffer generation: a slice with the given
// length and at least that capacity. Implementations typically recycle arrays
// the consumer finished delivering.
type AllocFunc[T any] func(n int) []T

// SPBuffer is a single-producer aggregation buffer: the WW/WPs/WsP send-side
// structure. Only one goroutine may call Push/Flush; the flush callback
// receives ownership of the item slice. OldestNanos is safe from any
// goroutine.
type SPBuffer[T any] struct {
	cap   int
	items []T
	seq   uint64
	emit  func(Batch[T])
	alloc AllocFunc[T]
	// first is the UnixNano stamp of the buffer's oldest item, 0 when empty.
	first atomic.Int64
	// target is the advisory seal threshold; 0 or >= cap means "seal at cap".
	target atomic.Int32
}

// NewSPBuffer creates a single-producer buffer of the given capacity that
// emits full batches through emit.
func NewSPBuffer[T any](capacity int, emit func(Batch[T])) *SPBuffer[T] {
	if capacity <= 0 {
		panic("shmem: non-positive capacity")
	}
	return &SPBuffer[T]{cap: capacity, items: make([]T, 0, capacity), emit: emit}
}

// SetAlloc installs a storage recycler used for every subsequent buffer
// generation. Must be called before the owner starts pushing.
func (b *SPBuffer[T]) SetAlloc(alloc AllocFunc[T]) { b.alloc = alloc }

// SetTarget sets the advisory seal threshold: once occupancy reaches
// min(target, capacity) the next Push seals the batch. n <= 0 or n >= cap
// restores seal-at-capacity. Safe from any goroutine (the adaptive controller
// adjusts it while the owner pushes); a buffer already past a freshly lowered
// target seals on its next push.
func (b *SPBuffer[T]) SetTarget(n int) {
	if n <= 0 || n >= b.cap {
		n = 0
	}
	b.target.Store(int32(n))
}

func (b *SPBuffer[T]) fresh() []T {
	if b.alloc != nil {
		return b.alloc(b.cap)[:0]
	}
	return make([]T, 0, b.cap)
}

// Push appends one item, emitting the buffer when it fills — at the advisory
// seal target if one is set, at capacity otherwise.
func (b *SPBuffer[T]) Push(v T) {
	if len(b.items) == 0 {
		b.first.Store(nowNanos())
	}
	b.items = append(b.items, v)
	limit := b.cap
	if t := int(b.target.Load()); t > 0 && t < limit {
		limit = t
	}
	if len(b.items) >= limit {
		oldest := b.first.Swap(0)
		items := b.items
		b.items = b.fresh()
		b.emit(Batch[T]{Items: items, Seq: b.seq, Oldest: oldest})
		b.seq++
	}
}

// Flush emits any buffered items as a partial (resized) batch.
func (b *SPBuffer[T]) Flush() {
	if len(b.items) == 0 {
		return
	}
	oldest := b.first.Swap(0)
	items := b.items
	b.items = b.fresh()
	b.emit(Batch[T]{Items: items, Seq: b.seq, Oldest: oldest})
	b.seq++
}

// Len returns the number of buffered items.
func (b *SPBuffer[T]) Len() int { return len(b.items) }

// OldestNanos returns the UnixNano arrival stamp of the buffer's oldest
// undelivered item, or 0 if the buffer is empty. Safe from any goroutine;
// the owner uses it to enforce the delivery deadline.
func (b *SPBuffer[T]) OldestNanos() int64 { return b.first.Load() }

// epoch is one generation of the multi-producer buffer.
type epoch[T any] struct {
	items  []T
	pos    atomic.Int64 // next slot to claim (may overshoot cap)
	filled atomic.Int64 // completed writes; == cap triggers seal
	// first is the UnixNano stamp written by the claimer of slot 0. It can
	// trail other slots' writes by an instant (the stamp lands after the
	// claim), which only delays a deadline flush by that instant.
	first atomic.Int64
}

// MPBuffer is the PP scheme's shared buffer: all workers of a process push
// into it concurrently via an atomic claim, and the producer that completes
// the last slot seals and emits the batch. Lock-free in the common path.
type MPBuffer[T any] struct {
	cap   int
	emit  func(Batch[T])
	alloc AllocFunc[T]
	cur   atomic.Pointer[epoch[T]]
	seq   atomic.Uint64
	// target is the advisory seal threshold; 0 or >= cap means "seal at cap".
	target atomic.Int32

	flushMu sync.Mutex // serializes explicit Flush with epoch rotation
}

// NewMPBuffer creates a multi-producer buffer of the given capacity.
func NewMPBuffer[T any](capacity int, emit func(Batch[T])) *MPBuffer[T] {
	if capacity <= 0 {
		panic("shmem: non-positive capacity")
	}
	b := &MPBuffer[T]{cap: capacity, emit: emit}
	b.cur.Store(b.newEpoch())
	return b
}

// SetAlloc installs a storage recycler used for every subsequent epoch. Must
// be called before producers start pushing.
func (b *MPBuffer[T]) SetAlloc(alloc AllocFunc[T]) { b.alloc = alloc }

// SetTarget sets the advisory seal threshold: the producer whose completed
// writes take occupancy from below the target to or past it flushes the epoch
// early (through the same poison-and-rotate path as an explicit Flush, so
// exactly-once emission is preserved). n <= 0 or n >= cap restores
// seal-at-capacity. Safe from any goroutine. The trigger is a crossing of the
// fill counter, so an epoch already past a freshly lowered target is not
// flushed here — the deadline flush picks it up instead.
func (b *MPBuffer[T]) SetTarget(n int) {
	if n <= 0 || n >= b.cap {
		n = 0
	}
	b.target.Store(int32(n))
}

func (b *MPBuffer[T]) newEpoch() *epoch[T] {
	if b.alloc != nil {
		return &epoch[T]{items: b.alloc(b.cap)}
	}
	return &epoch[T]{items: make([]T, b.cap)}
}

// Push inserts one item from any goroutine. When the buffer fills, the
// producer completing the final slot seals the batch, emits it, and installs
// a fresh epoch.
func (b *MPBuffer[T]) Push(v T) {
	for {
		e := b.cur.Load()
		slot := e.pos.Add(1) - 1
		if slot >= int64(b.cap) {
			// Buffer full (or flush-poisoned): wait for the sealer
			// or flusher to install the next epoch, then retry.
			b.awaitRotation(e)
			continue
		}
		if slot == 0 {
			e.first.Store(nowNanos())
		}
		e.items[slot] = v
		b.complete(e, 1)
		return
	}
}

// PushN inserts items from any goroutine, in order, claiming as many slots of
// the current epoch as it can take — min(len(items), cap−pos) — with one CAS
// on the claim counter and completing them with one add on the fill counter.
// Items past the epoch's end go into the next epoch, so a batch longer than
// the capacity spans several. items is only read; the caller keeps it.
func (b *MPBuffer[T]) PushN(items []T) {
	for len(items) > 0 {
		e := b.cur.Load()
		p := e.pos.Load()
		if p >= int64(b.cap) {
			b.awaitRotation(e)
			continue
		}
		k := min(int64(len(items)), int64(b.cap)-p)
		if !e.pos.CompareAndSwap(p, p+k) {
			continue
		}
		if p == 0 {
			e.first.Store(nowNanos())
		}
		copy(e.items[p:p+k], items[:k])
		items = items[k:]
		b.complete(e, k)
	}
}

// awaitRotation spins until epoch e is no longer current: its sealer or
// flusher installs the next one.
func (b *MPBuffer[T]) awaitRotation(e *epoch[T]) {
	for b.cur.Load() == e {
		runtime.Gosched()
	}
}

// complete records k finished writes on epoch e. The writer whose add takes
// the fill counter to capacity seals; claims never exceed capacity, so at most
// one writer does (none once a flush poisoned the epoch). Below capacity, the
// writer whose range of the fill counter
// crosses the advisory target (f−k < t ≤ f) — exactly one, as the ranges are
// disjoint — flushes early.
func (b *MPBuffer[T]) complete(e *epoch[T], k int64) {
	f := e.filled.Add(k)
	if f == int64(b.cap) {
		// Last writer seals: install the next epoch first so spinning
		// producers can proceed, then emit.
		b.cur.Store(b.newEpoch())
		b.emit(Batch[T]{Items: e.items, Seq: b.seq.Add(1) - 1, Oldest: e.first.Load()})
	} else if t := int64(b.target.Load()); t > 0 && f-k < t && t <= f {
		// The early seal goes through the locked path, so it and a
		// concurrent Flush/capacity seal can't both emit the epoch.
		b.targetFlush(e)
	}
}

// OldestNanos returns the UnixNano arrival stamp of the current epoch's first
// item, or 0 if the epoch is empty (or its slot-0 claimer has not stamped
// yet). Safe from any goroutine.
func (b *MPBuffer[T]) OldestNanos() int64 { return b.cur.Load().first.Load() }

// FlushIfOlder flushes the buffer iff its oldest item arrived at or before
// cutoff (UnixNano), reporting whether a batch was actually emitted. This is
// the deadline enforcement for a shared buffer: safe concurrently with Push.
// The age check is re-validated under the flush lock, so an epoch that seals
// and rotates between the caller's observation and the flush is never flushed
// prematurely — only the epoch whose first item really is overdue.
func (b *MPBuffer[T]) FlushIfOlder(cutoff int64) bool {
	if o := b.OldestNanos(); o == 0 || o > cutoff {
		return false
	}
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	e := b.cur.Load()
	if f := e.first.Load(); f == 0 || f > cutoff {
		// The overdue epoch sealed and rotated before we got the lock (or
		// the fresh epoch's slot-0 stamp hasn't landed): nothing overdue.
		return false
	}
	return b.flushLocked(e)
}

// targetFlush seals epoch e early because its fill count reached the
// advisory target. Serialized with every other rotation path by flushMu;
// if e rotated out (a racing capacity seal or deadline flush got there
// first) there is nothing left to do.
func (b *MPBuffer[T]) targetFlush(e *epoch[T]) {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	if b.cur.Load() != e {
		return
	}
	b.flushLocked(e)
}

// Flush emits the current partial batch, if any. Safe to call concurrently
// with Push; items racing with the flush land either in the emitted batch or
// in the next epoch — never lost, never duplicated.
func (b *MPBuffer[T]) Flush() {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	b.flushLocked(b.cur.Load())
}

// flushLocked flushes epoch e (loaded from cur under flushMu), reporting
// whether a batch was emitted.
//
// The flush poisons the epoch's claim counter by jumping it past capacity in
// one atomic add. The add's return value exactly delimits the set of slots
// claimed for writing: earlier claimers hold slots below it, later claimers
// land beyond capacity and retry on the fresh epoch.
func (b *MPBuffer[T]) flushLocked(e *epoch[T]) bool {
	if e.pos.Load() == 0 {
		// Nothing claimed: skip the poison-and-rotate, which would discard
		// the epoch's full-capacity items array to the GC for no batch.
		// Callers that flush eagerly (internal/rt's idle flush) would
		// otherwise churn an allocation per empty flush.
		return false
	}
	claimed := e.pos.Add(int64(b.cap)) - int64(b.cap)
	if claimed >= int64(b.cap) {
		// The buffer filled before we poisoned it: a producer's seal
		// is (or will be) emitting this epoch; nothing to flush.
		return false
	}
	// claimed < cap: no seal can occur on e (filled cannot reach cap any
	// more), so e is still current and only we may rotate it.
	b.cur.Store(b.newEpoch())
	if claimed == 0 {
		return false
	}
	// Wait for the in-flight writers of slots [0, claimed) to land.
	for e.filled.Load() < claimed {
		runtime.Gosched()
	}
	b.emit(Batch[T]{Items: e.items[:claimed], Seq: b.seq.Add(1) - 1, Oldest: e.first.Load()})
	return true
}
