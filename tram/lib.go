package tram

import (
	"fmt"
	"time"
)

// Ctx is the execution context both backends hand to kernels and Deliver
// functions. It must not be retained past the call it was passed to, nor
// shared across goroutines.
//
// The core surface — Self, Proc, Send, Contribute, Flush — is everything a
// plain aggregation kernel needs. Charge and Now expose the clock: on the
// Sim backend, Charge advances the handler's virtual-time cursor by the
// modelled cost and Now reads it; on the Real backend, Charge is a no-op
// (real time passes by itself) and Now is wall time since the run started.
// Post schedules deferred local work, which is how worklist-driven kernels
// (SSSP bucket drains, PDES event loops) yield so arriving messages
// interleave with local processing.
type Ctx interface {
	// Self returns the executing worker's id.
	Self() WorkerID
	// Proc returns the executing worker's process.
	Proc() ProcID
	// Send submits one packed item for aggregated delivery to worker dest.
	// Applications normally call Lib.Insert, which encodes and forwards
	// here.
	Send(dest WorkerID, word uint64)
	// Contribute adds v to the run's global reduction (Metrics.Reduced) —
	// Charm++'s contribute/reduction pair. Free of virtual cost.
	Contribute(v int64)
	// Flush force-seals every aggregation buffer the calling worker owns
	// (and, for PP, its process's shared buffers).
	Flush()
	// Charge advances the virtual clock by the modelled cost d (Sim); no-op
	// on Real.
	Charge(d time.Duration)
	// Now returns the current time: virtual nanoseconds on Sim, wall time
	// since the run's start on Real.
	Now() time.Duration
	// Post schedules fn to run later on this worker, after currently queued
	// deliveries — a normal-priority self-message on Sim, the worker's
	// local task queue on Real.
	Post(fn func(Ctx))
}

// Codec packs items of type T into single 64-bit words — the fixed-size,
// word-packed framing TramLib items use on the wire. Encode/Decode must be
// pure and allocation-free so the insert/deliver hot path stays zero-alloc;
// Decode(Encode(v)) must reproduce v exactly.
type Codec[T any] interface {
	Encode(T) uint64
	Decode(uint64) T
}

// U64Codec is the identity codec for applications that pack their own words
// — today's uint64 fast path.
type U64Codec struct{}

func (U64Codec) Encode(v uint64) uint64 { return v }
func (U64Codec) Decode(w uint64) uint64 { return w }

// Pair is a generic two-field item: a 32-bit key and a 32-bit value (the
// <vertex, distance> shape of graph updates).
type Pair struct {
	Key uint32
	Val uint32
}

// PairCodec packs a Pair into one word: key in the high half.
type PairCodec struct{}

func (PairCodec) Encode(p Pair) uint64 { return uint64(p.Key)<<32 | uint64(p.Val) }
func (PairCodec) Decode(w uint64) Pair { return Pair{Key: uint32(w >> 32), Val: uint32(w)} }

// Lib is the typed item surface of the aggregation library: a Codec bound to
// the Insert/Flush verbs. It is a value (no allocation, freely copyable);
// the library state itself lives in the backend run the Ctx belongs to.
type Lib[T any] struct {
	// Codec packs items into words. Must be non-nil to Run.
	Codec Codec[T]
}

// NewLib returns a typed library surface over codec.
func NewLib[T any](codec Codec[T]) Lib[T] { return Lib[T]{Codec: codec} }

// U64 returns the uint64 fast-path library (identity codec).
func U64() Lib[uint64] { return NewLib[uint64](U64Codec{}) }

// Pairs returns a Lib over Pair items.
func Pairs() Lib[Pair] { return NewLib[Pair](PairCodec{}) }

// Insert submits one item for delivery to worker dest through the configured
// aggregation scheme. It must be called from a kernel or Deliver function
// executing on the sending worker (ctx.Self() is the source).
func (l Lib[T]) Insert(ctx Ctx, dest WorkerID, v T) { ctx.Send(dest, l.Codec.Encode(v)) }

// Flush force-seals every buffer the calling worker owns, sending partial
// buffers as resized messages — the paper's end-of-phase flush.
func (l Lib[T]) Flush(ctx Ctx) { ctx.Flush() }

// KernelFunc is one generation step of a worker's kernel, called with
// step = 0 .. steps-1 on the worker's own execution context.
type KernelFunc func(ctx Ctx, step int)

// App is an aggregation application: where items come from (Spawn) and what
// happens when they arrive (Deliver). Written once, it runs unchanged on
// either backend via Lib.Run.
type App[T any] struct {
	// Deliver receives one item at its destination worker. It runs on the
	// destination's execution context (serial per worker on both backends),
	// so per-worker application state indexed by ctx.Self() needs no
	// locking. May itself Insert (request-response chains extend the run
	// until quiescence). Optional: nil ignores deliveries.
	Deliver func(ctx Ctx, item T)
	// Spawn assigns each worker its kernel: the number of generation steps
	// and the step function. Zero steps or a nil kernel means the worker
	// only consumes. Called once per worker, in worker order, before the
	// run starts.
	Spawn func(w WorkerID) (steps int, kernel KernelFunc)
	// FlushOnDone flushes a worker's buffers when its kernel finishes its
	// last step (the per-PE end-of-phase flush the paper's benchmarks
	// issue). The Real backend always flushes exhausted workers — this
	// controls only the Sim backend, where an extra flush has a modelled
	// cost.
	FlushOnDone bool
}

// rawApp is the word-level application the backends execute.
type rawApp struct {
	deliver     func(ctx Ctx, word uint64)
	spawn       func(w WorkerID) (int, KernelFunc)
	flushOnDone bool
}

// Backend executes applications. The three implementations are Sim (the
// deterministic discrete-event simulator, virtual-time metrics), Real
// (goroutines over lock-free shared-memory buffers, wall-clock metrics),
// and Dist (one OS process per ProcID over Unix-domain sockets, wall-clock
// metrics aggregated from per-process reports; requires a RegisterDist
// registration — see the dist.go package section).
type Backend interface {
	// String names the backend ("sim", "real", or "dist").
	String() string
	run(cfg Config, app rawApp) (Metrics, error)
	// serve starts a long-running ingestion service (Lib.Serve). Real serves
	// in-process; Dist serves with the frontend on worker process 0; Sim
	// cannot serve (virtual time has no live clients).
	serve(cfg Config, app rawApp) (*Server, error)
}

// bind lowers the typed app to the word-level rawApp the backends execute.
func (l Lib[T]) bind(app App[T]) (rawApp, error) {
	if l.Codec == nil {
		return rawApp{}, fmt.Errorf("tram: Lib has no Codec")
	}
	raw := rawApp{spawn: app.Spawn, flushOnDone: app.FlushOnDone}
	if raw.spawn == nil {
		raw.spawn = func(WorkerID) (int, KernelFunc) { return 0, nil }
	}
	words, wordItems := any(app.Deliver).(func(Ctx, uint64))
	_, identity := any(l.Codec).(U64Codec)
	switch {
	case app.Deliver == nil:
		raw.deliver = func(Ctx, uint64) {}
	case wordItems && identity:
		raw.deliver = words // the word is the item: no decode step
	default:
		deliver, codec := app.Deliver, l.Codec
		raw.deliver = func(ctx Ctx, word uint64) { deliver(ctx, codec.Decode(word)) }
	}
	return raw, nil
}

// Run executes app under cfg on backend b and returns the run's metrics.
// The typed Deliver is bound through l's codec; kernels insert through
// l.Insert. Run blocks until global quiescence: every inserted item
// delivered, every posted task executed, every kernel exhausted.
//
// On the Dist backend the bound closures never execute in this process —
// worker processes rebuild the application from cfg.Dist's registration,
// and in-memory results come back through Metrics.Reports.
func (l Lib[T]) Run(b Backend, cfg Config, app App[T]) (Metrics, error) {
	raw, err := l.bind(app)
	if err != nil {
		return Metrics{}, err
	}
	return b.run(cfg, raw)
}
