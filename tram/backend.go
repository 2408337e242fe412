package tram

import (
	"time"

	"tramlib/internal/charm"
	"tramlib/internal/core"
	"tramlib/internal/rt"
	"tramlib/internal/sim"
)

// Metrics reports one completed run. Fields that only one backend can
// measure are zero on the other; Virtual says which clock the times are on.
type Metrics struct {
	// Virtual is true for Sim runs: Time and LastDelivery are virtual
	// (modelled) nanoseconds, bit-identical across hosts. False for Real
	// runs: they are measured wall-clock.
	Virtual bool
	// Time is the makespan to global quiescence (the instant the last
	// handler finished on Sim; goroutine launch to quiescence on Real).
	Time time.Duration
	// LastDelivery is the instant the last item was handed to Deliver —
	// the completion time the paper's benchmarks report (flush/timer tails
	// after it do not count). Equal to Time on Real.
	LastDelivery time.Duration
	// Wall is the host wall-clock time of the run (== Time on Real).
	Wall time.Duration

	// Inserted counts items submitted; Delivered counts items handed to
	// the application (they are equal at quiescence). SelfItems counts
	// items a worker sent to itself, delivered inline; LocalDirect counts
	// items delivered unbuffered through the SMP-aware same-process path —
	// items for another worker of the sender's process, self items
	// excluded. Both mean the same on every backend, and
	// Delivered − SelfItems − LocalDirect items travelled in Batches.
	Inserted, Delivered, SelfItems, LocalDirect int64
	// Batches counts aggregated messages; FullMsgs of them sealed because
	// a buffer filled, FlushMsgs by an explicit/idle/timeout flush, and
	// DeadlineFlushes (Real) by the FlushDeadline latency bound.
	Batches, FullMsgs, FlushMsgs, DeadlineFlushes int64
	// RemoteMsgs / LocalMsgs split Batches by process-boundary crossing;
	// InterNodeMsgs counts messages crossing physical nodes and BytesSent
	// their wire bytes. Sim only (one host has no wire).
	RemoteMsgs, LocalMsgs, InterNodeMsgs, BytesSent int64
	// Reduced is the sum of all Contribute values.
	Reduced int64
	// CommUtilMax is the peak comm-thread utilization up to LastDelivery
	// (1.0 = saturated). Sim only.
	CommUtilMax float64
	// Events is the number of simulator events executed. Sim only.
	Events uint64
	// Latency is the per-item insert→deliver latency histogram in virtual
	// nanoseconds; nil unless Config.TrackLatency (Sim only).
	Latency *Hist
	// Reports holds each worker process's application report, indexed by
	// ProcID. Dist only: it is how results living in worker-process memory
	// (histogram tables, distance arrays) reach the coordinating process —
	// see BindDist's report hook.
	Reports [][]byte
}

// Sim is the simulated backend: the deterministic discrete-event simulator
// modelling the multi-node SMP cluster, its alpha-beta network, and the
// §III-C cost model. Metrics are virtual time — identical for a fixed seed
// on every host.
var Sim Backend = simBackend{}

// Real is the measured backend: one goroutine per worker over the lock-free
// shared-memory aggregation buffers, each held to the FlushDeadline by the
// goroutines that fill it. Metrics are host wall-clock.
var Real Backend = realBackend{}

// --- simulated backend ---

type simBackend struct{}

func (simBackend) String() string { return "sim" }

// simRun holds one simulated execution: the reusable per-worker contexts and
// the library instance the Ctx verbs forward to.
type simRun struct {
	lib     *core.Lib
	hPost   charm.HandlerID
	ctxs    []simCtx
	contrib []int64
	lastDel sim.Time
}

// simCtx adapts a charm handler context to the tram Ctx interface. One per
// worker, bound before the run to the PE's handler context, which charm
// reuses for every handler on that PE; handler execution is serial per PE,
// so the adapter needs no locking.
type simCtx struct {
	run *simRun
	ch  *charm.Ctx
}

func (c *simCtx) Self() WorkerID               { return c.ch.Self() }
func (c *simCtx) Proc() ProcID                 { return c.ch.Proc() }
func (c *simCtx) Send(dest WorkerID, w uint64) { c.run.lib.Insert(c.ch, dest, w) }
func (c *simCtx) Contribute(v int64)           { c.run.contrib[c.ch.Self()] += v }
func (c *simCtx) Flush()                       { c.run.lib.Flush(c.ch) }
func (c *simCtx) Charge(d time.Duration)       { c.ch.Charge(sim.Time(d)) }
func (c *simCtx) Now() time.Duration           { return time.Duration(c.ch.Now()) }

// Post sends fn to self as a normal-priority zero-byte message, so queued
// deliveries (including expedited aggregation packets) run first.
func (c *simCtx) Post(fn func(Ctx)) { c.ch.Send(c.ch.Self(), c.run.hPost, fn, 0, false) }

func (simBackend) run(cfg Config, app rawApp) (Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return Metrics{}, err
	}
	start := time.Now()
	chrt := charm.NewRuntime(cfg.Topo, cfg.Net)
	drv := charm.NewLoopDriver(chrt)
	W := cfg.Topo.TotalWorkers()

	b := &simRun{
		ctxs:    make([]simCtx, W),
		contrib: make([]int64, W),
	}
	for i := range b.ctxs {
		b.ctxs[i] = simCtx{run: b, ch: chrt.PE(WorkerID(i)).Ctx()}
	}
	b.hPost = chrt.Register("tram.post", func(ctx *charm.Ctx, data any, _ int) {
		data.(func(Ctx))(&b.ctxs[ctx.Self()])
	})
	b.lib = core.New(chrt, cfg.simConfig(), func(ctx *charm.Ctx, word uint64) {
		app.deliver(&b.ctxs[ctx.Self()], word)
		b.lastDel = ctx.Now()
	})

	chunk := cfg.ChunkSize
	var done func(*charm.Ctx)
	if app.flushOnDone {
		done = func(ctx *charm.Ctx) { b.lib.Flush(ctx) }
	}
	for w := 0; w < W; w++ {
		steps, kernel := app.spawn(WorkerID(w))
		if steps <= 0 || kernel == nil {
			continue
		}
		sc := &b.ctxs[w]
		drv.Spawn(WorkerID(w), steps, chunk, func(_ *charm.Ctx, i int) {
			kernel(sc, i)
		}, done)
	}
	end := chrt.Run()

	lm := &b.lib.M
	m := Metrics{
		Virtual:       true,
		Time:          time.Duration(end),
		LastDelivery:  time.Duration(b.lastDel),
		Wall:          time.Since(start),
		Inserted:      lm.Inserted.Value(),
		Delivered:     lm.Delivered.Value(),
		SelfItems:     lm.SelfItems.Value(),
		LocalDirect:   lm.LocalDirect.Value(),
		Batches:       lm.RemoteMsgs.Value() + lm.LocalMsgs.Value(),
		FullMsgs:      lm.FullMsgs.Value(),
		FlushMsgs:     lm.FlushMsgs.Value(),
		RemoteMsgs:    lm.RemoteMsgs.Value(),
		LocalMsgs:     lm.LocalMsgs.Value(),
		InterNodeMsgs: chrt.Net.M.MessagesInterNode.Value(),
		BytesSent:     lm.BytesSent.Value(),
		CommUtilMax:   chrt.Net.MaxCommUtilization(b.lastDel),
		Events:        chrt.Eng.Processed(),
	}
	if cfg.TrackLatency {
		m.Latency = lm.Latency
	}
	for _, v := range b.contrib {
		m.Reduced += v
	}
	return m, nil
}

// --- real backend ---

type realBackend struct{}

func (realBackend) String() string { return "real" }

// realBind adapts the word-level app to the goroutine runtime's per-worker
// bind hook — for the Real backend directly and for the Dist backend's
// worker processes (tram.Main), which run the same runtime restricted to one
// process of the topology. Each worker's adapter is built and pointed at its
// runtime context once; the kernel and delivery closures hand the app that
// adapter directly. The run's clock starts here.
func realBind(app rawApp) rt.BindFunc {
	start := time.Now()
	return func(ctx *rt.Ctx) (int, rt.KernelFunc, rt.DeliverFunc) {
		c := &realCtx{start: start, rc: ctx}
		c.pump = c.runPending
		deliver := app.deliver
		onItem := func(_ *rt.Ctx, word uint64) { deliver(c, word) }
		steps, kernel := app.spawn(ctx.Self())
		if steps <= 0 || kernel == nil {
			return 0, nil, onItem
		}
		return steps, func(_ *rt.Ctx, i int) { kernel(c, i) }, onItem
	}
}

// realCtx adapts a goroutine-runtime context to the tram Ctx interface. One
// per worker, bound once to that worker's context and touched only by the
// owning goroutine.
type realCtx struct {
	start time.Time
	rc    *rt.Ctx

	// pending queues tram-level posted tasks; pump is the single adapter
	// closure (built once per worker) handed to rt.Ctx.Post, which pops and
	// runs exactly one pending task per firing. Routing every Post through
	// one reusable closure keeps the worklist hot path allocation-free.
	pending     []func(Ctx)
	pendingHead int
	pump        func(*rt.Ctx)
}

func (c *realCtx) Self() WorkerID               { return c.rc.Self() }
func (c *realCtx) Proc() ProcID                 { return c.rc.Proc() }
func (c *realCtx) Send(dest WorkerID, w uint64) { c.rc.Send(dest, w) }
func (c *realCtx) Contribute(v int64)           { c.rc.Contribute(v) }
func (c *realCtx) Flush()                       { c.rc.Flush() }

// Charge is a no-op: real time passes by itself.
func (c *realCtx) Charge(time.Duration) {}

// Now is wall time since the run started.
func (c *realCtx) Now() time.Duration { return time.Since(c.start) }

// Post enqueues fn on the worker's local task queue. The runtime sees only
// the worker's pre-built pump closure; fn lands on the adapter's own FIFO,
// so posting allocates nothing beyond amortized queue growth.
func (c *realCtx) Post(fn func(Ctx)) {
	c.pending = append(c.pending, fn)
	c.rc.Post(c.pump)
}

// runPending pops and runs one posted task (the pump body).
func (c *realCtx) runPending(*rt.Ctx) {
	fn := c.pending[c.pendingHead]
	c.pending[c.pendingHead] = nil
	c.pendingHead++
	if c.pendingHead == len(c.pending) {
		c.pending = c.pending[:0]
		c.pendingHead = 0
	}
	fn(c)
}

func (realBackend) run(cfg Config, app rawApp) (Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return Metrics{}, err
	}
	rtm := rt.NewBound(cfg.realConfig(), realBind(app))
	return realMetrics(rtm.Run()), nil
}

// realMetrics reports a whole-topology run of the goroutine runtime.
func realMetrics(res rt.Result) Metrics {
	m := Metrics{Time: res.Wall, LastDelivery: res.Wall, Wall: res.Wall}
	m.addRT(res)
	return m
}

// addRT adds one runtime's counters to m: the whole run's on Real, one
// process's share on Dist.
func (m *Metrics) addRT(res rt.Result) {
	m.Inserted += res.Inserted
	m.Delivered += res.Delivered
	m.SelfItems += res.SelfItems
	m.LocalDirect += res.LocalDirect
	m.Batches += res.Batches
	m.FullMsgs += res.FullBatches
	m.FlushMsgs += res.Flushes
	m.DeadlineFlushes += res.DeadlineFlushes
	m.Reduced += res.Reduced
}
