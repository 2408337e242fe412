// Package charm implements a message-driven execution runtime in the style of
// Charm++ SMP mode, running on the deterministic simulator in internal/sim.
//
// Each worker PE is a serial actor: it owns a prioritized message queue
// (expedited messages first, FIFO within a class — Charm++'s expedited entry
// methods, which TramLib uses to prioritize aggregated messages) and executes
// one handler at a time. Handler execution consumes virtual time through
// explicit cost charging: application and library code call Ctx.Charge for
// each modelled operation (hash update, buffer insert, sort step, ...), and
// sends issued mid-handler are released at the handler's current time cursor,
// so the interleaving of computation and communication is faithful.
//
// Messages between PEs of the same process are delivered directly (a cheap
// shared-memory enqueue); messages crossing process boundaries go through
// internal/netsim and its comm-thread model.
//
// Quiescence: Runtime.Run executes until no events remain, which — because
// every in-flight message and armed timer is an event — is exactly Charm++'s
// quiescence detection. The returned time is the instant the last PE went
// idle.
package charm

import (
	"fmt"

	"tramlib/internal/cluster"
	"tramlib/internal/netsim"
	"tramlib/internal/sim"
)

// HandlerID names a registered handler. Handlers are registered once per
// Runtime (they are shared by all PEs, like Charm++ entry methods).
type HandlerID uint16

// HandlerFunc is the code run when a message is delivered. data is the
// message payload; bytes is the modelled wire size used by the cost model.
type HandlerFunc func(ctx *Ctx, data any, bytes int)

// IdleFunc runs when a PE transitions from busy to idle (its queue drained).
// TramLib registers idle-flush hooks here.
type IdleFunc func(ctx *Ctx)

// message is one queued delivery.
type message struct {
	handler    HandlerID
	data       any
	bytes      int
	recvCharge sim.Time // non-SMP receive processing, paid before the handler
	enqueuedAt sim.Time
}

// delivery is a pooled engine-event node that enqueues one message at its
// release time. Its two closures (fn for timed enqueues, deliverFn for
// network-delivery callbacks) are allocated once per node, so steady-state
// sends and timers schedule engine events without allocating. A node returns
// to the pool when it runs; a node whose timer is cancelled is simply dropped
// to the garbage collector (the engine clears its closure reference).
type delivery struct {
	rt        *Runtime
	pe        *PE            // destination; nil selects round-robin in proc
	proc      cluster.ProcID // destination process when pe == nil
	m         message
	expedited bool
	fn        func()
	deliverFn func(at, recvCharge sim.Time)
}

func (rt *Runtime) getDelivery(pe *PE, proc cluster.ProcID, m message, expedited bool) *delivery {
	var d *delivery
	if n := len(rt.deliveryPool); n > 0 {
		d = rt.deliveryPool[n-1]
		rt.deliveryPool = rt.deliveryPool[:n-1]
	} else {
		d = &delivery{}
		d.fn = d.run
		d.deliverFn = d.deliverAt
	}
	d.rt = rt
	d.pe = pe
	d.proc = proc
	d.m = m
	d.expedited = expedited
	return d
}

// run releases the node back to the pool and enqueues its message. Freeing
// first is safe — enqueue schedules only the PE's preallocated pump closure —
// and lets nested sends reuse the node immediately.
func (d *delivery) run() {
	rt, pe, m, exp := d.rt, d.pe, d.m, d.expedited
	if pe == nil {
		// Process-addressed delivery: pick the receiving PE at delivery
		// time (Charm++ nodegroup round-robin), as the seed runtime did.
		pe = rt.pes[rt.nextRR(d.proc)]
	}
	d.pe = nil
	d.m = message{}
	rt.deliveryPool = append(rt.deliveryPool, d)
	rt.enqueue(pe, m, exp)
}

// deliverAt adapts run to netsim's delivery callback signature.
func (d *delivery) deliverAt(at, recvCharge sim.Time) {
	d.m.enqueuedAt = at
	d.m.recvCharge = recvCharge
	d.run()
}

// fifo is an amortized O(1) queue of messages.
type fifo struct {
	buf  []message
	head int
}

func (q *fifo) empty() bool { return q.head >= len(q.buf) }
func (q *fifo) len() int    { return len(q.buf) - q.head }
func (q *fifo) push(m message) {
	if q.head > 64 && q.head*2 > len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, m)
}
func (q *fifo) pop() message {
	m := q.buf[q.head]
	q.buf[q.head] = message{}
	q.head++
	return m
}

// PE is one worker. All fields are managed by the runtime.
type PE struct {
	id        cluster.WorkerID
	proc      cluster.ProcID
	rt        *Runtime
	expedited fifo
	normal    fifo
	busyUntil sim.Time
	scheduled bool // a pump or idle event is pending
	idleFns   []IdleFunc

	// pumpFn and idleFn are the PE's scheduler closures, and ctx its
	// handler context, allocated once at construction so the per-handler
	// execution path is allocation-free. Reusing ctx is sound because a PE
	// is a serial actor: one handler (or idle hook) runs at a time, and
	// the Ctx contract does not allow retaining it past the handler.
	pumpFn func()
	idleFn func()
	ctx    Ctx

	Messages int64 // handlers executed
	BusyTime sim.Time
}

// ID returns the PE's global worker id.
func (p *PE) ID() cluster.WorkerID { return p.id }

// Ctx returns the PE's handler context: the pointer every handler and idle
// hook on this PE receives for the whole run (its fields are reset at each
// entry).
func (p *PE) Ctx() *Ctx { return &p.ctx }

// Ctx is the execution context passed to handlers and idle hooks. It carries
// the handler's virtual-time cursor: Now() advances as the handler charges
// costs, and sends are released at the cursor's current value.
type Ctx struct {
	rt  *Runtime
	pe  *PE
	now sim.Time
}

// Runtime ties together the topology, the network, and the PEs.
type Runtime struct {
	Eng  *sim.Engine
	Topo cluster.Topology
	Net  *netsim.Network

	// HandlerOverhead is the fixed scheduling cost per handler execution.
	HandlerOverhead sim.Time
	// LocalSendCharge is what a sender pays for a same-process send.
	LocalSendCharge sim.Time
	// LocalDeliverLatency is the enqueue-to-visible delay of a same-process
	// send (shared-memory queue push + wakeup).
	LocalDeliverLatency sim.Time

	pes          []*PE
	handlers     []HandlerFunc
	names        []string
	procRR       []int32     // round-robin cursor per process for proc-addressed sends
	deliveryPool []*delivery // recycled send/timer event nodes

	lastIdle sim.Time // latest time any PE finished its last handler

	MessagesLocal  int64
	MessagesRemote int64
}

// NewRuntime builds a runtime over a fresh engine and network.
func NewRuntime(topo cluster.Topology, params netsim.Params) *Runtime {
	eng := sim.NewEngine()
	rt := &Runtime{
		Eng:                 eng,
		Topo:                topo,
		Net:                 netsim.New(eng, topo, params),
		HandlerOverhead:     60 * sim.Nanosecond,
		LocalSendCharge:     40 * sim.Nanosecond,
		LocalDeliverLatency: 150 * sim.Nanosecond,
		procRR:              make([]int32, topo.TotalProcs()),
	}
	rt.pes = make([]*PE, topo.TotalWorkers())
	for i := range rt.pes {
		w := cluster.WorkerID(i)
		pe := &PE{
			id:   w,
			proc: topo.ProcOf(w),
			rt:   rt,
		}
		pe.pumpFn = func() { rt.pump(pe) }
		pe.idleFn = func() {
			pe.scheduled = false
			if !pe.expedited.empty() || !pe.normal.empty() {
				// A message arrived between handler end and the idle event.
				pe.scheduled = true
				rt.pump(pe)
				return
			}
			rt.idle(pe)
		}
		rt.pes[i] = pe
	}
	return rt
}

// Register adds a handler and returns its id. Must be called before Run.
func (rt *Runtime) Register(name string, fn HandlerFunc) HandlerID {
	rt.handlers = append(rt.handlers, fn)
	rt.names = append(rt.names, name)
	return HandlerID(len(rt.handlers) - 1)
}

// PEs returns the number of worker PEs.
func (rt *Runtime) PEs() int { return len(rt.pes) }

// PE returns the worker with the given id.
func (rt *Runtime) PE(w cluster.WorkerID) *PE { return rt.pes[w] }

// OnIdle registers fn to run every time worker w's queue drains.
func (rt *Runtime) OnIdle(w cluster.WorkerID, fn IdleFunc) {
	rt.pes[w].idleFns = append(rt.pes[w].idleFns, fn)
}

// Inject schedules a message delivery to worker w at time t, from outside any
// handler. Used to kick off applications (the Charm++ mainchare broadcast).
func (rt *Runtime) Inject(t sim.Time, w cluster.WorkerID, h HandlerID, data any) {
	rt.Eng.At(t, func() {
		rt.enqueue(rt.pes[w], message{handler: h, data: data, enqueuedAt: t}, false)
	})
}

// Run executes to quiescence and returns the completion time: the instant the
// last handler (including idle hooks) finished.
func (rt *Runtime) Run() sim.Time {
	rt.Eng.Run()
	return rt.lastIdle
}

// Now returns the engine's current virtual time.
func (rt *Runtime) Now() sim.Time { return rt.Eng.Now() }

// enqueue places m on pe's queue and makes sure a pump event is scheduled.
func (rt *Runtime) enqueue(pe *PE, m message, expedited bool) {
	if expedited {
		pe.expedited.push(m)
	} else {
		pe.normal.push(m)
	}
	if !pe.scheduled {
		pe.scheduled = true
		at := rt.Eng.Now()
		if pe.busyUntil > at {
			at = pe.busyUntil
		}
		rt.Eng.At(at, pe.pumpFn)
	}
}

// pump executes exactly one handler on pe, then reschedules itself or
// transitions the PE to idle.
func (rt *Runtime) pump(pe *PE) {
	var m message
	switch {
	case !pe.expedited.empty():
		m = pe.expedited.pop()
	case !pe.normal.empty():
		m = pe.normal.pop()
	default:
		// Queue drained before the pump fired (cannot normally happen,
		// but keep the invariant that scheduled implies a future event).
		pe.scheduled = false
		rt.idle(pe)
		return
	}
	start := rt.Eng.Now()
	if pe.busyUntil > start {
		start = pe.busyUntil
	}
	pe.ctx = Ctx{rt: rt, pe: pe, now: start}
	ctx := &pe.ctx
	ctx.Charge(rt.HandlerOverhead + m.recvCharge)
	rt.handlers[m.handler](ctx, m.data, m.bytes)
	pe.BusyTime += ctx.now - start
	pe.Messages++
	pe.busyUntil = ctx.now
	if pe.busyUntil > rt.lastIdle {
		rt.lastIdle = pe.busyUntil
	}
	if !pe.expedited.empty() || !pe.normal.empty() {
		rt.Eng.At(pe.busyUntil, pe.pumpFn)
		return
	}
	// Schedule the idle transition at the handler's end time so that idle
	// hooks observe the correct clock and quiescence time is exact.
	rt.Eng.At(pe.busyUntil, pe.idleFn)
}

// idle runs the PE's idle hooks. Hooks run in a context starting at the PE's
// busyUntil; any costs they charge extend the PE's busy time.
func (rt *Runtime) idle(pe *PE) {
	if len(pe.idleFns) == 0 {
		return
	}
	start := rt.Eng.Now()
	if pe.busyUntil > start {
		start = pe.busyUntil
	}
	pe.ctx = Ctx{rt: rt, pe: pe, now: start}
	ctx := &pe.ctx
	for _, fn := range pe.idleFns {
		fn(ctx)
	}
	pe.BusyTime += ctx.now - start
	pe.busyUntil = ctx.now
	if pe.busyUntil > rt.lastIdle {
		rt.lastIdle = pe.busyUntil
	}
}

// --- Ctx API ---

// Self returns the executing worker's id.
func (c *Ctx) Self() cluster.WorkerID { return c.pe.id }

// Proc returns the executing worker's process.
func (c *Ctx) Proc() cluster.ProcID { return c.pe.proc }

// Runtime returns the runtime (for topology queries etc.).
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Now returns the handler's current virtual-time cursor.
func (c *Ctx) Now() sim.Time { return c.now }

// Charge advances the handler's time cursor by d, modelling computation.
func (c *Ctx) Charge(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("charm: negative charge %d", d))
	}
	c.now += d
}

// Send delivers a message to worker `to`. Same-process destinations are a
// direct shared-memory enqueue; remote destinations go through the network
// and comm threads. The message is released at the handler's current cursor.
func (c *Ctx) Send(to cluster.WorkerID, h HandlerID, data any, bytes int, expedited bool) {
	rt := c.rt
	dstProc := rt.Topo.ProcOf(to)
	if dstProc == c.pe.proc {
		rt.MessagesLocal++
		c.Charge(rt.LocalSendCharge)
		arrive := c.now + rt.LocalDeliverLatency
		d := rt.getDelivery(rt.pes[to], 0, message{handler: h, data: data, bytes: bytes, enqueuedAt: arrive}, expedited)
		rt.Eng.At(arrive, d.fn)
		return
	}
	rt.MessagesRemote++
	d := rt.getDelivery(rt.pes[to], 0, message{handler: h, data: data, bytes: bytes}, expedited)
	c.Charge(rt.Net.Send(c.pe.proc, dstProc, bytes, c.now, d.deliverFn))
}

// SendToProc delivers a message to process p; the runtime picks the receiving
// PE round-robin among p's workers (Charm++ nodegroup semantics). Used by the
// WPs/WsP/PP schemes whose aggregated messages are addressed to a process.
func (c *Ctx) SendToProc(p cluster.ProcID, h HandlerID, data any, bytes int, expedited bool) {
	rt := c.rt
	if p == c.pe.proc {
		// Process-local aggregated message: deliver to the next PE
		// round-robin, as a local send.
		to := rt.nextRR(p)
		c.Send(to, h, data, bytes, expedited)
		return
	}
	rt.MessagesRemote++
	d := rt.getDelivery(nil, p, message{handler: h, data: data, bytes: bytes}, expedited)
	c.Charge(rt.Net.Send(c.pe.proc, p, bytes, c.now, d.deliverFn))
}

func (rt *Runtime) nextRR(p cluster.ProcID) cluster.WorkerID {
	r := rt.procRR[p]
	rt.procRR[p] = (r + 1) % int32(rt.Topo.WorkersPerProc)
	return rt.Topo.WorkerOf(p, int(r))
}

// After schedules fn to run on this PE's context d nanoseconds after the
// handler's current cursor, as an expedited zero-byte self-message. Used for
// timeout-based flushes. The returned timer can be cancelled.
func (c *Ctx) After(d sim.Time, h HandlerID, data any) sim.Timer {
	rt := c.rt
	at := c.now + d
	del := rt.getDelivery(c.pe, 0, message{handler: h, data: data, enqueuedAt: at}, true)
	return rt.Eng.At(at, del.fn)
}

// TimerAt schedules a handler message on worker w at absolute time t, from
// outside a handler context (runtime-level timers).
func (rt *Runtime) TimerAt(t sim.Time, w cluster.WorkerID, h HandlerID, data any) sim.Timer {
	d := rt.getDelivery(rt.pes[w], 0, message{handler: h, data: data, enqueuedAt: t}, true)
	return rt.Eng.At(t, d.fn)
}

// QueueLen returns the number of pending messages on worker w (diagnostics).
func (rt *Runtime) QueueLen(w cluster.WorkerID) int {
	pe := rt.pes[w]
	return pe.expedited.len() + pe.normal.len()
}
