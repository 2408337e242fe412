// Serve mode: the run-forever lifecycle and bounded external ingress of the
// tramserve subsystem (internal/serve, tram.Serve).
//
// A batch run ends itself at global quiescence; a service never does — it
// absorbs an open event stream and only the operator ends it. Config.Serve
// turns the quiescence transition into a notification (the same SetQuietNotify
// channel partitioned mode uses) and leaves termination to Stop, which the
// drain sequence calls after WaitQuiet proves every admitted event delivered.
//
// External events enter through Ingest, never through the unbounded inbox
// directly. Each destination worker has an admission window of
// Config.IngressCap credits (a channel semaphore); an event holds one credit
// from admission to delivery, so the serve path adds at most IngressCap items
// per destination to the inbox — bounded by construction, no Treiber-stack
// growth — and a stalled consumer blocks exactly the clients targeting it
// (Ingest blocks → the frontend stops reading that connection → TCP
// backpressure) while other destinations keep flowing. Runtime-internal
// traffic (kernel Sends, Deliver chains) is deliberately NOT gated: gating it
// would deadlock workers against each other, and its volume is bounded by the
// admitted events' amplification.
//
// In partitioned serve mode (the Dist frontend process), ingress items bound
// for remote processes aggregate in a dedicated multi-producer buffer per
// destination process — frontend connection goroutines are not workers and
// own no single-producer buffers — sealed by occupancy or by the deadline
// (the frontend's workers check them with the shared buffers they fill, the
// progress goroutine behind them), then shipped through Part.Remote like any
// other batch. Their credits release at hand-off to the transport, whose links are
// bounded by construction, so the end-to-end admitted-but-unsent bound per
// destination is IngressCap + one sealing batch.
package rt

import (
	"errors"
	"fmt"
	"time"

	"tramlib/internal/cluster"
	"tramlib/internal/shmem"
	"tramlib/internal/stats"
)

// Serve-mode sentinel errors.
var (
	// ErrNotServing marks Ingest on a runtime without Config.Serve.
	ErrNotServing = errors.New("rt: runtime is not in serve mode")
	// ErrStopped marks an ingest attempted after Stop.
	ErrStopped = errors.New("rt: runtime stopped")
	// ErrIngestAborted marks an ingest abandoned via its abort channel.
	ErrIngestAborted = errors.New("rt: ingest aborted")
)

// wireServe builds the serve-mode structures: one admission gate per
// destination worker, and (partitioned mode, aggregating schemes) one
// multi-producer ingress buffer per remote process.
func (rt *Runtime) wireServe(cfg Config) {
	cap := cfg.IngressCap
	if cap <= 0 {
		cap = DefaultIngressCap
	}
	rt.gates = make([]chan struct{}, rt.topo.TotalWorkers())
	for i := range rt.gates {
		rt.gates[i] = make(chan struct{}, cap)
	}
	if rt.part != nil && rt.plan.Buffered {
		rt.ingressTo = make([]*shmem.MPBuffer[Item], rt.topo.TotalProcs())
		for p := range rt.ingressTo {
			if cluster.ProcID(p) == rt.part.Proc {
				continue
			}
			// Ingress buffers are process-addressed: under a process-addressed
			// plan their index is a route and their seals feed its accounting
			// and deadline; under a worker-addressed one no single route
			// accounts for them and they keep the static bound.
			route := -1
			if rt.plan.ProcRouted {
				route = p
			}
			s := rt.newShared(route, cluster.ProcID(p), true)
			rt.ingressTo[p] = s.buf
			rt.ingress = append(rt.ingress, s)
		}
	}
}

// Ingest admits one external event for delivery to worker dest, blocking
// while the destination's admission window is full (backpressure). A nil
// abort channel blocks until admission or Stop. On success the event is in
// the runtime — an admission-time ack is a delivery guarantee once the drain
// sequence completes. Safe from any goroutine.
func (rt *Runtime) Ingest(dest cluster.WorkerID, value uint64, abort <-chan struct{}) error {
	if rt.gates == nil {
		return ErrNotServing
	}
	if int(dest) < 0 || int(dest) >= len(rt.gates) {
		return fmt.Errorf("rt: ingest dest %d outside topology %v", dest, rt.topo)
	}
	g := rt.gates[dest]
	select {
	case g <- struct{}{}:
	default:
		select {
		case g <- struct{}{}:
		case <-abort:
			return ErrIngestAborted
		case <-rt.done:
			return ErrStopped
		}
	}
	// Re-check after a possibly long block: an event admitted after Stop
	// would be silently dropped by the exiting workers.
	select {
	case <-rt.done:
		<-g
		return ErrStopped
	default:
	}
	rt.admit(dest, value)
	return nil
}

// TryIngest admits one external event without blocking, reporting false if
// the destination's admission window is full (deterministic load shedding)
// or the runtime is stopped. Safe from any goroutine.
func (rt *Runtime) TryIngest(dest cluster.WorkerID, value uint64) bool {
	if rt.gates == nil || int(dest) < 0 || int(dest) >= len(rt.gates) {
		return false
	}
	select {
	case <-rt.done:
		return false
	default:
	}
	select {
	case rt.gates[dest] <- struct{}{}:
	default:
		return false
	}
	rt.admit(dest, value)
	return true
}

// admit routes an admitted event (its credit already held) into the runtime.
func (rt *Runtime) admit(dest cluster.WorkerID, value uint64) {
	rt.M.Ingested.Add(1)
	rt.inflight.Add(1)
	if rt.part != nil && rt.topo.ProcOf(dest) != rt.part.Proc {
		// Adaptive path selection applies to ingress like any other insert:
		// count the event on the destination's route and honor its framing.
		direct := false
		if rt.routes != nil {
			r := &rt.routes[rt.plan.Route(rt.topo, dest)]
			r.events.Add(1)
			direct = r.direct.Load()
		}
		// ingressTo is nil when the plan buffers nothing.
		if !direct && rt.ingressTo != nil {
			rt.ingressTo[rt.topo.ProcOf(dest)].Push(Item{Dest: dest, Val: value})
			return
		}
		// Direct framing (the Direct scheme, or an adaptive route below the
		// amortization threshold): one wire message per event, credit
		// released at hand-off like a sealed batch's.
		if direct {
			rt.M.IngestedDirect.Add(1)
		}
		rt.sentCross.Add(1)
		rt.part.Remote.SendOne(dest, value)
		rt.releaseIngress(dest)
		rt.finish(1)
		return
	}
	m := rt.getMsg()
	m.kind = mkToWorker
	m.inlined = true
	m.ingress = true
	m.inline[0] = value
	m.payloads = m.inline[:1]
	rt.post(rt.workers[dest], m)
}

// releaseIngress opens one slot in dest's admission window.
func (rt *Runtime) releaseIngress(dest cluster.WorkerID) {
	if rt.gates != nil {
		<-rt.gates[dest]
	}
}

// FlushIngress force-seals every partial ingress aggregation buffer (the
// drain sequence calls it after the frontend stops admitting, so the tail of
// the stream doesn't wait out the deadline). Safe from any goroutine.
func (rt *Runtime) FlushIngress() { flushShared(rt.ingress) }

// IngressOccupancy returns the number of admitted-but-undelivered ingress
// events currently held against worker dest, and the window capacity. Safe
// from any goroutine.
func (rt *Runtime) IngressOccupancy(dest cluster.WorkerID) (used, capacity int) {
	if rt.gates == nil || int(dest) < 0 || int(dest) >= len(rt.gates) {
		return 0, 0
	}
	g := rt.gates[dest]
	return len(g), cap(g)
}

// WaitQuiet blocks until the runtime is locally quiet — no producing worker,
// no in-flight item — or the abort channel fires. It is the serve drain's
// delivery barrier: valid only after external ingestion has stopped (and, in
// whole-topology mode, quiet is then permanent, since deliveries only retire
// work). A nil abort waits indefinitely.
func (rt *Runtime) WaitQuiet(abort <-chan struct{}) error {
	tick := time.NewTicker(100 * time.Microsecond)
	defer tick.Stop()
	for {
		if rt.LocallyQuiet() {
			return nil
		}
		select {
		case <-abort:
			return ErrIngestAborted
		case <-tick.C:
		}
	}
}

// SetFlushHist installs a histogram observing every sealed batch's realized
// age (nanoseconds from its oldest item's arrival to seal) — the service's
// flush-latency distribution, the quantity Config.FlushDeadline bounds. Must
// be called before Run.
func (rt *Runtime) SetFlushHist(h *stats.AtomicHist) { rt.flushHist = h }

// noteSeal records one sealed batch: the installed flush histogram (serve
// metrics) and, when adaptive aggregation is on, route ri's per-destination
// accounting (ri < 0 skips it — seals not attributable to one route).
// oldest == 0 means the batch's arrival stamp was unknown. n is the batch's
// item count.
func (rt *Runtime) noteSeal(ri, n int, oldest int64) {
	var age int64 = -1
	if oldest != 0 {
		age = time.Now().UnixNano() - oldest
		if h := rt.flushHist; h != nil {
			h.Observe(age)
		}
	}
	if rt.routes != nil && ri >= 0 {
		r := &rt.routes[ri]
		r.batches.Add(1)
		r.batchItems.Add(int64(n))
		if age >= 0 && r.hist != nil {
			r.hist.Observe(age)
		}
	}
}

// Counters is a plain snapshot of the runtime's activity counters and
// liveness gauges, the scrape-endpoint surface (Metrics and the workers hold
// the live atomics; Result exists only after a run ends). Flush causes are
// split: FullBatches counts occupancy-triggered seals, Flushes counts
// explicit/idle/deadline seals, and DeadlineFlushes the deadline subset.
type Counters struct {
	Inserted    int64
	Delivered   int64
	SelfItems   int64
	LocalDirect int64

	Batches         int64
	FullBatches     int64
	Flushes         int64
	DeadlineFlushes int64

	// Inflight is the published-and-undelivered item count (sends still
	// private to a running worker are excluded; see the package comment);
	// Producing the workers still in their generation phase.
	Inflight  int64
	Producing int64

	// RemoteSent/RemoteRecv mirror CrossCounts (partitioned mode).
	RemoteSent int64
	RemoteRecv int64

	// DirectItems/PathSwitches mirror the adaptive controller's metrics
	// (zero when Config.Adaptive is off).
	DirectItems  int64
	PathSwitches int64

	// IngressUsed sums the admission-window occupancy over all destinations;
	// IngressCap is the per-destination window size (serve mode, else 0).
	IngressUsed int64
	IngressCap  int64
}

// Counters snapshots the runtime's counters. Safe from any goroutine, during
// or after a run; individual fields are loaded independently (monitoring
// consistency, not a linearizable cut). The per-item counters are summed
// over their owners — every worker's published counts plus the admit path's
// shared pair — and trail a running worker by at most one chunk or batch.
func (rt *Runtime) Counters() Counters {
	c := Counters{
		Inserted:        rt.M.Ingested.Load(),
		Delivered:       rt.M.Delivered.Load(),
		Batches:         rt.M.Batches.Load(),
		FullBatches:     rt.M.FullBatches.Load(),
		Flushes:         rt.M.Flushes.Load(),
		DeadlineFlushes: rt.M.DeadlineFlushes.Load(),
		Inflight:        rt.inflight.Load(),
		Producing:       rt.producing.Load(),
		RemoteSent:      rt.sentCross.Load(),
		RemoteRecv:      rt.recvCross.Load(),
		DirectItems:     rt.M.IngestedDirect.Load(),
		PathSwitches:    rt.M.PathSwitches.Load(),
	}
	for _, w := range rt.workers {
		if w == nil {
			continue
		}
		c.Inserted += w.counts[cInserted].Load()
		c.SelfItems += w.counts[cSelfItems].Load()
		c.LocalDirect += w.counts[cLocalDirect].Load()
		c.DirectItems += w.counts[cDirectItems].Load()
	}
	c.Delivered += c.SelfItems
	for _, g := range rt.gates {
		c.IngressUsed += int64(len(g))
		c.IngressCap = int64(cap(g))
	}
	return c
}
