// Adaptive aggregation: the runtime's per-destination flush controller.
//
// The paper's buffering tradeoff — bandwidth amortization from deep batches
// vs. delivery latency from waiting for them — is frozen at config time
// everywhere else in this repo: one BufferItems, one FlushDeadline, one
// scheme for the whole run. That is the right experiment design for the
// paper's uniform kernels, but skewed or bursty traffic pays for it twice: a
// cold destination's items sit out the full deadline in a buffer that will
// never fill, while a hot destination seals full batches so fast the deadline
// never matters. Config.Adaptive turns both knobs into per-destination
// control outputs:
//
//   - Effective buffer depth. Each destination's smoothed arrival rate
//     (stats.RateEWMA over the route's insert counter) gives the occupancy a
//     buffer can reach within the flush deadline; the controller sets the
//     shmem buffers' advisory seal target to that depth (bounded by
//     BufferItems), so batches seal when the traffic they can amortize has
//     arrived instead of waiting for a capacity that won't be reached —
//     Grappa's "half-full" auto-push generalized to a measured rate.
//
//   - Flush deadline. Realized flush latency (batch age at seal, the
//     quantity FlushDeadline bounds) feeds back per destination: while the
//     TargetQuantile of the last interval's seals is above TargetLatency the
//     deadline contracts multiplicatively, and while it is comfortably below
//     the deadline relaxes — bounded by [MinDeadline, MaxDeadline], so a
//     misbehaving estimate degrades to a static configuration, never past it.
//
//   - Path selection. Below DirectBelow events/sec, aggregation cannot
//     amortize its framing (the per-item wait dominates the per-message
//     saving) and the route switches to Direct framing: inserts bypass the
//     buffers through the same postInline/SendOne path the Direct scheme
//     uses. Hysteresis (switch back only above DirectBelow×Hysteresis)
//     keeps a rate sitting on the threshold from flapping.
//
// The controller runs inside the existing progress goroutine — it already
// owns deadline enforcement and wakes at the right granularity — and touches
// the insert hot path with exactly one atomic increment (the route's event
// counter) plus one atomic flag load (the path selector): no allocation, no
// locks, nothing proportional to anything.
//
// Correctness invariants, in order of importance:
//
//  1. Results are the controller's no-op: seal targets and per-destination
//     deadlines only re-partition the same items into different batches, and
//     a path switch only changes an item's framing. tram's conformance suite
//     pins adaptive results element-wise identical to static on every
//     backend × scheme × transport.
//  2. Quiescence is oblivious to path switches. The Direct fast path is the
//     pre-existing postInline/SendOne flow with the pre-existing accounting
//     (inflight, sentCross, ingress credits); the four-counter termination
//     detection cannot distinguish an adaptive run from a static one.
//  3. Items stranded in a buffer by a path switch (buffered→Direct stops
//     feeding it) are drained by the same deadline machinery that always
//     ran; no flush path is disabled, ever.
package rt

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"tramlib/internal/cluster"
	"tramlib/internal/stats"
)

// Adaptive configures the adaptive aggregation controller (see the file
// comment). The zero value disables it; Enabled with everything else zero
// selects workable defaults derived from FlushDeadline. Adaptive aggregation
// requires a positive FlushDeadline (the controller lives in the progress
// goroutine) and is a no-op under the Direct scheme (nothing aggregates).
type Adaptive struct {
	// Enabled turns the controller on.
	Enabled bool
	// TargetLatency is the delivery-latency objective: the controller steers
	// each destination's realized flush-latency TargetQuantile toward it.
	// 0 selects FlushDeadline/2.
	TargetLatency time.Duration
	// TargetQuantile is the quantile of realized flush latency compared
	// against TargetLatency (0 selects 0.99).
	TargetQuantile float64
	// MinDeadline/MaxDeadline bound the per-destination flush deadline the
	// controller may choose. 0 selects FlushDeadline/16 (floored at 20µs)
	// and FlushDeadline respectively — so by default adaptation only ever
	// tightens the static bound.
	MinDeadline time.Duration
	MaxDeadline time.Duration
	// Interval is the controller's policy period (0 selects 250µs).
	Interval time.Duration
	// HalfLife is the arrival-rate EWMA's half-life (0 selects 8×Interval).
	HalfLife time.Duration
	// MinBatch floors the adaptive seal target: batches never seal shallower
	// than this by occupancy (0 selects 1). Deadline flushes may still emit
	// shallower batches, exactly as with static config.
	MinBatch int
	// DirectBelow, in events/sec, is the rate below which a destination
	// switches to Direct framing. 0 disables path selection.
	DirectBelow float64
	// Hysteresis is the multiplicative band for switching back to buffered
	// aggregation: a Direct route re-buffers only above
	// DirectBelow×Hysteresis events/sec. 0 selects 2; 1 means no band.
	Hysteresis float64
}

// validate reports configuration errors (called from Config.Validate; the
// knobs are checked only when Enabled — a zero Adaptive is always valid).
func (a Adaptive) validate(c Config) error {
	if !a.Enabled {
		return nil
	}
	if c.FlushDeadline <= 0 {
		return fmt.Errorf("rt: adaptive aggregation requires a positive FlushDeadline")
	}
	if a.TargetLatency < 0 || a.MinDeadline < 0 || a.MaxDeadline < 0 || a.Interval < 0 || a.HalfLife < 0 {
		return fmt.Errorf("rt: negative adaptive duration")
	}
	if a.TargetQuantile < 0 || a.TargetQuantile > 1 {
		return fmt.Errorf("rt: adaptive TargetQuantile %v outside [0,1]", a.TargetQuantile)
	}
	if a.MinDeadline > 0 && a.MaxDeadline > 0 && a.MinDeadline > a.MaxDeadline {
		return fmt.Errorf("rt: adaptive MinDeadline %v exceeds MaxDeadline %v", a.MinDeadline, a.MaxDeadline)
	}
	if a.MinBatch < 0 {
		return fmt.Errorf("rt: negative adaptive MinBatch")
	}
	if c.Scheme.Plan().Buffered && a.MinBatch > c.BufferItems {
		return fmt.Errorf("rt: adaptive MinBatch %d exceeds BufferItems %d", a.MinBatch, c.BufferItems)
	}
	if a.DirectBelow < 0 {
		return fmt.Errorf("rt: negative adaptive DirectBelow")
	}
	if a.Hysteresis != 0 && a.Hysteresis < 1 {
		return fmt.Errorf("rt: adaptive Hysteresis %v below 1", a.Hysteresis)
	}
	return nil
}

// normalized fills the controller's defaults from the static config.
func (a Adaptive) normalized(c Config) Adaptive {
	if a.TargetLatency == 0 {
		a.TargetLatency = c.FlushDeadline / 2
	}
	if a.TargetQuantile == 0 {
		a.TargetQuantile = 0.99
	}
	if a.MaxDeadline == 0 {
		a.MaxDeadline = c.FlushDeadline
	}
	if a.MinDeadline == 0 {
		a.MinDeadline = c.FlushDeadline / 16
		if a.MinDeadline < 20*time.Microsecond {
			a.MinDeadline = 20 * time.Microsecond
		}
	}
	if a.MinDeadline > a.MaxDeadline {
		a.MinDeadline = a.MaxDeadline
	}
	if a.Interval == 0 {
		a.Interval = 250 * time.Microsecond
	}
	if a.HalfLife == 0 {
		a.HalfLife = 8 * a.Interval
	}
	if a.MinBatch == 0 {
		a.MinBatch = 1
	}
	if a.Hysteresis == 0 {
		a.Hysteresis = 2
	}
	return a
}

// route is one destination's adaptive state. The route index space is the
// plan's (core.Plan.Route): one route per buffer address — a destination
// worker under WW, a destination process under WPs/WsP/PP — because that is
// the unit the controller can actually steer, and it is the slot table's
// index. Hot-path goroutines touch only events and direct; the
// deadline is read by flush paths; everything unexported below the hist is
// owned by the controller goroutine.
type route struct {
	events atomic.Int64 // inserts routed here (hot path: one Add per Send)
	direct atomic.Bool  // path selector: true = Direct framing bypasses the buffers
	// deadlineNs is the route's current flush deadline (ns); 0 before wiring.
	deadlineNs atomic.Int64
	// sealTarget mirrors the advisory occupancy target last applied to the
	// route's buffers (0 = seal at capacity), for RouteStats.
	sealTarget atomic.Int32
	rateBits   atomic.Uint64 // math.Float64bits of the smoothed events/sec
	batches    atomic.Int64  // sealed batches attributed to this route
	batchItems atomic.Int64  // items in those batches

	// hist observes realized flush latency (batch age at seal); nil marks an
	// unreachable route (self/local destinations the schemes never buffer).
	hist *stats.AtomicHist

	// Controller-owned state (progress goroutine only).
	rate       stats.RateEWMA
	win        stats.Window
	lastEvents int64
	lastCount  int64
	// feeders are the buffers feeding this route, every slot of the table
	// whose route this is (per-buffer rate = route rate / len(feeders)).
	feeders []sealTargeter
}

// sealTargeter is what the controller needs of a buffer: its advisory seal
// target (both shmem buffer types, whatever their item type).
type sealTargeter interface{ SetTarget(n int) }

// RouteStats is a snapshot of one destination route's adaptive state, the
// observability surface tests and tramserve metrics read.
type RouteStats struct {
	// Events is the number of inserts routed to this destination.
	Events int64
	// RatePerSec is the controller's smoothed arrival-rate estimate.
	RatePerSec float64
	// Direct reports whether the route currently uses Direct framing.
	Direct bool
	// Deadline is the route's current flush deadline.
	Deadline time.Duration
	// SealTarget is the advisory occupancy seal target applied to the
	// route's buffers (0 = seal at capacity).
	SealTarget int
	// Batches/BatchItems count the sealed batches attributed to the route
	// and the items they carried.
	Batches    int64
	BatchItems int64
	// FlushP50/FlushP99 are quantiles of the route's realized flush latency
	// (nanoseconds of batch age at seal), cumulative over the run.
	FlushP50 int64
	FlushP99 int64
}

// Routes returns the number of destination routes the controller tracks
// (0 when adaptive aggregation is off).
func (rt *Runtime) Routes() int { return len(rt.routes) }

// RouteStats snapshots route i. Safe from any goroutine.
func (rt *Runtime) RouteStats(i int) RouteStats {
	r := &rt.routes[i]
	s := RouteStats{
		Events:     r.events.Load(),
		RatePerSec: math.Float64frombits(r.rateBits.Load()),
		Direct:     r.direct.Load(),
		Deadline:   time.Duration(r.deadlineNs.Load()),
		SealTarget: int(r.sealTarget.Load()),
		Batches:    r.batches.Load(),
		BatchItems: r.batchItems.Load(),
	}
	if r.hist != nil {
		if st := r.hist.State(); st.Count > 0 {
			h := stats.FromState(st)
			s.FlushP50 = h.Quantile(0.50)
			s.FlushP99 = h.Quantile(0.99)
		}
	}
	return s
}

// routeDeadlineNs returns route ri's current flush deadline in nanoseconds,
// falling back to the static bound before the controller has wired it.
func (rt *Runtime) routeDeadlineNs(ri int) int64 {
	if d := rt.routes[ri].deadlineNs.Load(); d > 0 {
		return d
	}
	return int64(rt.cfg.FlushDeadline)
}

// routeSend is the insert hot path's adaptive hook: it counts the event on
// dest's route and, when the route is in Direct framing, ships the item
// unbuffered (reporting true — the caller skips its buffer push). Called
// only when routes are wired, with the item already in w's unsettled tally.
func (w *worker) routeSend(ri int, dest cluster.WorkerID, value uint64) bool {
	r := &w.rt.routes[ri]
	r.events.Add(1)
	if r.direct.Load() {
		w.sent[cDirectItems]++
		w.postInline(dest, value)
		return true
	}
	return false
}

// wireAdaptive builds the route table. Called at the end of New, after the
// slot table (and serve-mode ingress buffers) exist, so each route's feeders
// are what was actually wired: a route no slot feeds is unreachable through
// aggregation (self and SMP-local destinations) and stays inert.
func (rt *Runtime) wireAdaptive() {
	rt.adaptive = rt.cfg.Adaptive.normalized(rt.cfg)
	rt.routes = make([]route, rt.plan.Routes(rt.topo))
	feed := func(route int, b sealTargeter) {
		if route >= 0 {
			r := &rt.routes[route]
			r.feeders = append(r.feeders, b)
		}
	}
	for _, w := range rt.workers {
		if w != nil {
			for _, s := range w.owned {
				feed(s.route, s.buf)
			}
		}
	}
	for _, slots := range rt.shared {
		for _, s := range slots {
			feed(s.route, s.buf)
		}
	}
	for _, s := range rt.ingress {
		feed(s.route, s.buf)
	}
	for i := range rt.routes {
		r := &rt.routes[i]
		if len(r.feeders) == 0 {
			continue
		}
		r.hist = stats.NewAtomicHist()
		r.rate = stats.NewRateEWMA(rt.adaptive.HalfLife)
		r.deadlineNs.Store(int64(rt.adaptive.MaxDeadline))
	}
}

// controlTick is one policy interval: re-estimate every route's arrival
// rate, close the deadline feedback loop on its realized flush latency,
// derive the occupancy seal target, and run path selection. Runs on the
// progress goroutine.
func (rt *Runtime) controlTick(now time.Time) {
	a := &rt.adaptive
	dt := now.Sub(rt.ctlLast)
	rt.ctlLast = now
	for i := range rt.routes {
		r := &rt.routes[i]
		if r.hist == nil {
			continue
		}
		ev := r.events.Load()
		rate := r.rate.Observe(ev-r.lastEvents, dt)
		r.lastEvents = ev
		r.rateBits.Store(math.Float64bits(rate))

		// Deadline feedback: compare the last window's realized flush-latency
		// quantile against the target and adapt multiplicatively (AIMD-style
		// but symmetric: ×0.7 too slow, ×1.3 too eager), clamped to the
		// configured bounds. Skipped entirely while no new batch sealed, so
		// idle routes cost two atomic loads per tick and no allocation.
		d := r.deadlineNs.Load()
		if c := r.hist.Count(); c > r.lastCount {
			r.lastCount = c
			if win := r.win.Advance(r.hist.State()); win.Count() > 0 {
				p := win.Quantile(a.TargetQuantile)
				switch {
				case p > int64(a.TargetLatency):
					d = d * 7 / 10
				case p < int64(a.TargetLatency)/2:
					d = d * 13 / 10
				}
				if d < int64(a.MinDeadline) {
					d = int64(a.MinDeadline)
				}
				if d > int64(a.MaxDeadline) {
					d = int64(a.MaxDeadline)
				}
				r.deadlineNs.Store(d)
			}
		}

		// Occupancy seal target: the depth one feeding buffer reaches within
		// the deadline at the current rate, sealed a quarter early so the
		// occupancy trigger beats the deadline's tick quantization. Rates
		// that would fill past capacity mean "seal at capacity" (0).
		target := 0
		if rate > 0 {
			t := int(rate / float64(len(r.feeders)) * (float64(d) / 1e9) * 3 / 4)
			if t < a.MinBatch {
				t = a.MinBatch
			}
			if t >= rt.cfg.BufferItems {
				t = 0
			}
			target = t
		}
		if int32(target) != r.sealTarget.Load() {
			r.sealTarget.Store(int32(target))
			for _, b := range r.feeders {
				b.SetTarget(target) // 0 restores seal-at-capacity
			}
		}

		// Path selection with hysteresis. Items already buffered when a
		// route goes Direct are drained by the unchanged deadline machinery.
		if a.DirectBelow > 0 {
			if r.direct.Load() {
				if rate >= a.DirectBelow*a.Hysteresis {
					r.direct.Store(false)
					rt.M.PathSwitches.Add(1)
				}
			} else if ev > 0 && rate < a.DirectBelow {
				r.direct.Store(true)
				rt.M.PathSwitches.Add(1)
			}
		}
	}
}
