// Package phold implements the paper's synthetic PHOLD benchmark for
// optimistic parallel discrete event simulation (§III-D, Fig. 18).
//
// Logical processes (LPs) are distributed over workers. The event population
// is constant: processing an event at timestamp ts schedules one successor at
// ts + Exp(mean), directed at a random LP (remote with probability
// RemoteProb). The engine is the paper's placeholder optimistic engine: no
// real rollbacks are performed; an event arriving with a timestamp smaller
// than its LP's local clock is counted as a wasted (rejected) update — in a
// real Time Warp engine it would trigger a rollback cascade. Item latency
// directly controls how stale remote events are on arrival, so lower-latency
// aggregation schemes yield fewer rejected updates (the paper reports >5%
// fewer for PP).
//
// The engine is single-sourced on the public tram API: local event loops
// yield between batches via Ctx.Post, so the same kernel runs deterministic
// on tram.Sim and truly concurrent on tram.Real (where the rejected-update
// count genuinely depends on host scheduling — the phenomenon itself, live).
package phold

import (
	"encoding/json"
	"sync/atomic"
	"time"

	"tramlib/internal/rng"
	"tramlib/tram"
)

// DistName is the PHOLD Dist-backend registration. The event budget is a
// per-process counter under Dist: each worker process gets an even share
// (EventsBudget / TotalProcs, floored), so the global number of successor
// events is bounded the same way, and the exact conservation law
// Processed == InitialPopulation + Scheduled holds on every backend via the
// per-process Scheduled counters.
const DistName = "phold"

func init() {
	tram.RegisterDist(DistName, func(params []byte, _ tram.ProcID) (tram.DistApp, error) {
		var cfg Config
		if err := json.Unmarshal(params, &cfg); err != nil {
			return tram.DistApp{}, err
		}
		// Per-process share of the global budget.
		P := int64(cfg.Tram.Topo.TotalProcs())
		cfg.EventsBudget /= P
		if cfg.EventsBudget == 0 {
			cfg.EventsBudget = 1
		}
		in := newInstance(cfg)
		return tram.BindDist(tram.U64(), cfg.Tram, in.app(), in.report)
	})
}

// Payload layout: [63:24] timestamp (40 bits), [23:0] global LP id.
const (
	tsShift = 24
	lpMask  = uint64(1)<<tsShift - 1
)

// Config parameterizes one PHOLD run.
type Config struct {
	// Tram is the unified library configuration. DefaultConfig arms the
	// timeout flush: PDES is latency-sensitive, and flush-on-idle would
	// fire between every pair of events and destroy aggregation.
	Tram tram.Config
	// LPsPerWorker is the number of logical processes per worker.
	LPsPerWorker int
	// PopulationPerLP is the constant number of events in flight per LP.
	PopulationPerLP int
	// EventsBudget is the total number of events to process before the
	// population is absorbed and the run drains.
	EventsBudget int64
	// MeanDelay is the mean of the exponential timestamp increment, in
	// simulated-model ticks.
	MeanDelay float64
	// RemoteProb is the probability that a successor event targets a
	// uniformly random global LP instead of an LP on the same worker.
	RemoteProb float64
	// EventCost is charged per processed event. Sim only.
	EventCost time.Duration
	// DrainChunk is local events processed per posted drain task.
	DrainChunk int
	Seed       uint64
}

// DefaultConfig returns a Fig. 18-style configuration.
func DefaultConfig(topo tram.Topology, scheme tram.Scheme) Config {
	tc := tram.DefaultConfig(topo, scheme)
	// Schemes whose buffers fill faster than the timeout (PP's shared
	// buffers) deliver events fresher and reject fewer of them; WW's many
	// near-empty buffers turn every timeout into a message storm (the paper
	// saw >5x worse total time).
	tc.FlushTimeout = 15 * time.Microsecond
	tc.BufferItems = 256
	return Config{
		Tram:            tc,
		LPsPerWorker:    1024,
		PopulationPerLP: 1,
		EventsBudget:    1 << 22,
		MeanDelay:       100,
		RemoteProb:      0.5,
		EventCost:       20 * time.Nanosecond,
		DrainChunk:      256,
		Seed:            1,
	}
}

// Result reports one run.
type Result struct {
	// Time is the quiescence time.
	Time time.Duration
	// Processed events (>= EventsBudget when the budget stops the run).
	Processed int64
	// Scheduled counts successor events created by processed events. The
	// population is conserved exactly: Processed == initial population +
	// Scheduled, on every backend (under Dist, summed across processes).
	Scheduled int64
	// RemoteRecv counts events that arrived from another worker.
	RemoteRecv int64
	// Wasted counts out-of-order remote arrivals (timestamp behind the
	// LP's committed clock): the events a real optimistic engine would
	// pay rollbacks for.
	Wasted int64
	// WastedFrac is Wasted / RemoteRecv.
	WastedFrac float64
	// MaxLVT is the largest LP local virtual time reached.
	MaxLVT uint64
	// M carries the backend's full metrics.
	M tram.Metrics
}

type event struct {
	lp uint32 // worker-local LP index
	ts uint64
}

// eventHeap is a binary min-heap of events by timestamp: the worker always
// executes its lowest-timestamp pending event next, like a sequential PDES
// scheduler. Out-of-order execution can then only be caused by *remote*
// arrivals that were delayed in aggregation buffers — the effect Fig. 18
// measures.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].ts <= (*h)[i].ts {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && old[l].ts < old[m].ts {
			m = l
		}
		if r < n && old[r].ts < old[m].ts {
			m = r
		}
		if m == i {
			break
		}
		old[i], old[m] = old[m], old[i]
		i = m
	}
	return top
}

// workerState holds per-PE PDES state, touched only on its own execution
// context — its counters included, so they need no atomics.
type workerState struct {
	clock    []uint64 // local virtual time per local LP
	pending  eventHeap
	draining bool
	rng      *rng.RNG
	drain    func(tram.Ctx) // pre-built drain continuation

	scheduled, remoteRecv, wasted int64
}

// instance is one bound run: per-worker PDES states plus the kernel closures
// over them. Under Dist each worker process constructs its own (with its
// per-process budget share) and reports its counters and max LVT.
type instance struct {
	cfg Config
	lib tram.Lib[uint64]
	ws  []*workerState
	// processed is the one shared counter: it is the event budget every
	// worker checks, so it stays an atomic for the concurrent backends (the
	// serial simulator sees the identical value sequence as plain
	// increments). The others are per-worker, summed by totals.
	processed atomic.Int64
}

// totals sums the per-worker counters. Read only once the run is over: the
// workers' goroutines write their own counters unsynchronized while it lasts.
func (in *instance) totals() (scheduled, remoteRecv, wasted int64) {
	for _, st := range in.ws {
		scheduled += st.scheduled
		remoteRecv += st.remoteRecv
		wasted += st.wasted
	}
	return scheduled, remoteRecv, wasted
}

func newInstance(cfg Config) *instance {
	W := cfg.Tram.Topo.TotalWorkers()
	in := &instance{cfg: cfg, lib: tram.U64(), ws: make([]*workerState, W)}
	for w := range in.ws {
		in.ws[w] = &workerState{
			clock: make([]uint64, cfg.LPsPerWorker),
			rng:   rng.NewStream(cfg.Seed, w),
		}
	}
	in.buildDrains()
	return in
}

// schedule creates one successor event: advance the timestamp, pick a
// destination LP.
func (in *instance) schedule(ctx tram.Ctx, st *workerState, self int, ts uint64) {
	cfg := in.cfg
	totalLPs := len(in.ws) * cfg.LPsPerWorker
	st.scheduled++
	inc := uint64(st.rng.ExpFloat64()*cfg.MeanDelay) + 1
	nts := ts + inc
	var gLP int
	if st.rng.Float64() < cfg.RemoteProb {
		gLP = st.rng.Intn(totalLPs)
	} else {
		gLP = self*cfg.LPsPerWorker + st.rng.Intn(cfg.LPsPerWorker)
	}
	owner := gLP / cfg.LPsPerWorker
	if owner == self {
		st.pending.push(event{lp: uint32(gLP % cfg.LPsPerWorker), ts: nts})
		if !st.draining {
			st.draining = true
			ctx.Post(st.drain)
		}
		return
	}
	in.lib.Insert(ctx, tram.WorkerID(owner), nts<<tsShift|uint64(gLP))
}

// handle executes one event popped from the worker's timestamp-ordered
// pending set.
func (in *instance) handle(ctx tram.Ctx, st *workerState, self int, lp uint32, ts uint64) {
	ctx.Charge(in.cfg.EventCost)
	if ts > st.clock[lp] {
		st.clock[lp] = ts
	}
	if in.processed.Add(1) < in.cfg.EventsBudget {
		in.schedule(ctx, st, self, ts)
	}
}

func (in *instance) buildDrains() {
	for w, st := range in.ws {
		st, self := st, w
		st.drain = func(ctx tram.Ctx) {
			n := 0
			for n < in.cfg.DrainChunk && len(st.pending) > 0 {
				ev := st.pending.pop()
				n++
				in.handle(ctx, st, self, ev.lp, ev.ts)
			}
			if len(st.pending) == 0 {
				st.draining = false
				return
			}
			ctx.Post(st.drain)
		}
	}
}

func (in *instance) app() tram.App[uint64] {
	cfg := in.cfg
	return tram.App[uint64]{
		Deliver: func(ctx tram.Ctx, p uint64) {
			// Remote event arrival. If its LP has already committed past
			// the event's timestamp, the arrival is out of order: a real
			// Time Warp engine would roll the LP back. The placeholder
			// engine counts it (Fig. 18's metric) and executes anyway to
			// keep the event population constant.
			st := in.ws[ctx.Self()]
			lp := uint32(p&lpMask) % uint32(cfg.LPsPerWorker)
			ts := p >> tsShift
			st.remoteRecv++
			if ts < st.clock[lp] {
				st.wasted++
			}
			st.pending.push(event{lp: lp, ts: ts})
			if !st.draining {
				st.draining = true
				ctx.Post(st.drain)
			}
		},
		Spawn: func(w tram.WorkerID) (int, tram.KernelFunc) {
			// One init step per worker: seed the constant event population.
			st := in.ws[w]
			return 1, func(ctx tram.Ctx, _ int) {
				for lp := 0; lp < cfg.LPsPerWorker; lp++ {
					for k := 0; k < cfg.PopulationPerLP; k++ {
						ts := uint64(st.rng.ExpFloat64()*cfg.MeanDelay) + 1
						st.pending.push(event{lp: uint32(lp), ts: ts})
					}
				}
				if !st.draining && len(st.pending) > 0 {
					st.draining = true
					ctx.Post(st.drain)
				}
			}
		},
	}
}

// maxLVT scans the local clocks.
func (in *instance) maxLVT() uint64 {
	var m uint64
	for _, st := range in.ws {
		for _, c := range st.clock {
			if c > m {
				m = c
			}
		}
	}
	return m
}

// distReport is one worker process's counters.
type distReport struct {
	Processed  int64  `json:"processed"`
	Scheduled  int64  `json:"scheduled"`
	RemoteRecv int64  `json:"remote_recv"`
	Wasted     int64  `json:"wasted"`
	MaxLVT     uint64 `json:"max_lvt"`
}

func (in *instance) report() []byte {
	scheduled, remoteRecv, wasted := in.totals()
	b, _ := json.Marshal(distReport{
		Processed:  in.processed.Load(),
		Scheduled:  scheduled,
		RemoteRecv: remoteRecv,
		Wasted:     wasted,
		MaxLVT:     in.maxLVT(),
	})
	return b
}

// Run executes the benchmark on the simulator.
func Run(cfg Config) Result { return RunOn(tram.Sim, cfg) }

// RunOn executes the benchmark on the given backend.
func RunOn(b tram.Backend, cfg Config) Result {
	in := newInstance(cfg)
	tcfg := cfg.Tram
	if tram.IsDist(b) {
		params, err := json.Marshal(cfg)
		if err != nil {
			panic(err)
		}
		tcfg.Dist.App = DistName
		tcfg.Dist.Params = params
	}
	m, err := in.lib.Run(b, tcfg, in.app())
	if err != nil {
		panic(err)
	}

	scheduled, remoteRecv, wasted := in.totals()
	res := Result{
		Time:       m.Time,
		Processed:  in.processed.Load(),
		Scheduled:  scheduled,
		RemoteRecv: remoteRecv,
		Wasted:     wasted,
		MaxLVT:     in.maxLVT(),
		M:          m,
	}
	for _, blob := range m.Reports {
		var rep distReport
		if err := json.Unmarshal(blob, &rep); err != nil {
			panic(err)
		}
		res.Processed += rep.Processed
		res.Scheduled += rep.Scheduled
		res.RemoteRecv += rep.RemoteRecv
		res.Wasted += rep.Wasted
		if rep.MaxLVT > res.MaxLVT {
			res.MaxLVT = rep.MaxLVT
		}
	}
	if res.RemoteRecv > 0 {
		res.WastedFrac = float64(res.Wasted) / float64(res.RemoteRecv)
	}
	return res
}
