// Package sssp implements the paper's speculative single-source shortest-path
// proxy application (§III-D, Figs. 14–17).
//
// Vertices are block-partitioned over workers. Relaxation is asynchronous and
// speculative: a worker that improves a vertex distance immediately relaxes
// its out-edges, sending remote updates <vertex, dist> through TramLib. An
// arriving update that does not improve the known distance is a *wasted
// update* — it was obsolete by the time it was delivered. Higher item latency
// leaves more stale updates in flight, so wasted updates track the latency of
// the aggregation scheme (the paper observes PP < WPs < WW).
//
// A distance threshold prioritizes small-distance work (§III-D): each worker
// drains its local worklist in distance-bucket order (delta-stepping style),
// which suppresses speculative propagation of large distances that would
// likely be re-improved later.
//
// Termination is by quiescence: timeout flushes drain the aggregation
// buffers, and the run ends when no updates remain anywhere.
//
// The solver is single-sourced on the public tram API. Local worklist drains
// yield between chunks via Ctx.Post, so the identical kernel runs on the
// simulator (deterministic, virtual-time) and on the goroutine runtime
// (concurrent, wall-clock) — on the latter, speculative updates race for
// real, yet the solve still converges to exact distances because relaxation
// is monotone.
package sssp

import (
	"encoding/json"
	"fmt"
	"time"

	"tramlib/internal/graph"
	"tramlib/tram"
)

// DistName is the SSSP Dist-backend registration: worker processes rebuild
// the solver — regenerating the input graph deterministically from
// Config.Recipe, since the CSR itself never crosses the process boundary —
// and report their local distance arrays for validation.
const DistName = "sssp"

func init() {
	tram.RegisterDist(DistName, func(params []byte, proc tram.ProcID) (tram.DistApp, error) {
		var cfg Config
		if err := json.Unmarshal(params, &cfg); err != nil {
			return tram.DistApp{}, err
		}
		if cfg.Recipe == nil {
			return tram.DistApp{}, fmt.Errorf("sssp: dist run needs Config.Recipe")
		}
		s := newSolver(cfg)
		return tram.BindDist(tram.U64(), cfg.Tram, s.app(), func() []byte { return s.report(proc) })
	})
}

// Recipe deterministically regenerates the input graph (the form a graph
// takes when a run crosses process boundaries). Kind selects the generator.
type Recipe struct {
	// Kind is "rmat" (n = 1<<Scale) or "uniform" (n = N).
	Kind   string `json:"kind"`
	Scale  int    `json:"scale,omitempty"`
	N      int    `json:"n,omitempty"`
	AvgDeg int    `json:"avg_deg"`
	Seed   uint64 `json:"seed"`
}

// Build generates the recipe's graph.
func (r Recipe) Build() (*graph.CSR, error) {
	switch r.Kind {
	case "rmat":
		return graph.GenRMAT(r.Scale, r.AvgDeg, r.Seed), nil
	case "uniform":
		return graph.GenUniform(r.N, r.AvgDeg, r.Seed), nil
	default:
		return nil, fmt.Errorf("sssp: unknown graph recipe kind %q", r.Kind)
	}
}

// Config parameterizes one SSSP run.
type Config struct {
	// Tram is the unified library configuration. DefaultConfig arms the
	// timeout flush (sim) and the deadline flush (real) instead of
	// flush-on-idle: SSSP PEs go idle between every update wave, and
	// flushing WW's N·t buffers on each idle transition degenerates into a
	// storm of near-empty messages.
	Tram tram.Config
	// Graph is the input CSR. It never crosses a process boundary (the JSON
	// tag keeps it out of Dist params); runs on the Dist backend set Recipe
	// instead, and a nil Graph is generated from it on first use.
	Graph *graph.CSR `json:"-"`
	// Recipe regenerates the graph deterministically inside Dist worker
	// processes. Required for RunOn(tram.Dist, ...); optional otherwise.
	Recipe *Recipe
	// Source is the source vertex.
	Source int
	// Delta is the distance bucket width for local prioritization.
	Delta uint32
	// RelaxCost is charged per edge relaxation; UpdateCost per received
	// distance update. Sim only.
	RelaxCost  time.Duration
	UpdateCost time.Duration
	// DrainChunk is the number of local worklist entries processed per
	// posted drain task.
	DrainChunk int
}

// DefaultConfig returns a paper-like configuration; the caller supplies the
// graph (figures use 8M/62M vertices; tests use small ones).
func DefaultConfig(topo tram.Topology, scheme tram.Scheme, g *graph.CSR) Config {
	tc := tram.DefaultConfig(topo, scheme)
	// Timeout flush rather than flush-on-idle: the timeout bounds both item
	// latency and flush rate, and still guarantees termination (a timer
	// always fires after the last insert).
	tc.FlushTimeout = 20 * time.Microsecond
	tc.FlushBurst = 4
	return Config{
		Tram:       tc,
		Graph:      g,
		Source:     0,
		Delta:      8,
		RelaxCost:  6 * time.Nanosecond,
		UpdateCost: 8 * time.Nanosecond,
		DrainChunk: 512,
	}
}

// Result reports one run.
type Result struct {
	// Time is the quiescence time of the solve.
	Time time.Duration
	// Useful and Wasted count received remote updates that did / did not
	// improve a distance. WastedNorm is wasted per 1000 useful updates.
	Useful, Wasted int64
	WastedNorm     float64
	// Relaxations counts edge relaxations performed.
	Relaxations int64
	// Reached is the number of vertices with finite distance.
	Reached int64
	// Dist holds the final distances (for validation); nil unless
	// RunKeepDist was used.
	Dist [][]uint32
	// M carries the backend's full metrics.
	M tram.Metrics
}

// packUpdate encodes <vertex, dist> into an item payload.
func packUpdate(v int, d uint32) uint64 { return uint64(v)<<32 | uint64(d) }

func unpackUpdate(p uint64) (v int, d uint32) { return int(p >> 32), uint32(p) }

// counts are the solver's activity counters: received remote updates that
// did / did not improve a distance, and edge relaxations performed.
type counts struct {
	useful, wasted, relaxations int64
}

func (c *counts) add(o counts) {
	c.useful += o.useful
	c.wasted += o.wasted
	c.relaxations += o.relaxations
}

// worker holds the per-PE solver state. Bucket entries pack the local vertex
// index with the distance at enqueue time; entries superseded by a later
// improvement are skipped on pop (classic delta-stepping lazy deletion).
// Each worker's state — its counters included — is touched only on its own
// execution context, so the concurrent backend needs no locks and no atomics.
type worker struct {
	lo, hi   int // owned vertex range
	dist     []uint32
	buckets  [][]uint64 // ring of distance buckets: entries (li<<32 | dist)
	base     int        // bucket index of the lowest non-empty bucket
	pending  int
	draining bool
	drain    func(tram.Ctx) // pre-built drain continuation (posted, never reallocated)
	counts
}

const nBuckets = 64

// Run executes the solve on the simulator.
func Run(cfg Config) Result { return run(tram.Sim, cfg, false) }

// RunKeepDist is Run but retains the distance arrays for validation.
func RunKeepDist(cfg Config) Result { return run(tram.Sim, cfg, true) }

// RunOn executes the solve on the given backend.
func RunOn(b tram.Backend, cfg Config) Result { return run(b, cfg, false) }

// RunOnKeepDist is RunOn retaining the distance arrays.
func RunOnKeepDist(b tram.Backend, cfg Config) Result { return run(b, cfg, true) }

// solver is one bound solve: the per-worker states plus the kernel closures
// over them. Under Dist it is constructed independently in every worker
// process (with the graph regenerated from the recipe) and its report ships
// the local distance arrays back to the coordinator.
type solver struct {
	cfg  Config
	g    *graph.CSR
	part graph.Partition
	ws   []*worker
	lib  tram.Lib[uint64]
	// absorbed holds the counters other processes reported (Dist).
	absorbed counts
}

// totals sums the per-worker counters (and any absorbed reports). Read only
// once the run is over: the workers' goroutines write their own counters
// unsynchronized while it lasts.
func (s *solver) totals() counts {
	c := s.absorbed
	for _, st := range s.ws {
		c.add(st.counts)
	}
	return c
}

func newSolver(cfg Config) *solver {
	if cfg.Graph == nil && cfg.Recipe != nil {
		g, err := cfg.Recipe.Build()
		if err != nil {
			panic(err)
		}
		cfg.Graph = g
	}
	if cfg.Graph == nil {
		panic("sssp: Config needs a Graph or a Recipe")
	}
	if cfg.Delta == 0 {
		cfg.Delta = 1
	}
	W := cfg.Tram.Topo.TotalWorkers()
	s := &solver{
		cfg:  cfg,
		g:    cfg.Graph,
		part: graph.NewPartition(cfg.Graph.N, W),
		ws:   make([]*worker, W),
		lib:  tram.U64(),
	}
	for w := 0; w < W; w++ {
		lo, hi := s.part.Range(w)
		st := &worker{lo: lo, hi: hi, dist: make([]uint32, hi-lo), buckets: make([][]uint64, nBuckets)}
		for i := range st.dist {
			st.dist[i] = graph.Infinity
		}
		s.ws[w] = st
	}
	s.buildDrains()
	return s
}

// enqueueLocal places an improved local vertex into its distance bucket and
// makes sure a drain pass is posted.
func (s *solver) enqueueLocal(ctx tram.Ctx, st *worker, v int, d uint32) {
	bk := int(d/s.cfg.Delta) % nBuckets
	st.buckets[bk] = append(st.buckets[bk], uint64(v-st.lo)<<32|uint64(d))
	st.pending++
	if !st.draining {
		st.draining = true
		ctx.Post(st.drain)
	}
}

// relax applies a candidate distance to a local vertex.
func (s *solver) relax(ctx tram.Ctx, st *worker, v int, d uint32) {
	li := v - st.lo
	if d >= st.dist[li] {
		return
	}
	st.dist[li] = d
	s.enqueueLocal(ctx, st, v, d)
}

// expand relaxes v's out-edges using its current distance.
func (s *solver) expand(ctx tram.Ctx, st *worker, li int, d uint32) {
	v := st.lo + li
	ts, wts := s.g.Neighbors(v)
	for i, t := range ts {
		ctx.Charge(s.cfg.RelaxCost)
		st.relaxations++
		nd := d + uint32(wts[i])
		tv := int(t)
		if tv >= st.lo && tv < st.hi {
			s.relax(ctx, st, tv, nd)
			continue
		}
		s.lib.Insert(ctx, tram.WorkerID(s.part.Owner(tv)), packUpdate(tv, nd))
	}
}

func (s *solver) buildDrains() {
	for _, st := range s.ws {
		st := st
		st.drain = func(ctx tram.Ctx) {
			processed := 0
			for processed < s.cfg.DrainChunk && st.pending > 0 {
				// Lowest non-empty bucket first: the threshold
				// prioritization of §III-D.
				bk := st.base
				for len(st.buckets[bk%nBuckets]) == 0 {
					bk++
				}
				st.base = bk % nBuckets
				bucket := st.buckets[st.base]
				entry := bucket[len(bucket)-1]
				st.buckets[st.base] = bucket[:len(bucket)-1]
				st.pending--
				li := int(entry >> 32)
				d := uint32(entry)
				if d != st.dist[li] {
					// Superseded by a later improvement: a fresher
					// bucket entry exists for this vertex.
					continue
				}
				processed++
				s.expand(ctx, st, li, d)
			}
			if st.pending > 0 {
				ctx.Post(st.drain)
				return
			}
			st.draining = false
		}
	}
}

func (s *solver) app() tram.App[uint64] {
	srcOwner := tram.WorkerID(s.part.Owner(s.cfg.Source))
	return tram.App[uint64]{
		Deliver: func(ctx tram.Ctx, p uint64) {
			ctx.Charge(s.cfg.UpdateCost)
			v, d := unpackUpdate(p)
			st := s.ws[ctx.Self()]
			if d >= st.dist[v-st.lo] {
				st.wasted++
				return
			}
			st.useful++
			st.dist[v-st.lo] = d
			s.enqueueLocal(ctx, st, v, d)
		},
		Spawn: func(w tram.WorkerID) (int, tram.KernelFunc) {
			if w != srcOwner {
				return 0, nil
			}
			// One seed step: set the source distance and start draining.
			return 1, func(ctx tram.Ctx, _ int) {
				st := s.ws[srcOwner]
				st.dist[s.cfg.Source-st.lo] = 0
				s.enqueueLocal(ctx, st, s.cfg.Source, 0)
			}
		},
	}
}

// distReport is one worker process's solver results: its own workers'
// distance arrays (a vertex's distance is only ever written by its owning
// worker, so every entry appears in exactly one report), placed by First,
// plus the process's counters.
type distReport struct {
	First       int        `json:"first"`
	Dist        [][]uint32 `json:"dist"`
	Useful      int64      `json:"useful"`
	Wasted      int64      `json:"wasted"`
	Relaxations int64      `json:"relaxations"`
}

func (s *solver) report(proc tram.ProcID) []byte {
	topo := s.cfg.Tram.Topo
	first := int(topo.FirstWorkerOf(proc))
	c := s.totals()
	rep := distReport{
		First:       first,
		Dist:        make([][]uint32, topo.WorkersPerProc),
		Useful:      c.useful,
		Wasted:      c.wasted,
		Relaxations: c.relaxations,
	}
	for i := range rep.Dist {
		rep.Dist[i] = s.ws[first+i].dist
	}
	b, err := json.Marshal(rep)
	if err != nil {
		panic(err)
	}
	return b
}

// absorb merges per-process reports into the local state (element-wise min,
// so unreached Infinity entries never overwrite a solved distance).
func (s *solver) absorb(reports [][]byte) {
	for _, blob := range reports {
		var rep distReport
		if err := json.Unmarshal(blob, &rep); err != nil {
			panic(err)
		}
		s.absorbed.add(counts{useful: rep.Useful, wasted: rep.Wasted, relaxations: rep.Relaxations})
		for i, arr := range rep.Dist {
			dst := s.ws[rep.First+i].dist
			for j, d := range arr {
				if d < dst[j] {
					dst[j] = d
				}
			}
		}
	}
}

func run(b tram.Backend, cfg Config, keepDist bool) Result {
	s := newSolver(cfg)
	tcfg := cfg.Tram
	if tram.IsDist(b) {
		if cfg.Recipe == nil {
			panic("sssp: RunOn(tram.Dist, ...) needs Config.Recipe (the graph is regenerated per process)")
		}
		params, err := json.Marshal(cfg)
		if err != nil {
			panic(err)
		}
		tcfg.Dist.App = DistName
		tcfg.Dist.Params = params
	}
	m, err := s.lib.Run(b, tcfg, s.app())
	if err != nil {
		panic(err)
	}
	if m.Reports != nil {
		s.absorb(m.Reports)
	}

	c := s.totals()
	res := Result{
		Time:        m.Time,
		Useful:      c.useful,
		Wasted:      c.wasted,
		Relaxations: c.relaxations,
		M:           m,
	}
	for _, st := range s.ws {
		for _, d := range st.dist {
			if d != graph.Infinity {
				res.Reached++
			}
		}
	}
	if res.Useful > 0 {
		res.WastedNorm = 1000 * float64(res.Wasted) / float64(res.Useful)
	}
	if keepDist {
		res.Dist = make([][]uint32, len(s.ws))
		for w, st := range s.ws {
			res.Dist[w] = st.dist
		}
	}
	return res
}

// DistOf returns the computed distance of vertex v from a kept-dist result.
func (r *Result) DistOf(topo tram.Topology, g *graph.CSR, v int) uint32 {
	part := graph.NewPartition(g.N, topo.TotalWorkers())
	w := part.Owner(v)
	lo, _ := part.Range(w)
	return r.Dist[w][v-lo]
}
