package tram_test

// The cross-backend conformance suite: every application kernel, on every
// aggregation scheme, must produce backend-independent results on Sim
// (deterministic simulator), Real (goroutines in one address space), and
// Dist (one OS process per ProcID) — the last under all three peer
// transports: wire-framed Unix sockets, mmap'd shared-memory rings, and TCP
// streams. Each application pins the strongest invariant it has:
//
//	histogram     tables element-wise equal to a serial replay of the RNG
//	index-gather  response completeness (every request answered exactly once)
//	ping-ack      one ack per node-0 worker, for each SMP process split
//	sssp          distances exactly equal to a sequential Dijkstra oracle
//	phold         exact event conservation: processed = population + scheduled
//
// Dist runs spawn real worker processes: TestMain routes the self-exec'd
// children into tram.Main before any test runs.

import (
	"os"
	"testing"
	"time"

	"tramlib/internal/apps/histogram"
	"tramlib/internal/apps/indexgather"
	"tramlib/internal/apps/phold"
	"tramlib/internal/apps/pingack"
	"tramlib/internal/apps/sssp"
	"tramlib/internal/graph"
	"tramlib/internal/rng"
	"tramlib/tram"
)

func TestMain(m *testing.M) {
	tram.Main() // dist worker processes run their share here and exit
	os.Exit(m.Run())
}

// confTopo is the conformance topology: 2 "nodes" x 1 process x 2 workers —
// 4 workers in 2 processes, so every scheme has real process-crossing
// traffic and Dist runs across 2 OS processes.
func confTopo() tram.Topology { return tram.SMP(2, 1, 2) }

// hierTopo is the hierarchical-routing conformance topology: the same 4
// workers as confTopo, but split 2 nodes x 2 processes x 1 worker so
// two-level routing has real relay hops — each node has a leader and a
// non-leader, and non-leader -> non-leader traffic crosses three links
// (worker -> local leader -> remote leader -> worker). With only 2
// processes every process would be a leader and nothing would relay.
func hierTopo() tram.Topology { return tram.SMP(2, 2, 1) }

// hierNodes maps hierTopo's 4 processes onto its 2 nodes.
func hierNodes() []int { return []int{0, 0, 1, 1} }

// backendCell is one execution engine under test. The Dist backend appears
// once per peer transport — plus once per transport with hierarchical
// node-leader routing — so every kernel x scheme cell runs over the socket,
// shared-memory-ring, and TCP data planes, flat and two-level.
type backendCell struct {
	name      string
	b         tram.Backend
	transport tram.DistTransport // Dist cells only
	hier      bool               // route through node leaders (Dist cells only)
}

// prep applies the cell's transport and routing selection to a run
// configuration. Hierarchical cells also swap in hierTopo: worker count
// (and therefore every result) is unchanged, but the run spans 4 OS
// processes on 2 nodes so the two-level paths genuinely relay.
func (c backendCell) prep(cfg *tram.Config) {
	cfg.Dist.Transport = c.transport
	if c.hier {
		cfg.Topo = hierTopo()
		cfg.Dist.Nodes = hierNodes()
		cfg.Dist.Hierarchical = true
	}
}

// backends lists the execution cells under test.
func backends() []backendCell {
	return []backendCell{
		{name: "sim", b: tram.Sim},
		{name: "real", b: tram.Real},
		{name: "dist-socket", b: tram.Dist, transport: tram.TransportSocket},
		{name: "dist-shm", b: tram.Dist, transport: tram.TransportShm},
		{name: "dist-tcp", b: tram.Dist, transport: tram.TransportTCP},
		{name: "dist-hier-socket", b: tram.Dist, transport: tram.TransportSocket, hier: true},
		{name: "dist-hier-shm", b: tram.Dist, transport: tram.TransportShm, hier: true},
		{name: "dist-hier-tcp", b: tram.Dist, transport: tram.TransportTCP, hier: true},
	}
}

// forEachSchemeBackend runs fn across the full scheme x backend-cell matrix.
func forEachSchemeBackend(t *testing.T, fn func(t *testing.T, s tram.Scheme, c backendCell)) {
	for _, s := range tram.Schemes() {
		for _, c := range backends() {
			s, c := s, c
			t.Run(s.String()+"/"+c.name, func(t *testing.T) {
				fn(t, s, c)
			})
		}
	}
}

func TestConformanceHistogram(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full backend matrix (spawns processes)")
	}
	topo := confTopo()
	W := topo.TotalWorkers()
	const (
		z     = 3000
		slots = 64
		seed  = 9
	)

	// Serial replay of the generators — the derivation mirrors the kernel's:
	// one RNG draw u yields destination u % W and slot (u>>32) % slots.
	want := make([][]int64, W)
	for w := range want {
		want[w] = make([]int64, slots)
	}
	for w := 0; w < W; w++ {
		r := rng.NewStream(seed, w)
		for i := 0; i < z; i++ {
			u := r.Uint64()
			want[u%uint64(W)][(u>>32)%slots]++
		}
	}

	forEachSchemeBackend(t, func(t *testing.T, s tram.Scheme, c backendCell) {
		cfg := histogram.DefaultConfig(topo, s)
		cfg.UpdatesPerPE = z
		cfg.SlotsPerPE = slots
		cfg.Seed = seed
		cfg.Tram.BufferItems = 64
		c.prep(&cfg.Tram)
		res := histogram.RunOn(c.b, cfg)

		if res.TotalUpdates != int64(W)*z {
			t.Fatalf("total updates %d, want %d", res.TotalUpdates, int64(W)*z)
		}
		if res.CheckSum != int64(W)*z {
			t.Fatalf("checksum %d, want %d", res.CheckSum, int64(W)*z)
		}
		for w := 0; w < W; w++ {
			for sl := 0; sl < slots; sl++ {
				if res.Tables[w][sl] != want[w][sl] {
					t.Fatalf("table[%d][%d] = %d, want %d (replay)", w, sl, res.Tables[w][sl], want[w][sl])
				}
			}
		}

		// The item counters mean the same thing on every backend, so each
		// cell must report what the replay says for its topology: every item
		// inserted and delivered, self items apart, and exactly the
		// same-process items in LocalDirect when the scheme's plan bypasses
		// the buffers for them (none otherwise).
		run := cfg.Tram.Topo // hierarchical cells run on hierTopo
		var self, local int64
		for w := 0; w < W; w++ {
			r := rng.NewStream(seed, w)
			for i := 0; i < z; i++ {
				switch dest := tram.WorkerID(r.Uint64() % uint64(W)); {
				case dest == tram.WorkerID(w):
					self++
				case run.ProcOf(dest) == run.ProcOf(tram.WorkerID(w)):
					local++
				}
			}
		}
		if !s.Plan().BypassLocal {
			local = 0
		}
		if m := res.M; m.Inserted != int64(W)*z || m.Delivered != int64(W)*z || m.SelfItems != self || m.LocalDirect != local {
			t.Fatalf("inserted %d delivered %d self %d local-direct %d, want %d %d %d %d",
				m.Inserted, m.Delivered, m.SelfItems, m.LocalDirect, int64(W)*z, int64(W)*z, self, local)
		}
	})
}

func TestConformanceIndexGather(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full backend matrix (spawns processes)")
	}
	topo := confTopo()
	W := topo.TotalWorkers()
	const z = 2000

	forEachSchemeBackend(t, func(t *testing.T, s tram.Scheme, c backendCell) {
		cfg := indexgather.DefaultConfig(topo, s)
		cfg.RequestsPerPE = z
		cfg.Tram.BufferItems = 64
		cfg.Seed = 5
		c.prep(&cfg.Tram)
		res := indexgather.RunOn(c.b, cfg)

		// Completeness: every one of the W*z requests came back exactly
		// once — no response lost, duplicated, or misrouted.
		if want := int64(W) * z; res.Responses != want {
			t.Fatalf("responses %d, want %d", res.Responses, want)
		}
		if res.Latency.Count() != int64(W)*z {
			t.Fatalf("latency samples %d, want %d", res.Latency.Count(), int64(W)*z)
		}
		if res.Latency.Min() < 0 {
			t.Fatalf("negative latency %d", res.Latency.Min())
		}
	})
}

func TestConformancePingAck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full backend matrix (spawns processes)")
	}
	const workers = 4
	for _, procs := range []int{1, 2} {
		for _, c := range backends() {
			procs, c := procs, c
			t.Run(c.name, func(t *testing.T) {
				cfg := pingack.DefaultConfig()
				cfg.WorkersPerNode = workers
				cfg.ProcsPerNode = procs
				cfg.TotalMessages = 2000
				cfg.Transport = c.transport
				cfg.Hierarchical = c.hier
				res := pingack.RunOn(c.b, cfg)
				if res.Acks != workers {
					t.Fatalf("procs=%d: acks %d, want %d", procs, res.Acks, workers)
				}
				if want := int64(2000 + workers); res.M.Inserted != want {
					t.Fatalf("procs=%d: inserted %d, want %d", procs, res.M.Inserted, want)
				}
			})
		}
	}
}

func TestConformanceSSSP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full backend matrix (spawns processes)")
	}
	topo := confTopo()
	recipe := sssp.Recipe{Kind: "uniform", N: 600, AvgDeg: 5, Seed: 11}
	g, err := recipe.Build()
	if err != nil {
		t.Fatal(err)
	}
	oracle := graph.Dijkstra(g, 0)

	forEachSchemeBackend(t, func(t *testing.T, s tram.Scheme, c backendCell) {
		cfg := sssp.DefaultConfig(topo, s, g)
		cfg.Recipe = &recipe
		cfg.Tram.BufferItems = 32
		c.prep(&cfg.Tram)
		res := sssp.RunOnKeepDist(c.b, cfg)
		for v := 0; v < g.N; v++ {
			if got := res.DistOf(topo, g, v); got != oracle[v] {
				t.Fatalf("dist[%d] = %d, oracle %d", v, got, oracle[v])
			}
		}
		var wantReached int64
		for _, d := range oracle {
			if d != graph.Infinity {
				wantReached++
			}
		}
		if res.Reached != wantReached {
			t.Fatalf("reached %d, oracle %d", res.Reached, wantReached)
		}
	})
}

func TestConformancePHOLD(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full backend matrix (spawns processes)")
	}
	topo := confTopo()
	const (
		lps    = 64
		budget = 20000
	)
	pop := int64(topo.TotalWorkers() * lps) // PopulationPerLP = 1

	forEachSchemeBackend(t, func(t *testing.T, s tram.Scheme, c backendCell) {
		cfg := phold.DefaultConfig(topo, s)
		cfg.LPsPerWorker = lps
		cfg.EventsBudget = budget
		cfg.Tram.BufferItems = 64
		c.prep(&cfg.Tram)
		res := phold.RunOn(c.b, cfg)

		// Exact conservation on every backend: each of the initial events
		// and each scheduled successor is processed exactly once.
		if res.Processed != pop+res.Scheduled {
			t.Fatalf("conservation violated: processed %d != population %d + scheduled %d",
				res.Processed, pop, res.Scheduled)
		}
		// The budget bounds successor creation (under Dist it is split
		// per-process, so the bound is the same global total).
		if res.Scheduled >= budget {
			t.Fatalf("scheduled %d events, budget %d", res.Scheduled, budget)
		}
		if tram.IsDist(c.b) {
			// Per-process budgeting still has to do real work everywhere.
			if res.Processed < pop {
				t.Fatalf("processed %d below initial population %d", res.Processed, pop)
			}
		} else if res.Scheduled != budget-1 {
			// Single-counter backends pin the schedule count exactly.
			t.Fatalf("scheduled %d, want %d", res.Scheduled, budget-1)
		}
		if res.MaxLVT == 0 {
			t.Fatal("LVT never advanced")
		}
		if res.Wasted > res.RemoteRecv {
			t.Fatalf("wasted %d exceeds remote receives %d", res.Wasted, res.RemoteRecv)
		}
	})
}

// TestConformanceAdaptiveMatchesStatic is the adaptive-aggregation
// acceptance pin: with the per-destination flush controller on — tight
// deadlines, a live occupancy seal target, and path selection armed so some
// routes genuinely switch to Direct framing — the histogram tables remain
// element-wise identical to the serial RNG replay (which the static matrix
// above is pinned to) on every real-execution backend x scheme x transport.
// Adaptation re-partitions the same items into different batches and
// reframes some of them; it must never change what a run computes.
func TestConformanceAdaptiveMatchesStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full backend matrix (spawns processes)")
	}
	topo := confTopo()
	W := topo.TotalWorkers()
	const (
		z     = 2000
		slots = 32
		seed  = 13
	)

	want := make([][]int64, W)
	for w := range want {
		want[w] = make([]int64, slots)
	}
	for w := 0; w < W; w++ {
		r := rng.NewStream(seed, w)
		for i := 0; i < z; i++ {
			u := r.Uint64()
			want[u%uint64(W)][(u>>32)%slots]++
		}
	}

	adaptive := tram.AdaptiveOptions{
		Enabled:       true,
		TargetLatency: 200 * time.Microsecond,
		MinDeadline:   50 * time.Microsecond,
		Interval:      100 * time.Microsecond,
		// High enough that short-run smoothed rates sit below it: routes
		// flip to Direct framing mid-run, exercising the reframed path.
		DirectBelow: 1 << 30,
	}

	forEachSchemeBackend(t, func(t *testing.T, s tram.Scheme, c backendCell) {
		if c.name == "sim" {
			t.Skip("Sim ignores Config.Adaptive (virtual time has no controller)")
		}
		cfg := histogram.DefaultConfig(topo, s)
		cfg.UpdatesPerPE = z
		cfg.SlotsPerPE = slots
		cfg.Seed = seed
		cfg.Tram.BufferItems = 64
		cfg.Tram.Adaptive = adaptive
		c.prep(&cfg.Tram)
		res := histogram.RunOn(c.b, cfg)

		if res.TotalUpdates != int64(W)*z {
			t.Fatalf("total updates %d, want %d", res.TotalUpdates, int64(W)*z)
		}
		for w := 0; w < W; w++ {
			for sl := 0; sl < slots; sl++ {
				if res.Tables[w][sl] != want[w][sl] {
					t.Fatalf("table[%d][%d] = %d, want %d (static replay)", w, sl, res.Tables[w][sl], want[w][sl])
				}
			}
		}
	})
}

// distTransports are the Dist data planes the acceptance pin sweeps.
var distTransports = []tram.DistTransport{tram.TransportSocket, tram.TransportShm, tram.TransportTCP}

// TestConformanceDistMatchesReal is the acceptance pin: histogram,
// index-gather, and ping-ack on tram.Dist across >= 2 OS processes — over
// ALL THREE peer transports — produce results identical to tram.Real
// (itself already validated against the serial replays above), and the
// socket, shm, and tcp data planes are element-wise identical to each
// other: the transport moves bytes, it never changes what the run computes.
func TestConformanceDistMatchesReal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	topo := confTopo()
	W := topo.TotalWorkers()
	if topo.TotalProcs() < 2 {
		t.Fatal("conformance topology must span >= 2 OS processes")
	}

	hcfg := histogram.DefaultConfig(topo, tram.WPs)
	hcfg.UpdatesPerPE = 2000
	hcfg.SlotsPerPE = 32
	hcfg.Tram.BufferItems = 64
	hReal := histogram.RunOn(tram.Real, hcfg)
	for _, tr := range distTransports {
		hcfg.Tram.Dist.Transport = tr
		hDist := histogram.RunOn(tram.Dist, hcfg)
		for w := 0; w < W; w++ {
			for s := range hReal.Tables[w] {
				if hReal.Tables[w][s] != hDist.Tables[w][s] {
					t.Fatalf("histogram table[%d][%d]: real %d != dist/%s %d", w, s, hReal.Tables[w][s], tr, hDist.Tables[w][s])
				}
			}
		}
		if hReal.TotalUpdates != hDist.TotalUpdates {
			t.Fatalf("histogram totals: real %d, dist/%s %d", hReal.TotalUpdates, tr, hDist.TotalUpdates)
		}
	}

	icfg := indexgather.DefaultConfig(topo, tram.PP)
	icfg.RequestsPerPE = 1500
	icfg.Tram.BufferItems = 64
	iReal := indexgather.RunOn(tram.Real, icfg)
	for _, tr := range distTransports {
		icfg.Tram.Dist.Transport = tr
		if iDist := indexgather.RunOn(tram.Dist, icfg); iReal.Responses != iDist.Responses {
			t.Fatalf("index-gather responses: real %d, dist/%s %d", iReal.Responses, tr, iDist.Responses)
		}
	}

	pcfg := pingack.DefaultConfig()
	pcfg.WorkersPerNode = 4
	pcfg.ProcsPerNode = 2
	pcfg.TotalMessages = 1000
	pReal := pingack.RunOn(tram.Real, pcfg)
	for _, tr := range distTransports {
		pcfg.Transport = tr
		if pDist := pingack.RunOn(tram.Dist, pcfg); pReal.Acks != pDist.Acks {
			t.Fatalf("ping-ack acks: real %d, dist/%s %d", pReal.Acks, tr, pDist.Acks)
		}
	}
}

// TestConformanceHierMatchesFlat is the two-level-routing acceptance pin:
// on the 4-process / 2-node topology, hierarchical node-leader routing
// produces results element-wise identical to the flat full mesh, over all
// three peer transports. Routing is plumbing — it moves the same frames
// over fewer links and must never change what the run computes.
func TestConformanceHierMatchesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	topo := hierTopo()
	W := topo.TotalWorkers()

	hcfg := histogram.DefaultConfig(topo, tram.WPs)
	hcfg.UpdatesPerPE = 2000
	hcfg.SlotsPerPE = 32
	hcfg.Tram.BufferItems = 64
	hcfg.Tram.Dist.Nodes = hierNodes()
	for _, tr := range distTransports {
		hcfg.Tram.Dist.Transport = tr
		hcfg.Tram.Dist.Hierarchical = false
		hFlat := histogram.RunOn(tram.Dist, hcfg)
		hcfg.Tram.Dist.Hierarchical = true
		hHier := histogram.RunOn(tram.Dist, hcfg)
		for w := 0; w < W; w++ {
			for s := range hFlat.Tables[w] {
				if hFlat.Tables[w][s] != hHier.Tables[w][s] {
					t.Fatalf("histogram table[%d][%d]: flat/%s %d != hier/%s %d",
						w, s, tr, hFlat.Tables[w][s], tr, hHier.Tables[w][s])
				}
			}
		}
		if hFlat.TotalUpdates != hHier.TotalUpdates {
			t.Fatalf("histogram totals: flat/%s %d, hier/%s %d", tr, hFlat.TotalUpdates, tr, hHier.TotalUpdates)
		}
	}

	icfg := indexgather.DefaultConfig(topo, tram.PP)
	icfg.RequestsPerPE = 1500
	icfg.Tram.BufferItems = 64
	icfg.Tram.Dist.Nodes = hierNodes()
	for _, tr := range distTransports {
		icfg.Tram.Dist.Transport = tr
		icfg.Tram.Dist.Hierarchical = false
		iFlat := indexgather.RunOn(tram.Dist, icfg)
		icfg.Tram.Dist.Hierarchical = true
		if iHier := indexgather.RunOn(tram.Dist, icfg); iFlat.Responses != iHier.Responses {
			t.Fatalf("index-gather responses: flat/%s %d, hier/%s %d", tr, iFlat.Responses, tr, iHier.Responses)
		}
	}

	pcfg := pingack.DefaultConfig()
	pcfg.WorkersPerNode = 4
	pcfg.ProcsPerNode = 2
	pcfg.TotalMessages = 1000
	for _, tr := range distTransports {
		pcfg.Transport = tr
		pcfg.Hierarchical = false
		pFlat := pingack.RunOn(tram.Dist, pcfg)
		pcfg.Hierarchical = true
		if pHier := pingack.RunOn(tram.Dist, pcfg); pFlat.Acks != pHier.Acks {
			t.Fatalf("ping-ack acks: flat/%s %d, hier/%s %d", tr, pFlat.Acks, tr, pHier.Acks)
		}
	}
}
