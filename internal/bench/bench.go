// Package bench regenerates every table and figure of the paper's evaluation
// (§IV). Each Fig* function builds the paper's configuration — scaled by
// Options — runs it on the simulator, and returns the rows as tables.
//
// # Scaling rule
//
// Paper scale is 64 workers per node (8 processes × 8 workers) with up to
// 1M–8M items per PE; a single host cannot hold the 64-node WW buffer
// footprint. Options scales runs with two divisors:
//
//   - WorkerDiv divides workers per node (keeping 8 processes when possible).
//   - ItemDiv divides per-PE item counts (updates, requests, vertices,
//     event budgets).
//
// Buffer sizes g are NOT scaled. Dividing z and workers-per-node by the same
// factor preserves items-per-destination (z / (nodes · workersPerNode)), so
// the fill-vs-flush crossovers of Figs. 9–11 land on the same node counts as
// the paper. cmd/tramlab's default (-workerdiv 4 -itemdiv 4) runs every
// figure on a laptop-class host; WorkerDiv=1, ItemDiv=1 is paper scale.
package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"tramlib/internal/apps/histogram"
	"tramlib/internal/apps/indexgather"
	"tramlib/internal/apps/phold"
	"tramlib/internal/apps/pingack"
	"tramlib/internal/apps/pingpong"
	"tramlib/internal/apps/sssp"
	"tramlib/internal/cluster"
	"tramlib/internal/graph"
	"tramlib/internal/stats"
	"tramlib/tram"
)

// Options controls experiment scale.
type Options struct {
	// WorkerDiv divides the paper's 64 workers per node. Must divide 64.
	WorkerDiv int
	// ItemDiv divides per-PE item counts.
	ItemDiv int
	// IGItemDiv additionally divides index-gather request counts (IG's 8M
	// requests/PE are the heaviest workload). Defaults to 8·ItemDiv.
	IGItemDiv int
	// NodesCap truncates node sweeps (0 = figure default).
	NodesCap int
	// Seed feeds every generator.
	Seed uint64
	// Jobs is the number of experiment points run concurrently (the
	// harness worker-pool width). 0 or 1 runs points sequentially. Results
	// are byte-identical for every value; see runPoints.
	Jobs int
	// Progress, if non-nil, receives one line per completed data point.
	// Lines from concurrent points are serialized but may interleave in
	// any order.
	Progress io.Writer
	// DistTransport selects the peer data plane of the -backend dist
	// index-gather and ping-ack tables: "socket" (default), "shm", or
	// "tcp". The dist histogram table always compares all three side by
	// side.
	DistTransport string
}

func (o Options) normalized() Options {
	if o.WorkerDiv <= 0 {
		o.WorkerDiv = 1
	}
	if o.ItemDiv <= 0 {
		o.ItemDiv = 1
	}
	if o.IGItemDiv <= 0 {
		o.IGItemDiv = 8 * o.ItemDiv
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.DistTransport == "" {
		o.DistTransport = "socket"
	}
	return o
}

// workersPerNode returns the scaled worker count per node (paper: 64).
func (o Options) workersPerNode() int {
	w := 64 / o.WorkerDiv
	if w < 1 {
		w = 1
	}
	return w
}

// smpTopo builds the standard SMP topology at the scaled size. The paper uses
// 8 processes × 8 workers per node; scaling divides the *process* count and
// keeps 8 workers per process, which preserves both items-per-destination-
// worker (WW's fill/flush crossover) and items-per-destination-process
// (WPs/WsP/PP's crossover), as well as the worker-to-comm-thread ratio.
func (o Options) smpTopo(nodes int) cluster.Topology {
	procs := 8 / o.WorkerDiv
	if procs < 1 {
		procs = 1
	}
	t := o.workersPerNode() / procs
	return cluster.SMP(nodes, procs, t)
}

func (o Options) items(paper int) int {
	z := paper / o.ItemDiv
	if z < 1 {
		z = 1
	}
	return z
}

func (o Options) nodes(def []int) []int {
	if o.NodesCap <= 0 {
		return def
	}
	out := def[:0:0]
	for _, n := range def {
		if n <= o.NodesCap {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{def[0]}
	}
	return out
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// Fig1 reproduces Fig. 1: ping-pong one-way time vs message size between two
// physical nodes. Paper shape: flat (α-dominated) below ~1 KB, then linear
// with a ~12 GB/s asymptote.
func Fig1(o Options) []*stats.Table {
	o = o.normalized()
	cfg := pingpong.DefaultConfig()
	pts := pingpong.Run(cfg)
	tb := stats.NewTable("Fig 1: ping-pong RTT/2 between two physical nodes",
		"bytes", "time_us", "GB/s")
	for _, p := range pts {
		gbps := 0.0
		if p.OneWay > 0 {
			gbps = float64(p.Bytes) / float64(p.OneWay)
		}
		tb.AddRowf(p.Bytes, float64(p.OneWay)/1e3, gbps)
	}
	return []*stats.Table{tb}
}

// Fig3 reproduces Fig. 3: PingAck total time, non-SMP vs SMP with increasing
// processes per node. Paper shape: SMP 1-proc ≈ 5× slower than non-SMP;
// parity from ~8 procs.
func Fig3(o Options) []*stats.Table {
	o = o.normalized()
	cfg := pingack.DefaultConfig()
	cfg.WorkersPerNode = o.workersPerNode()
	cfg.TotalMessages = 64000 / o.ItemDiv * cfg.WorkersPerNode / 64
	if cfg.TotalMessages < cfg.WorkersPerNode {
		cfg.TotalMessages = cfg.WorkersPerNode * 10
	}
	tb := stats.NewTable("Fig 3: PingAck SMP (process counts) vs non-SMP, 2 nodes",
		"config", "time_s", "comm_util")

	// Point 0 is non-SMP; the rest sweep the SMP process count.
	procSweep := []int{0}
	for _, procs := range []int{1, 2, 4, 8, 16} {
		if procs <= cfg.WorkersPerNode {
			procSweep = append(procSweep, procs)
		}
	}
	res := make([]pingack.Result, len(procSweep))
	o.runPoints(len(procSweep), func(i int) {
		pc := cfg
		pc.ProcsPerNode = procSweep[i]
		res[i] = pingack.Run(pc)
		if procSweep[i] == 0 {
			o.progressf("fig3 non-SMP done: %v", res[i].TotalTime)
		} else {
			o.progressf("fig3 SMP %dp done: %v", procSweep[i], res[i].TotalTime)
		}
	})
	tb.AddRowf(fmt.Sprintf("non-SMP %dx1", cfg.WorkersPerNode), seconds(res[0].TotalTime), res[0].CommUtilMax)
	for i, procs := range procSweep[1:] {
		tb.AddRowf(fmt.Sprintf("SMP %dp x %dw", procs, cfg.WorkersPerNode/procs),
			seconds(res[i+1].TotalTime), res[i+1].CommUtilMax)
	}
	return []*stats.Table{tb}
}

// FigA1 reproduces the §III-A analysis: sweeping per-message work on the
// 1-process PingAck locates the work threshold below which the comm thread
// saturates (the paper reports ~167 ns per word of communication).
func FigA1(o Options) []*stats.Table {
	o = o.normalized()
	cfg := pingack.DefaultConfig()
	cfg.WorkersPerNode = o.workersPerNode()
	cfg.TotalMessages = 64000 / o.ItemDiv * cfg.WorkersPerNode / 64
	cfg.ProcsPerNode = 1
	tb := stats.NewTable("A1: comm-thread saturation vs per-message work (SMP 1 proc)",
		"work_ns_per_msg", "time_s", "comm_util")
	works := []time.Duration{0, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200}
	res := make([]pingack.Result, len(works))
	o.runPoints(len(works), func(i int) {
		pc := cfg
		pc.WorkCost = works[i]
		res[i] = pingack.Run(pc)
		o.progressf("a1 work=%dns done", int64(works[i]))
	})
	for i, work := range works {
		tb.AddRowf(int64(work), seconds(res[i].TotalTime), res[i].CommUtilMax)
	}
	return []*stats.Table{tb}
}

// histoSlots returns the scaled per-PE histogram table size, shared by the
// simulated and real histogram runners so both worlds run the same workload.
func (o Options) histoSlots() int {
	s := 4096 / o.ItemDiv
	if s < 16 {
		s = 16
	}
	return s
}

// histoPoint runs one histogram configuration and returns total seconds.
func histoPoint(o Options, topo cluster.Topology, scheme tram.Scheme, z, g int) histogram.Result {
	cfg := histoConfig(o, topo, scheme, z, g)
	return histogram.Run(cfg)
}

// histoConfig builds the histogram configuration shared by the simulated and
// measured runners: one config, two backends.
func histoConfig(o Options, topo cluster.Topology, scheme tram.Scheme, z, g int) histogram.Config {
	cfg := histogram.DefaultConfig(topo, scheme)
	cfg.UpdatesPerPE = z
	cfg.Tram.BufferItems = g
	cfg.SlotsPerPE = o.histoSlots()
	cfg.Seed = o.Seed
	return cfg
}

// Fig8 reproduces Fig. 8: histogram, WPs with varying workers per process
// (ppn) vs non-SMP, weak scaling. Paper shape: ppn 8 on par with non-SMP;
// larger ppn (fewer comm threads) worse.
func Fig8(o Options) []*stats.Table {
	o = o.normalized()
	z := o.items(1 << 20)
	w := o.workersPerNode()
	nodes := o.nodes([]int{2, 4, 8, 16})
	ppns := []int{32, 16, 8, 4}
	cols := []string{"nodes"}
	for _, p := range ppns {
		cols = append(cols, fmt.Sprintf("WPs_ppn%d", p/o.WorkerDiv))
	}
	cols = append(cols, "nonSMP")
	tb := stats.NewTable(fmt.Sprintf("Fig 8: histogram %d updates/PE, WPs ppn sweep vs non-SMP (time_s)", z), cols...)

	width := len(ppns) + 1 // ppn columns plus the non-SMP column
	res := make([]histogram.Result, len(nodes)*width)
	valid := make([]bool, len(res))
	o.runPoints(len(res), func(i int) {
		n := nodes[i/width]
		c := i % width
		if c == len(ppns) {
			res[i] = histoPoint(o, cluster.NonSMP(n, w), tram.WW, z, 1024)
			valid[i] = true
			o.progressf("fig8 n=%d nonSMP done: %v", n, res[i].Time)
			return
		}
		ppn := ppns[c] / o.WorkerDiv
		if ppn < 1 || w%ppn != 0 {
			return
		}
		res[i] = histoPoint(o, cluster.SMP(n, w/ppn, ppn), tram.WPs, z, 1024)
		valid[i] = true
		o.progressf("fig8 n=%d ppn=%d done: %v", n, ppn, res[i].Time)
	})
	for ni, n := range nodes {
		row := []any{n}
		for c := 0; c < width; c++ {
			if i := ni*width + c; valid[i] {
				row = append(row, seconds(res[i].Time))
			} else {
				row = append(row, "-")
			}
		}
		tb.AddRowf(row...)
	}
	return []*stats.Table{tb}
}

// Fig9 reproduces Fig. 9: histogram weak scaling across schemes. Paper shape:
// WPs scales to 64 nodes; WsP close (source-sort overhead); PP close (atomics
// overhead); WW stops scaling once z/(N·t) < g (flush-dominated) — asserted
// by TestShapeFig9WWStopsScaling.
func Fig9(o Options) []*stats.Table {
	o = o.normalized()
	z := o.items(1 << 20)
	nodes := o.nodes([]int{2, 4, 8, 16, 32, 64})
	tb := stats.NewTable(fmt.Sprintf("Fig 9: histogram %d updates/PE, weak scaling (time_s)", z),
		"nodes", "WW", "WPs", "PP", "WsP", "nonSMP")
	schemes := []tram.Scheme{tram.WW, tram.WPs, tram.PP, tram.WsP}
	width := len(schemes) + 1
	res := make([]histogram.Result, len(nodes)*width)
	o.runPoints(len(res), func(i int) {
		n := nodes[i/width]
		if c := i % width; c < len(schemes) {
			res[i] = histoPoint(o, o.smpTopo(n), schemes[c], z, 1024)
			o.progressf("fig9 n=%d %v done: %v (msgs=%d flush=%d)", n, schemes[c], res[i].Time, res[i].M.RemoteMsgs, res[i].M.FlushMsgs)
		} else {
			res[i] = histoPoint(o, cluster.NonSMP(n, o.workersPerNode()), tram.WW, z, 1024)
			o.progressf("fig9 n=%d nonSMP done: %v", n, res[i].Time)
		}
	})
	for ni, n := range nodes {
		row := []any{n}
		for c := 0; c < width; c++ {
			row = append(row, seconds(res[ni*width+c].Time))
		}
		tb.AddRowf(row...)
	}
	return []*stats.Table{tb}
}

// Fig10 reproduces Fig. 10: histogram at 8 nodes, buffer-size sweep. Paper
// shape: WPs/PP improve with g; WW degrades beyond the g at which
// per-destination fill stalls (2K at paper scale).
func Fig10(o Options) []*stats.Table {
	o = o.normalized()
	z := o.items(1 << 20)
	const nodes = 8
	tb := stats.NewTable(fmt.Sprintf("Fig 10: histogram %d updates/PE, 8 nodes, buffer-size sweep (time_s)", z),
		"buffer", "WW", "WPs", "PP")
	gs := []int{512, 1024, 2048, 4096}
	schemes := []tram.Scheme{tram.WW, tram.WPs, tram.PP}
	res := make([]histogram.Result, len(gs)*len(schemes))
	o.runPoints(len(res), func(i int) {
		g, s := gs[i/len(schemes)], schemes[i%len(schemes)]
		res[i] = histoPoint(o, o.smpTopo(nodes), s, z, g)
		o.progressf("fig10 g=%d %v done: %v", g, s, res[i].Time)
	})
	for gi, g := range gs {
		row := []any{g}
		for c := range schemes {
			row = append(row, seconds(res[gi*len(schemes)+c].Time))
		}
		tb.AddRowf(row...)
	}
	return []*stats.Table{tb}
}

// Fig11 reproduces Fig. 11: histogram with few updates (128K/PE at paper
// scale), where flush costs dominate. Paper shape: WW much worse from 8
// nodes; WPs best; PP near WPs — asserted by TestShapeFig11FlushDominated.
func Fig11(o Options) []*stats.Table {
	o = o.normalized()
	z := o.items(128 << 10)
	nodes := o.nodes([]int{2, 4, 8, 16})
	tb := stats.NewTable(fmt.Sprintf("Fig 11: histogram %d updates/PE, flush-dominated regime (time_s)", z),
		"nodes", "WW_g512", "WPs_g1024", "PP_g1024", "WsP_g1024")
	// Column 0 is WW at g=512; the rest run at g=1024.
	schemes := []tram.Scheme{tram.WW, tram.WPs, tram.PP, tram.WsP}
	gs := []int{512, 1024, 1024, 1024}
	res := make([]histogram.Result, len(nodes)*len(schemes))
	o.runPoints(len(res), func(i int) {
		n, c := nodes[i/len(schemes)], i%len(schemes)
		res[i] = histoPoint(o, o.smpTopo(n), schemes[c], z, gs[c])
		o.progressf("fig11 n=%d %v done: %v", n, schemes[c], res[i].Time)
	})
	for ni, n := range nodes {
		row := []any{n}
		for c := range schemes {
			row = append(row, seconds(res[ni*len(schemes)+c].Time))
		}
		tb.AddRowf(row...)
	}
	return []*stats.Table{tb}
}

// Fig12and13 reproduces Figs. 12–13: index-gather mean request latency and
// total time. Paper shape: latency PP < WPs < WW (asserted by
// TestShapeFig12LatencyOrdering); total time at 16 nodes favours WW
// (sort/atomics overhead in WPs/PP).
func Fig12and13(o Options) []*stats.Table {
	o = o.normalized()
	z := (8 << 20) / o.IGItemDiv
	if z < 1000 {
		z = 1000
	}
	nodes := o.nodes([]int{2, 4, 8, 16})
	lat := stats.NewTable(fmt.Sprintf("Fig 12: index-gather %d requests/PE, mean request latency (us)", z),
		"nodes", "WW", "WPs", "PP")
	tot := stats.NewTable(fmt.Sprintf("Fig 13: index-gather %d requests/PE, total time (s)", z),
		"nodes", "WW", "WPs", "PP")
	schemes := []tram.Scheme{tram.WW, tram.WPs, tram.PP}
	res := make([]indexgather.Result, len(nodes)*len(schemes))
	o.runPoints(len(res), func(i int) {
		n, s := nodes[i/len(schemes)], schemes[i%len(schemes)]
		cfg := indexgather.DefaultConfig(o.smpTopo(n), s)
		cfg.RequestsPerPE = z
		cfg.Seed = o.Seed
		res[i] = indexgather.Run(cfg)
		o.progressf("fig12/13 n=%d %v done: time=%v lat=%.0fns", n, s, res[i].Time, res[i].Latency.Mean())
	})
	for ni, n := range nodes {
		lrow := []any{n}
		trow := []any{n}
		for c := range schemes {
			r := res[ni*len(schemes)+c]
			lrow = append(lrow, float64(int64(r.Latency.Mean()))/1e3)
			trow = append(trow, seconds(r.Time))
		}
		lat.AddRowf(lrow...)
		tot.AddRowf(trow...)
	}
	return []*stats.Table{lat, tot}
}

// Fig14and15 reproduces Figs. 14–15: SSSP on a small graph (8M vertices at
// paper scale) over 8/16/32 processes. Paper shape: wasted updates
// PP < WPs < WW.
func Fig14and15(o Options) []*stats.Table {
	o = o.normalized()
	n := o.items(8 << 20)
	g := graph.GenUniform(n, 8, o.Seed)
	timeTb := stats.NewTable(fmt.Sprintf("Fig 14: SSSP %dM vertices, time (s)", n>>20),
		"procs", "WW", "WPs", "PP")
	wasteTb := stats.NewTable(fmt.Sprintf("Fig 15: SSSP %dM vertices, wasted updates per 1000 useful", n>>20),
		"procs", "WW", "WPs", "PP")
	procSweep := []int{8, 16, 32}
	schemes := []tram.Scheme{tram.WW, tram.WPs, tram.PP}
	res := make([]sssp.Result, len(procSweep)*len(schemes))
	o.runPoints(len(res), func(i int) {
		procs, s := procSweep[i/len(schemes)], schemes[i%len(schemes)]
		// The x axis is the process count; processes keep the paper's 8
		// workers each (the graph is already scaled by ItemDiv), so WW's
		// per-worker buffer count grows with the sweep as in the paper.
		topo := cluster.SMP(procs/8, 8, 8)
		if procs < 8 {
			topo = cluster.SMP(1, procs, 8)
		}
		res[i] = sssp.Run(sssp.DefaultConfig(topo, s, g))
		o.progressf("fig14/15 procs=%d %v done: time=%v wasted=%d", procs, s, res[i].Time, res[i].Wasted)
	})
	for pi, procs := range procSweep {
		trow := []any{procs}
		wrow := []any{procs}
		for c := range schemes {
			r := res[pi*len(schemes)+c]
			trow = append(trow, seconds(r.Time))
			wrow = append(wrow, r.WastedNorm)
		}
		timeTb.AddRowf(trow...)
		wasteTb.AddRowf(wrow...)
	}
	return []*stats.Table{timeTb, wasteTb}
}

// Fig16and17 reproduces Figs. 16–17: SSSP on a large graph (62M vertices at
// paper scale), WW vs WPs over 1–8 nodes. Paper shape: similar wasted
// updates; WPs clearly faster than WW.
func Fig16and17(o Options) []*stats.Table {
	o = o.normalized()
	n := o.items(62 << 20)
	g := graph.GenUniform(n, 8, o.Seed+1)
	timeTb := stats.NewTable(fmt.Sprintf("Fig 16: SSSP %dM vertices, time (s)", n>>20),
		"nodes", "WW", "WPs")
	wasteTb := stats.NewTable(fmt.Sprintf("Fig 17: SSSP %dM vertices, wasted updates per 1000 useful", n>>20),
		"nodes", "WW", "WPs")
	nodes := o.nodes([]int{1, 2, 4, 8})
	schemes := []tram.Scheme{tram.WW, tram.WPs}
	res := make([]sssp.Result, len(nodes)*len(schemes))
	o.runPoints(len(res), func(i int) {
		nn, s := nodes[i/len(schemes)], schemes[i%len(schemes)]
		res[i] = sssp.Run(sssp.DefaultConfig(o.smpTopo(nn), s, g))
		o.progressf("fig16/17 n=%d %v done: time=%v wasted=%d", nn, s, res[i].Time, res[i].Wasted)
	})
	for ni, nn := range nodes {
		trow := []any{nn}
		wrow := []any{nn}
		for c := range schemes {
			r := res[ni*len(schemes)+c]
			trow = append(trow, seconds(r.Time))
			wrow = append(wrow, r.WastedNorm)
		}
		timeTb.AddRowf(trow...)
		wasteTb.AddRowf(wrow...)
	}
	return []*stats.Table{timeTb, wasteTb}
}

// Fig18 reproduces Fig. 18: synthetic PHOLD rejected (out-of-order) updates
// with ppn 32. Paper shape: PP >5% fewer rejected updates than WW/WPs.
func Fig18(o Options) []*stats.Table {
	o = o.normalized()
	ppn := 32 / o.WorkerDiv
	if ppn < 1 {
		ppn = 1
	}
	budget := int64(o.items(32 << 20))
	tb := stats.NewTable(fmt.Sprintf("Fig 18: PHOLD, rejected updates in millions (ppn %d, budget %dM events)", ppn, budget>>20),
		"procs", "WW", "WPs", "PP", "WW_time_s", "WPs_time_s", "PP_time_s")
	procSweep := []int{2, 4}
	schemes := []tram.Scheme{tram.WW, tram.WPs, tram.PP}
	res := make([]phold.Result, len(procSweep)*len(schemes))
	o.runPoints(len(res), func(i int) {
		procs, s := procSweep[i/len(schemes)], schemes[i%len(schemes)]
		cfg := phold.DefaultConfig(cluster.SMP(procs, 1, ppn), s)
		cfg.EventsBudget = budget
		cfg.Seed = o.Seed
		res[i] = phold.Run(cfg)
		o.progressf("fig18 procs=%d %v done: wasted=%d (%.1f%%) time=%v",
			procs, s, res[i].Wasted, 100*res[i].WastedFrac, res[i].Time)
	})
	for pi, procs := range procSweep {
		row := []any{procs}
		times := []any{}
		for c := range schemes {
			r := res[pi*len(schemes)+c]
			row = append(row, float64(r.Wasted)/1e6)
			times = append(times, seconds(r.Time))
		}
		row = append(row, times...)
		tb.AddRowf(row...)
	}
	return []*stats.Table{tb}
}

// Figure describes one reproducible experiment: one runner, and every paper
// figure number it reproduces (paired figures share a runner and print both
// tables). IDs[0] is the id listings show.
type Figure struct {
	IDs   []string
	Title string
	Run   func(Options) []*stats.Table
}

// Figures returns every experiment in paper order, one entry per runner.
func Figures() []Figure {
	return []Figure{
		{[]string{"1"}, "Ping-pong RTT/2 vs message size", Fig1},
		{[]string{"3"}, "PingAck: SMP process counts vs non-SMP", Fig3},
		{[]string{"8"}, "Histogram 1M: WPs ppn sweep vs non-SMP", Fig8},
		{[]string{"9"}, "Histogram 1M: weak scaling across schemes", Fig9},
		{[]string{"10"}, "Histogram 1M: buffer-size sweep at 8 nodes", Fig10},
		{[]string{"11"}, "Histogram 128K: flush-dominated regime", Fig11},
		{[]string{"12", "13"}, "Index-gather: latency and total time", Fig12and13},
		{[]string{"14", "15"}, "SSSP small: time and wasted updates", Fig14and15},
		{[]string{"16", "17"}, "SSSP large: time and wasted updates", Fig16and17},
		{[]string{"18"}, "PHOLD: rejected updates", Fig18},
		{[]string{"a1"}, "Comm-thread saturation vs per-message work", FigA1},
	}
}

// Lookup returns the figure one of whose ids is id.
func Lookup(id string) (Figure, bool) {
	for _, f := range Figures() {
		if slices.Contains(f.IDs, id) {
			return f, true
		}
	}
	return Figure{}, false
}

// Select resolves a list of figure ids to runners in the order given,
// keeping one entry per runner however many of its ids were named. It
// returns the first unknown id, if any.
func Select(ids []string) (figs []Figure, unknown string) {
	for _, id := range ids {
		f, ok := Lookup(id)
		if !ok {
			return nil, id
		}
		if !slices.ContainsFunc(figs, func(g Figure) bool { return g.IDs[0] == f.IDs[0] }) {
			figs = append(figs, f)
		}
	}
	return figs, ""
}
