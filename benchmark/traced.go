package main

import (
	"encoding/json"
	"fmt"
	"time"

	"tramlib/internal/apps/histogram"
	"tramlib/internal/apps/indexgather"
	"tramlib/internal/rng"
	"tramlib/tram"
)

// The instrumented kernels of a traced run. The histogram and index-gather
// applications keep their Insert and Deliver calls inside their own
// packages, where the benchmark may not add timers; so a traced rep runs
// these replicas instead — the same generators, the same routing rule, the
// same work per delivery, written against the public tram API with a timer
// around every sampleEvery-th Insert and Deliver. They produce the same
// tables and counts as the originals (the traced rep is checked against the
// same oracle), and the untraced reps, which alone feed the end-to-end
// metrics, never run them.

const tracedDistName = "benchmark-traced"

func init() {
	tram.RegisterDist(tracedDistName, func(raw []byte, proc tram.ProcID) (tram.DistApp, error) {
		var p tracedParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return tram.DistApp{}, fmt.Errorf("%s params: %w", tracedDistName, err)
		}
		in := newTracedInstance(p)
		return tram.BindDist(tram.U64(), p.Tram, in.app(), func() []byte { return in.report(proc) })
	})
}

// tracedParams selects and sizes a replica kernel.
type tracedParams struct {
	Tram tram.Config
	// Gather selects the index-gather replica; otherwise the histogram.
	Gather bool
	PerPE  int // updates (requests) generated per worker
	Slots  int // histogram table size per worker
	// GenCost and ApplyCost are the virtual costs the originals charge per
	// generated and per applied item (simulator only).
	GenCost, ApplyCost time.Duration
	Seed               uint64
}

func tracedHist(cfg histogram.Config) tracedParams {
	return tracedParams{Tram: cfg.Tram, PerPE: cfg.UpdatesPerPE, Slots: cfg.SlotsPerPE,
		GenCost: cfg.UpdateCost, ApplyCost: cfg.UpdateCost, Seed: cfg.Seed}
}

func tracedGather(cfg indexgather.Config) tracedParams {
	return tracedParams{Tram: cfg.Tram, Gather: true, PerPE: cfg.RequestsPerPE,
		GenCost: cfg.GenCost, ApplyCost: cfg.LookupCost, Seed: cfg.Seed}
}

// Index-gather word layout, as in internal/apps/indexgather: bit 63 marks a
// response, bits 62..48 carry the requester, the low 48 bits the born stamp.
const (
	gatherReqShift = 48
	gatherIDMask   = uint64(1)<<15 - 1
	gatherBornMask = uint64(1)<<gatherReqShift - 1
)

type tracedInstance struct {
	p         tracedParams
	tables    [][]int64 // histogram
	responses []int64   // index-gather, per requesting worker
	samplers  []sampler
}

func newTracedInstance(p tracedParams) *tracedInstance {
	W := p.Tram.Topo.TotalWorkers()
	in := &tracedInstance{p: p, samplers: newSamplers(W), responses: make([]int64, W)}
	if !p.Gather {
		in.tables = make([][]int64, W)
		for i := range in.tables {
			in.tables[i] = make([]int64, p.Slots)
		}
	}
	return in
}

// deliver is the application's work on one arrived item.
func (in *tracedInstance) deliver(ctx tram.Ctx, v uint64) {
	p := in.p
	switch {
	case !p.Gather:
		ctx.Charge(p.ApplyCost)
		in.tables[ctx.Self()][int(v)%p.Slots]++
		ctx.Contribute(1)
	case v&respFlag != 0:
		in.responses[ctx.Self()]++
		ctx.Contribute(1)
	default:
		ctx.Charge(p.ApplyCost)
		requester := tram.WorkerID((v >> gatherReqShift) & gatherIDMask)
		timedInsert(in.samplers, ctx, requester, respFlag|v&gatherBornMask)
	}
}

func (in *tracedInstance) app() tram.App[uint64] {
	p := in.p
	W := p.Tram.Topo.TotalWorkers()
	deliver := in.deliver // bound once: a method value made per item would allocate
	return tram.App[uint64]{
		Deliver: func(ctx tram.Ctx, v uint64) { timedDeliver(in.samplers, ctx, v, deliver) },
		Spawn: func(w tram.WorkerID) (int, tram.KernelFunc) {
			r := rng.NewStream(p.Seed, int(w))
			if !p.Gather {
				return p.PerPE, func(ctx tram.Ctx, _ int) {
					ctx.Charge(p.GenCost)
					u := r.Uint64()
					timedInsert(in.samplers, ctx, tram.WorkerID(u%uint64(W)), (u>>32)%uint64(p.Slots))
				}
			}
			return p.PerPE, func(ctx tram.Ctx, _ int) {
				ctx.Charge(p.GenCost)
				dst := tram.WorkerID(r.Intn(W - 1))
				if dst >= w {
					dst++ // uniform over the others, never self
				}
				born := uint64(ctx.Now()) & gatherBornMask
				timedInsert(in.samplers, ctx, dst, uint64(w)<<gatherReqShift|born)
			}
		},
		FlushOnDone: true,
	}
}

// tracedReport is one Dist worker process's share of the results.
type tracedReport struct {
	First     int       `json:"first"`
	Tables    [][]int64 `json:"tables,omitempty"`
	Responses int64     `json:"responses"`
	Spans     spanStats `json:"spans"`
}

func (in *tracedInstance) report(proc tram.ProcID) []byte {
	topo := in.p.Tram.Topo
	first := int(topo.FirstWorkerOf(proc))
	rep := tracedReport{First: first}
	for w := first; w < first+topo.WorkersPerProc; w++ {
		if in.tables != nil {
			rep.Tables = append(rep.Tables, in.tables[w])
		}
		rep.Responses += in.responses[w]
		rep.Spans.merge(in.samplers[w].st)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		panic(err) // only integers and slices of them: cannot fail
	}
	return b
}

// tracedResult is one completed run of a replica.
type tracedResult struct {
	m         tram.Metrics
	tables    [][]int64
	responses int64
	spans     spanStats
}

// runTraced executes a replica kernel on backend b.
func runTraced(b tram.Backend, p tracedParams) (tracedResult, error) {
	in := newTracedInstance(p)
	cfg := p.Tram
	if tram.IsDist(b) {
		raw, err := json.Marshal(p)
		if err != nil {
			return tracedResult{}, err
		}
		cfg.Dist.App = tracedDistName
		cfg.Dist.Params = raw
	}
	m, err := tram.U64().Run(b, cfg, in.app())
	if err != nil {
		return tracedResult{}, fmt.Errorf("traced kernel on %v: %w", b, err)
	}
	res := tracedResult{m: m, tables: in.tables}
	for w := range in.samplers {
		res.spans.merge(in.samplers[w].st)
		res.responses += in.responses[w]
	}
	for proc, blob := range m.Reports {
		var rep tracedReport
		if err := json.Unmarshal(blob, &rep); err != nil {
			return tracedResult{}, fmt.Errorf("traced kernel: proc %d report: %w", proc, err)
		}
		for i, t := range rep.Tables {
			res.tables[rep.First+i] = t
		}
		res.responses += rep.Responses
		res.spans.merge(rep.Spans)
	}
	return res, nil
}
