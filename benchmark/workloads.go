package main

import (
	"fmt"
	"time"

	"tramlib/internal/apps/histogram"
	"tramlib/internal/apps/indexgather"
	"tramlib/internal/rng"
	"tramlib/internal/traffic"
	"tramlib/tram"
)

// env is what one invocation fixes for every workload.
type env struct {
	seed uint64
	// scale divides every problem size: 1 for measurement, 64 for the smoke
	// scale the self-tests run.
	scale int
	// tr records spans during a traced run; nil otherwise.
	tr *tracer
}

// sized applies the smoke divisor to a problem size, never below 1.
func (e env) sized(n int) int {
	if n /= e.scale; n < 1 {
		return 1
	}
	return n
}

// floodRep is one timed repetition of a workload's saturating half: as much
// load as the system accepts, so the figure of merit is work per second.
type floodRep struct {
	items  int64         // items handed to Deliver (acked events on serve)
	run    time.Duration // run-phase time those items took
	failed int64         // items lost, duplicated or landing in the wrong place
	m      tram.Metrics
}

// latencyRep is one timed repetition of a workload's open-loop half: a fixed
// offered rate well under saturation, so the figure of merit is how long one
// unit of work waits.
type latencyRep struct {
	lat       []int64 // ascending, ns
	late      []int64 // ascending, ns: how far behind schedule the generator sent
	attempted int64
	failed    int64
	run       time.Duration
	m         tram.Metrics
}

// driver is one workload bound to a seed. setup performs one complete set-up
// cycle — build the configuration, start the system (rt.New, process spawn
// and mesh connect, listen and dial), move a token amount of work through it
// and tear it down — and is timed as setup_s.
type driver interface {
	setup() error
	flood() (floodRep, error)
	latency() (latencyRep, error)
	// lateLimit is the generator lateness (p95) beyond which a latency rep
	// measured the load generator rather than the system.
	lateLimit() time.Duration
	// tracedFlood is flood run through the benchmark's instrumented kernel
	// (or client); it also returns the fine spans taken.
	tracedFlood() (floodRep, spanStats, error)
	// shape parameterises the stage drivers with the workload's
	// configuration.
	shape() layerShape
}

// workload names one driver constructor. The names are the benchmark's
// public vocabulary: results are compared across commits by name, so a
// workload is never renamed or resized in place — a changed workload is a new
// name.
type workload struct {
	name  string
	build func(e env) (driver, error)
}

var workloads = []workload{
	{"real-hist-ww", func(e env) (driver, error) {
		return newHistDriver(e, tram.Real, tram.SMP(1, 2, 2), tram.WW, 512<<10, nil), nil
	}},
	{"real-hist-pp", func(e env) (driver, error) {
		return newHistDriver(e, tram.Real, tram.SMP(1, 2, 2), tram.PP, 512<<10, nil), nil
	}},
	{"real-ig-wsp", func(e env) (driver, error) { return newIGDriver(e), nil }},
	{"real-paced-zipf", func(e env) (driver, error) { return newZipfDriver(e), nil }},
	{"dist-hist-flat", func(e env) (driver, error) {
		return newHistDriver(e, tram.Dist, tram.SMP(2, 2, 1), tram.WPs, 2<<20, distMesh(false)), nil
	}},
	{"dist-hist-leader", func(e env) (driver, error) {
		return newHistDriver(e, tram.Dist, tram.SMP(2, 2, 1), tram.WPs, 2<<20, distMesh(true)), nil
	}},
	{"serve-paced-tcp", func(e env) (driver, error) { return newServeDriver(e), nil }},
	{"sim-hist-wps", func(e env) (driver, error) { return newSimDriver(e), nil }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Probe schedule shared by the kernel workloads: one generator, one item
// every 4 us (250 k items/s), 0.3 s per rep — short, so that a latency half
// holds ten or so reps and one rep that met a scheduling accident does not
// carry the median.
const (
	probeInterval = 4 * time.Microsecond
	probeSteps    = 75_000
	// probeLateLimit: the busy-paced generator normally runs a few
	// microseconds late; a p95 beyond this means it lost its core.
	probeLateLimit = 100 * time.Microsecond
	// distLateLimit is the same rule for Dist runs, whose generator paces by
	// sleeping (60-90 us late by construction) in one of four worker
	// processes time-sliced by the OS: with more runnable processes than
	// cores it is preempted for 100-200 us at a time, which is the host's
	// doing and part of what those workloads measure.
	distLateLimit = 500 * time.Microsecond
)

// remoteWorkers lists the workers outside gen's process: every probe item
// crosses the process-addressed aggregation path, none takes the unbuffered
// same-process shortcut.
func remoteWorkers(topo tram.Topology, gen int) []int {
	var out []int
	for w := 0; w < topo.TotalWorkers(); w++ {
		if topo.ProcOf(tram.WorkerID(w)) != topo.ProcOf(tram.WorkerID(gen)) {
			out = append(out, w)
		}
	}
	return out
}

// probeFor returns the open-loop probe that shares cfg's topology, scheme,
// buffer size, deadline and transport. ChunkSize 1 returns the generator to
// its scheduler slot after every item, which is what lets it be paced.
func probeFor(e env, cfg tram.Config) pacedParams {
	cfg.ChunkSize = 1
	return pacedParams{
		Tram:     cfg,
		Gen:      0,
		Dests:    remoteWorkers(cfg.Topo, 0),
		Seed:     int64(e.seed),
		Interval: probeInterval,
		Steps:    e.sized(probeSteps),
		Record:   true,
	}
}

func (r pacedRep) latencyRep() latencyRep {
	return latencyRep{
		lat: r.lat, late: r.late,
		attempted: r.sent.Count, failed: r.failed(),
		run: r.m.Time, m: r.m,
	}
}

// catch turns a panic of fn into an error. The application packages report
// backend failures (a dead worker process, a timeout) by panicking.
func catch(what string, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", what, r)
		}
	}()
	fn()
	return nil
}

// --- histogram on Real and Dist ---

// distMesh returns the two-node placement of the Dist workloads: same-node
// process pairs on shared-memory rings, cross-node pairs on sockets.
func distMesh(hierarchical bool) *tram.DistOptions {
	return &tram.DistOptions{
		Transport:    tram.TransportShm,
		Nodes:        []int{0, 0, 1, 1},
		Hierarchical: hierarchical,
		// A stuck run must fail inside the driver's per-run limit.
		StartTimeout: 30 * time.Second,
		RunTimeout:   60 * time.Second,
	}
}

type histDriver struct {
	e       env
	backend tram.Backend
	cfg     histogram.Config
	want    [][]int64 // serial replay of the seeded generators
	probe   pacedParams
}

func newHistDriver(e env, b tram.Backend, topo tram.Topology, s tram.Scheme, updatesPerPE int, dist *tram.DistOptions) *histDriver {
	cfg := histogram.DefaultConfig(topo, s)
	cfg.UpdatesPerPE = e.sized(updatesPerPE)
	cfg.Seed = e.seed
	if dist != nil {
		cfg.Tram.Dist = *dist
	}
	probe := probeFor(e, cfg.Tram)
	// Four worker processes and a coordinator on nproc cores: a generator
	// that spun would take one of them from the system it measures.
	probe.Sleep = tram.IsDist(b)
	return &histDriver{e: e, backend: b, cfg: cfg, want: histOracle(cfg), probe: probe}
}

// histOracle replays every worker's generator serially: worker w draws
// UpdatesPerPE words from stream (Seed, w); word u increments slot
// (u>>32) mod slots of worker u mod W. It is the reference the delivered
// tables are compared with, so it restates the kernel's rule on purpose.
func histOracle(cfg histogram.Config) [][]int64 {
	W := cfg.Tram.Topo.TotalWorkers()
	tables := make([][]int64, W)
	for i := range tables {
		tables[i] = make([]int64, cfg.SlotsPerPE)
	}
	for w := 0; w < W; w++ {
		r := rng.NewStream(cfg.Seed, w)
		for i := 0; i < cfg.UpdatesPerPE; i++ {
			u := r.Uint64()
			tables[u%uint64(W)][(u>>32)%uint64(cfg.SlotsPerPE)]++
		}
	}
	return tables
}

// histFailed counts what a histogram run got wrong: updates not applied
// exactly once (total is the number of Deliver calls), and table slots that
// differ from the oracle.
func histFailed(total int64, tables, want [][]int64) int64 {
	var expected, failed int64
	for w, t := range want {
		for s, c := range t {
			expected += c
			if tables[w][s] != c {
				failed++
			}
		}
	}
	return failed + abs64(total-expected)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func (d *histDriver) setup() error {
	cfg := d.cfg
	cfg.UpdatesPerPE = 1
	return catch("histogram set-up", func() { histogram.RunOn(d.backend, cfg) })
}

func (d *histDriver) flood() (floodRep, error) {
	var res histogram.Result
	err := catch("histogram", func() { res = histogram.RunOn(d.backend, d.cfg) })
	if err != nil {
		return floodRep{}, err
	}
	return floodRep{items: res.TotalUpdates, run: res.M.Time, failed: histFailed(res.TotalUpdates, res.Tables, d.want), m: res.M}, nil
}

func (d *histDriver) latency() (latencyRep, error) {
	r, err := runPaced(d.backend, d.probe)
	return r.latencyRep(), err
}

func (d *histDriver) tracedFlood() (floodRep, spanStats, error) {
	res, err := runTraced(d.backend, tracedHist(d.cfg))
	if err != nil {
		return floodRep{}, spanStats{}, err
	}
	return floodRep{items: res.m.Reduced, run: res.m.Time, failed: histFailed(res.m.Reduced, res.tables, d.want), m: res.m}, res.spans, nil
}

func (d *histDriver) shape() layerShape { return kernelShape(d.cfg.Tram) }

func (d *histDriver) lateLimit() time.Duration {
	if tram.IsDist(d.backend) {
		return distLateLimit
	}
	return probeLateLimit
}

// --- index-gather on Real ---

type igDriver struct {
	cfg   indexgather.Config
	probe pacedParams
}

func newIGDriver(e env) *igDriver {
	cfg := indexgather.DefaultConfig(tram.SMP(1, 2, 2), tram.WsP)
	cfg.RequestsPerPE = e.sized(256 << 10)
	cfg.Seed = e.seed
	probe := probeFor(e, cfg.Tram)
	probe.RoundTrip = true
	return &igDriver{cfg: cfg, probe: probe}
}

func (d *igDriver) setup() error {
	cfg := d.cfg
	cfg.RequestsPerPE = 1
	return catch("index-gather set-up", func() { indexgather.RunOn(tram.Real, cfg) })
}

// requests is how many requests one flood rep issues; each is delivered once
// and answered once.
func (d *igDriver) requests() int64 {
	return int64(d.cfg.Tram.Topo.TotalWorkers()) * int64(d.cfg.RequestsPerPE)
}

func (d *igDriver) flood() (floodRep, error) {
	var res indexgather.Result
	err := catch("index-gather", func() { res = indexgather.RunOn(tram.Real, d.cfg) })
	if err != nil {
		return floodRep{}, err
	}
	want := d.requests()
	failed := abs64(res.Responses-want) + abs64(res.M.Delivered-2*want) + abs64(res.Latency.Count()-want)
	return floodRep{items: res.M.Delivered, run: res.M.Time, failed: failed, m: res.M}, nil
}

func (d *igDriver) tracedFlood() (floodRep, spanStats, error) {
	res, err := runTraced(tram.Real, tracedGather(d.cfg))
	if err != nil {
		return floodRep{}, spanStats{}, err
	}
	want := d.requests()
	failed := abs64(res.responses-want) + abs64(res.m.Delivered-2*want)
	return floodRep{items: res.m.Delivered, run: res.m.Time, failed: failed, m: res.m}, res.spans, nil
}

func (d *igDriver) shape() layerShape { return kernelShape(d.cfg.Tram) }

func (d *igDriver) latency() (latencyRep, error) {
	r, err := runPaced(tram.Real, d.probe)
	return r.latencyRep(), err
}

func (d *igDriver) lateLimit() time.Duration { return probeLateLimit }

// --- the latency-sensitive configuration: small buffers, adaptive controller ---

type zipfDriver struct {
	probe pacedParams
	burst pacedParams
}

// zipfFloodSteps is the unpaced half's size: the same generator, sinks and
// destinations with the schedule removed, which is this configuration's peak
// rate (the paced rate must stay well under it).
const zipfFloodSteps = 1 << 20

func newZipfDriver(e env) *zipfDriver {
	cfg := tram.DefaultConfig(tram.SMP(1, 3, 4), tram.WPs)
	cfg.BufferItems = 64
	cfg.FlushDeadline = time.Millisecond
	cfg.Adaptive = tram.AdaptiveOptions{
		Enabled:       true,
		TargetLatency: 250 * time.Microsecond,
		MinDeadline:   50 * time.Microsecond,
		Interval:      100 * time.Microsecond,
	}
	probe := probeFor(e, cfg)
	// A hot and a cold route: Zipf over the eight sinks of processes 1-2.
	probe.Shape = traffic.Spec{Kind: traffic.Zipf, ZipfS: 1.4}
	burst := probe
	burst.Interval, burst.Record, burst.Steps = 0, false, e.sized(zipfFloodSteps)
	return &zipfDriver{probe: probe, burst: burst}
}

func (d *zipfDriver) setup() error {
	p := d.burst
	p.Steps = 1
	_, err := runPaced(tram.Real, p)
	return err
}

func (d *zipfDriver) flood() (floodRep, error) {
	r, _, err := d.burstRun(false)
	return r, err
}

func (d *zipfDriver) tracedFlood() (floodRep, spanStats, error) { return d.burstRun(true) }

func (d *zipfDriver) burstRun(trace bool) (floodRep, spanStats, error) {
	p := d.burst
	p.Trace = trace
	r, err := runPaced(tram.Real, p)
	if err != nil {
		return floodRep{}, spanStats{}, err
	}
	return floodRep{items: r.m.Delivered, run: r.m.Time, failed: r.failed(), m: r.m}, r.spans, nil
}

func (d *zipfDriver) shape() layerShape { return kernelShape(d.probe.Tram) }

func (d *zipfDriver) latency() (latencyRep, error) {
	r, err := runPaced(tram.Real, d.probe)
	return r.latencyRep(), err
}

func (d *zipfDriver) lateLimit() time.Duration { return probeLateLimit }

// --- the simulator ---

// simDriver times the simulator itself. Its "latency" is what a simulator's
// user waits for: one small simulation, call to result (cmd/tramlab sweeps
// hundreds of such points), sampled many times per rep.
type simDriver struct {
	cfg, small histogram.Config
	want       [][]int64
	wantSmall  [][]int64
	// simNS is the first rep's virtual makespan; every later rep must
	// reproduce it bit for bit.
	simNS time.Duration
}

const simSmallCalls = 40 // small simulations per latency rep

func newSimDriver(e env) *simDriver {
	cfg := histogram.DefaultConfig(tram.SMP(4, 2, 4), tram.WPs)
	cfg.UpdatesPerPE = e.sized(64 << 10)
	cfg.Seed = e.seed
	small := cfg
	small.UpdatesPerPE = e.sized(2 << 10)
	return &simDriver{cfg: cfg, small: small, want: histOracle(cfg), wantSmall: histOracle(small)}
}

func (d *simDriver) setup() error {
	cfg := d.cfg
	cfg.UpdatesPerPE = 1
	return catch("simulator set-up", func() { histogram.Run(cfg) })
}

func (d *simDriver) flood() (floodRep, error) {
	var res histogram.Result
	if err := catch("simulated histogram", func() { res = histogram.Run(d.cfg) }); err != nil {
		return floodRep{}, err
	}
	return d.checked(res.M, res.Tables), nil
}

// checked turns one simulated run's metrics and tables into a flood rep.
func (d *simDriver) checked(m tram.Metrics, tables [][]int64) floodRep {
	failed := histFailed(m.Reduced, tables, d.want)
	if d.simNS == 0 {
		d.simNS = m.Time
	} else if m.Time != d.simNS {
		failed++ // the model, not the speed, changed between reps
	}
	return floodRep{items: m.Reduced, run: m.Wall, failed: failed, m: m}
}

func (d *simDriver) tracedFlood() (floodRep, spanStats, error) {
	res, err := runTraced(tram.Sim, tracedHist(d.cfg))
	if err != nil {
		return floodRep{}, spanStats{}, err
	}
	return d.checked(res.m, res.tables), res.spans, nil
}

// shape: the simulator runs every modelled worker on the calling goroutine.
func (d *simDriver) shape() layerShape { return layerShape{cfg: d.cfg.Tram, actors: 1} }

func (d *simDriver) latency() (latencyRep, error) {
	rep := latencyRep{lat: make([]int64, 0, simSmallCalls), late: []int64{0}}
	t0 := time.Now()
	for i := 0; i < simSmallCalls; i++ {
		var res histogram.Result
		c0 := time.Now()
		if err := catch("small simulation", func() { res = histogram.Run(d.small) }); err != nil {
			return latencyRep{}, err
		}
		rep.lat = append(rep.lat, int64(time.Since(c0)))
		rep.attempted += res.M.Inserted
		rep.failed += histFailed(res.TotalUpdates, res.Tables, d.wantSmall)
		rep.m = res.M
	}
	rep.run = time.Since(t0)
	rep.lat = sortedCopy(rep.lat)
	return rep, nil
}

func (d *simDriver) lateLimit() time.Duration { return time.Hour } // no generator to run late
