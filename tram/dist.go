package tram

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"tramlib/internal/cluster"
	"tramlib/internal/dist"
	"tramlib/internal/dist/hostfile"
	"tramlib/internal/rt"
	"tramlib/internal/serve"
	"tramlib/internal/transport"
)

// The Dist backend runs each process of the topology as a real OS process.
// Unlike Sim and Real, the application cannot travel into those processes as
// closures — every worker process is a fresh execution of the same binary —
// so Dist apps are *registered*: a named builder reconstructs the identical
// Config and App from serialized parameters in every process. Three pieces
// cooperate:
//
//   - RegisterDist(name, builder) — typically from an init func in the
//     application's package, so parent and workers (the same binary) both
//     have it.
//   - Config.Dist.App / Config.Dist.Params — tell a Run which registration
//     to use and what parameters to hand it.
//   - Main() — called first thing in main (or TestMain): in a worker
//     process it runs the worker to completion and exits; in any other
//     process it returns immediately.
//
// The closures passed to Lib.Run on the Dist backend never execute — the
// parent is a pure coordinator. Application results that live in process
// memory therefore come back through the registered DistApp's report hook:
// each worker serializes its share after quiescence, and the parent returns
// the per-process blobs in Metrics.Reports.

// Dist is the multi-process backend: every ProcID of the topology is a real
// OS process — self-exec'd locally, or launched over SSH onto the machines
// DistOptions.Hosts names — coordinated by the parent over a Unix-domain or
// TCP control connection. Intra-process traffic uses the same lock-free
// shared-memory buffers as Real, while process-crossing batches are framed
// onto the peer mesh (unix sockets, shm rings, or TCP streams per
// DistOptions.Transport). Metrics are wall-clock, aggregated from
// per-process reports.
var Dist Backend = distBackend{}

// IsDist reports whether b is the multi-process backend (applications use it
// to switch their result assembly to Metrics.Reports).
func IsDist(b Backend) bool {
	_, ok := b.(distBackend)
	return ok
}

// DistApp is a bound application instance for the Dist backend's worker
// processes: the configuration, the word-level app, and the report hook.
// Build one with BindDist.
type DistApp struct {
	cfg    Config
	raw    rawApp
	report func() []byte
}

// BindDist binds a typed application the way Lib.Run would, plus a report
// hook: report (optional) runs in each worker process after quiescence and
// serializes that process's application results; the parent surfaces the
// blobs in Metrics.Reports indexed by ProcID.
func BindDist[T any](l Lib[T], cfg Config, app App[T], report func() []byte) (DistApp, error) {
	raw, err := l.bind(app)
	if err != nil {
		return DistApp{}, err
	}
	return DistApp{cfg: cfg, raw: raw, report: report}, nil
}

// DistBuilder reconstructs an application from its serialized parameters. It
// runs inside every worker process of a Dist run; proc is the process the
// worker hosts, so report hooks can serialize just their local share. The
// Config it binds must be identical to the one the coordinating Run was
// given (the handshake verifies a digest of the runtime-relevant fields) —
// in particular it must not depend on proc.
type DistBuilder func(params []byte, proc ProcID) (DistApp, error)

var distReg = struct {
	sync.RWMutex
	m map[string]DistBuilder
}{m: map[string]DistBuilder{}}

// RegisterDist registers a named application for the Dist backend. Call it
// from an init func of the application's package so the registration exists
// in the parent and in every self-exec'd worker alike. Registering an empty
// name or a duplicate panics (it is a programming error).
func RegisterDist(name string, build DistBuilder) {
	if name == "" || build == nil {
		panic("tram: RegisterDist needs a name and a builder")
	}
	distReg.Lock()
	defer distReg.Unlock()
	if _, dup := distReg.m[name]; dup {
		panic(fmt.Sprintf("tram: duplicate dist registration %q", name))
	}
	distReg.m[name] = build
}

// distBuilderFor looks up a registration.
func distBuilderFor(name string) (DistBuilder, bool) {
	distReg.RLock()
	defer distReg.RUnlock()
	b, ok := distReg.m[name]
	return b, ok
}

// DistApps lists the registered Dist application names, sorted.
func DistApps() []string {
	distReg.RLock()
	defer distReg.RUnlock()
	names := make([]string, 0, len(distReg.m))
	for n := range distReg.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Main is the Dist worker hook: programs that run the Dist backend must call
// it first thing in main (tests in TestMain) — before flag parsing or any
// other work. In a worker process (spawned by a Dist run of the same
// binary) it builds the registered application, executes this process's
// share of the run, and exits; otherwise it returns immediately.
func Main() {
	dist.WorkerMain(func(name string, params []byte, proc cluster.ProcID) (dist.App, error) {
		build, ok := distBuilderFor(name)
		if !ok {
			return dist.App{}, fmt.Errorf("tram: no dist registration %q (forgot the import or RegisterDist?)", name)
		}
		da, err := build(params, proc)
		if err != nil {
			return dist.App{}, err
		}
		if err := da.cfg.Validate(); err != nil {
			return dist.App{}, err
		}
		scheme := da.cfg.Scheme
		return dist.App{
			RT:     da.cfg.realConfig(),
			Bind:   realBind(da.raw),
			Report: da.report,
			// The frontend process of a serve run binds the ingestion
			// listener here; batch runs never call it.
			Serve: func(rtm *rt.Runtime, opts dist.ServeOpts) (dist.FrontendHandle, error) {
				fe, err := serve.New(serve.Config{
					Listen:        opts.Listen,
					MetricsListen: opts.MetricsListen,
					Inj:           rtm,
					Metrics: &serve.MetricsSource{
						Scheme:    scheme.String(),
						Counters:  rtm.Counters,
						FlushHist: opts.FlushHist,
					},
				})
				if err != nil {
					return nil, err
				}
				return fe, nil
			},
		}, nil
	})
}

// --- the backend ---

type distBackend struct{}

func (distBackend) String() string { return "dist" }

// checkDistApp verifies the configuration names a usable registration.
func checkDistApp(cfg Config) error {
	if cfg.Dist.App == "" {
		return fmt.Errorf("tram: the Dist backend needs Config.Dist.App (a RegisterDist name)")
	}
	if _, ok := distBuilderFor(cfg.Dist.App); !ok {
		return fmt.Errorf("tram: no dist registration %q", cfg.Dist.App)
	}
	return nil
}

// distConfig lowers the unified config to the coordinator's. Shared by the
// batch run and serve paths.
func distConfig(cfg Config) dist.Config {
	kind := transport.Socket
	switch cfg.Dist.Transport {
	case TransportShm:
		kind = transport.Shm
	case TransportTCP:
		kind = transport.TCP
	}
	var hosts []hostfile.Host
	for _, h := range cfg.Dist.Hosts {
		hosts = append(hosts, hostfile.Host{Target: h.Target, Procs: h.Procs, Listen: h.Listen, Cmd: h.Cmd})
	}
	return dist.Config{
		RT:                cfg.realConfig(),
		Name:              cfg.Dist.App,
		Params:            cfg.Dist.Params,
		SockDir:           cfg.Dist.SockDir,
		StartTimeout:      cfg.Dist.StartTimeout,
		RunTimeout:        cfg.Dist.RunTimeout,
		HeartbeatInterval: cfg.Dist.HeartbeatInterval,
		ProbeInterval:     cfg.Dist.ProbeInterval,
		MaxFrameBytes:     cfg.Dist.MaxFrameBytes,
		Transport:         kind,
		Nodes:             cfg.Dist.Nodes,
		RingBytes:         cfg.Dist.RingBytes,
		Hierarchical:      cfg.Dist.Hierarchical,
		Hosts:             hosts,
		ListenAddr:        cfg.Dist.ListenAddr,
		KeepAlive:         cfg.Dist.KeepAlive,
		LinkDelay:         cfg.Dist.LinkDelay,
		LinkJitter:        cfg.Dist.LinkJitter,
	}
}

// distMetrics aggregates per-process results into run metrics.
func distMetrics(res dist.Result, start time.Time) Metrics {
	m := Metrics{
		Time:         res.Wall,
		LastDelivery: res.Wall,
		Wall:         time.Since(start),
		Reports:      make([][]byte, len(res.Procs)),
	}
	for p, pr := range res.Procs {
		m.Reports[p] = pr.Report
		m.addRT(pr.RT)
	}
	return m
}

// run coordinates a multi-process execution. The app closures are ignored:
// worker processes rebuild the application from cfg.Dist's registration (see
// the package comment); results living in application memory come back via
// Metrics.Reports.
func (distBackend) run(cfg Config, _ rawApp) (Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return Metrics{}, err
	}
	if err := checkDistApp(cfg); err != nil {
		return Metrics{}, err
	}
	start := time.Now()
	res, err := dist.Run(distConfig(cfg))
	if err != nil {
		return Metrics{}, err
	}
	return distMetrics(res, start), nil
}
