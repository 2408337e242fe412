package tram

import (
	"fmt"
	"sync"
	"time"

	"tramlib/internal/dist"
	"tramlib/internal/rt"
	"tramlib/internal/serve"
	"tramlib/internal/stats"
)

// Serve starts app as a long-running ingestion service instead of a batch
// run: the topology stays alive while a TCP frontend accepts events from
// external clients and routes them into the aggregation runtime, until the
// returned Server's Drain ends it with zero loss of acknowledged events.
//
// On the Real backend the frontend and the runtime share this process. On the
// Dist backend worker process 0 hosts the frontend (so cfg.Dist must carry a
// registration, exactly as a Dist Run would) and this process stays a pure
// coordinator. The Sim backend cannot serve: virtual time admits no live
// clients.
//
// Clients speak the internal/wire framing the tramserve protocol defines
// (docs/SERVE.md); cmd/tramserve and cmd/tramload are the reference server
// and load-generator binaries. Admission is bounded end to end by
// cfg.Serve.IngressCap (backpressure reaches clients through TCP and their
// ack windows), and live metrics scrape from cfg.Serve.MetricsListen.
func (l Lib[T]) Serve(b Backend, cfg Config, app App[T]) (*Server, error) {
	raw, err := l.bind(app)
	if err != nil {
		return nil, err
	}
	return b.serve(cfg, raw)
}

// Server is a running ingestion service (Lib.Serve). End it with Drain; the
// addresses are the frontend's resolved listeners.
type Server struct {
	addr        string
	metricsAddr string
	drainFn     func() (Metrics, error)
	killFn      func(proc int) error

	drainOnce sync.Once
	m         Metrics
	err       error
}

// Addr returns the client listener's address.
func (s *Server) Addr() string { return s.addr }

// MetricsAddr returns the metrics scrape endpoint's address ("" if disabled).
func (s *Server) MetricsAddr() string { return s.metricsAddr }

// Drain gracefully ends the service: stop accepting, send every client its
// final acknowledgment, flush all aggregation buffers, and wait for proven
// quiescence — every acknowledged event is delivered before Drain returns
// (zero loss). The returned Metrics cover the whole serving period.
// Idempotent; if the service failed (a Dist worker died), Drain returns that
// failure instead.
func (s *Server) Drain() (Metrics, error) {
	s.drainOnce.Do(func() { s.m, s.err = s.drainFn() })
	return s.m, s.err
}

// KillWorker force-kills worker process proc mid-serve (chaos testing: the
// failure must surface to connected clients as a *PeerFailureError and to
// Drain's caller, never hang). Dist backend only.
func (s *Server) KillWorker(proc int) error { return s.killFn(proc) }

// validateServe checks the serve-specific configuration on top of Validate.
func validateServe(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Serve.Listen == "" {
		return fmt.Errorf("tram: Serve needs Config.Serve.Listen")
	}
	if cfg.FlushDeadline <= 0 {
		return fmt.Errorf("tram: Serve needs a positive FlushDeadline (it bounds how long admitted events may sit in partial buffers)")
	}
	return nil
}

// --- backend implementations ---

func (simBackend) serve(Config, rawApp) (*Server, error) {
	return nil, fmt.Errorf("tram: the Sim backend cannot serve (virtual time admits no live clients); use Real or Dist")
}

func (realBackend) serve(cfg Config, app rawApp) (*Server, error) {
	if err := validateServe(cfg); err != nil {
		return nil, err
	}
	rtCfg := cfg.realConfig()
	rtCfg.Serve = true
	rtCfg.IngressCap = cfg.Serve.IngressCap
	rtm := rt.NewBound(rtCfg, realBind(app))
	hist := stats.NewAtomicHist()
	rtm.SetFlushHist(hist)
	resC := make(chan rt.Result, 1)
	go func() { resC <- rtm.Run() }()

	fe, err := serve.New(serve.Config{
		Listen:        cfg.Serve.Listen,
		MetricsListen: cfg.Serve.MetricsListen,
		Inj:           rtm,
		Metrics: &serve.MetricsSource{
			Scheme:    cfg.Scheme.String(),
			Counters:  rtm.Counters,
			FlushHist: hist,
		},
	})
	if err != nil {
		rtm.Stop()
		<-resC
		return nil, err
	}
	srv := &Server{addr: fe.Addr(), metricsAddr: fe.MetricsAddr()}
	srv.drainFn = func() (Metrics, error) {
		if err := fe.Drain(); err != nil {
			return Metrics{}, fmt.Errorf("tram: drain frontend: %w", err)
		}
		// Every acked event is admitted; wait until it is also delivered.
		dt := cfg.Serve.DrainTimeout
		if dt <= 0 {
			dt = 30 * time.Second
		}
		abort := make(chan struct{})
		tm := time.AfterFunc(dt, func() { close(abort) })
		defer tm.Stop()
		if err := rtm.WaitQuiet(abort); err != nil {
			rtm.Stop()
			fe.Close()
			<-resC
			return Metrics{}, fmt.Errorf("tram: drain quiesce (%v): %w", dt, err)
		}
		rtm.Stop()
		fe.Close()
		return realMetrics(<-resC), nil
	}
	srv.killFn = func(int) error {
		return fmt.Errorf("tram: KillWorker needs the Dist backend (the Real backend has one process)")
	}
	return srv, nil
}

func (distBackend) serve(cfg Config, _ rawApp) (*Server, error) {
	if err := validateServe(cfg); err != nil {
		return nil, err
	}
	if err := checkDistApp(cfg); err != nil {
		return nil, err
	}
	dcfg := distConfig(cfg)
	dcfg.Serve = &dist.ServeSpec{
		Listen:        cfg.Serve.Listen,
		MetricsListen: cfg.Serve.MetricsListen,
		IngressCap:    cfg.Serve.IngressCap,
		DrainTimeout:  cfg.Serve.DrainTimeout,
	}
	start := time.Now()
	ds, err := dist.Serve(dcfg)
	if err != nil {
		return nil, err
	}
	srv := &Server{addr: ds.Addr(), metricsAddr: ds.MetricsAddr()}
	srv.drainFn = func() (Metrics, error) {
		res, err := ds.Drain()
		if err != nil {
			return Metrics{}, err
		}
		return distMetrics(res, start), nil
	}
	srv.killFn = ds.KillWorker
	return srv, nil
}
