package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tramlib/internal/cluster"
	"tramlib/internal/core"
	"tramlib/internal/dist"
	"tramlib/internal/rt"
	"tramlib/internal/serve"
	"tramlib/internal/transport"
)

// The test binary doubles as the dist worker binary: worker invocations route
// into WorkerMain with the serve test app before any test runs.
func TestMain(m *testing.M) {
	dist.WorkerMain(buildServeApp)
	os.Exit(m.Run())
}

// liveaggParams parameterizes the serve-mode test workload; the worker
// rebuilds the exact coordinator config from it (the handshake checks a
// digest).
type liveaggParams struct {
	Topo   cluster.Topology `json:"topo"`
	Scheme core.Scheme      `json:"scheme"`
	G      int              `json:"g"`
}

// liveaggReport is one process's observed deliveries.
type liveaggReport struct {
	Count int64  `json:"count"`
	Xor   uint64 `json:"xor"`
}

func (p liveaggParams) rtConfig() rt.Config {
	return rt.Config{
		Topo:          p.Topo,
		Scheme:        p.Scheme,
		BufferItems:   p.G,
		FlushDeadline: 200 * time.Microsecond,
		ChunkSize:     64,
	}
}

// buildServeApp is the worker-side registry: a consume-only aggregation app
// whose frontend process binds a serve.Frontend, with per-process delivery
// count and xor in the report.
func buildServeApp(name string, params []byte, proc cluster.ProcID) (dist.App, error) {
	if name != "liveagg" {
		return dist.App{}, fmt.Errorf("unknown serve test app %q", name)
	}
	var p liveaggParams
	if err := json.Unmarshal(params, &p); err != nil {
		return dist.App{}, err
	}
	var count atomic.Int64
	var xor atomic.Uint64
	deliver := func(ctx *rt.Ctx, v uint64) {
		count.Add(1)
		for {
			old := xor.Load()
			if xor.CompareAndSwap(old, old^v) {
				break
			}
		}
		ctx.Contribute(1)
	}
	return dist.App{
		RT:   p.rtConfig(),
		Bind: func(*rt.Ctx) (int, rt.KernelFunc, rt.DeliverFunc) { return 0, nil, deliver },
		Report: func() []byte {
			b, _ := json.Marshal(liveaggReport{Count: count.Load(), Xor: xor.Load()})
			return b
		},
		Serve: func(rtm *rt.Runtime, opts dist.ServeOpts) (dist.FrontendHandle, error) {
			fe, err := serve.New(serve.Config{
				Listen:        opts.Listen,
				MetricsListen: opts.MetricsListen,
				Inj:           rtm,
				Metrics: &serve.MetricsSource{
					Scheme:    p.Scheme.String(),
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
}

// startDistServe starts a 2-process serve topology over the given transport.
func startDistServe(t *testing.T, kind transport.Kind, scheme core.Scheme) (*dist.Server, liveaggParams) {
	t.Helper()
	p := liveaggParams{Topo: cluster.SMP(1, 2, 2), Scheme: scheme, G: 64}
	params, _ := json.Marshal(p)
	srv, err := dist.Serve(dist.Config{
		RT:           p.rtConfig(),
		Name:         "liveagg",
		Params:       params,
		Transport:    kind,
		StartTimeout: 60 * time.Second,
		RunTimeout:   60 * time.Second,
		Serve:        &dist.ServeSpec{Listen: "127.0.0.1:0"},
	})
	if err != nil {
		t.Fatalf("dist.Serve (%v): %v", kind, err)
	}
	return srv, p
}

// sumReports totals the per-process delivery reports.
func sumReports(t *testing.T, res dist.Result) (int64, uint64) {
	t.Helper()
	var count int64
	var xor uint64
	for p, pr := range res.Procs {
		var rep liveaggReport
		if err := json.Unmarshal(pr.Report, &rep); err != nil {
			t.Fatalf("proc %d report: %v", p, err)
		}
		count += rep.Count
		xor ^= rep.Xor
	}
	return count, xor
}

// TestDistServeDrainZeroLoss pins the drain guarantee end to end on the Dist
// backend, for both same-node data planes: clients stream unique values into a
// 2-process topology (worker destinations span both processes, so events
// cross the transport mesh), and after Drain the per-process delivery reports
// exactly match the acked events.
func TestDistServeDrainZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run")
	}
	for _, kind := range []transport.Kind{transport.Socket, transport.Shm} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			srv, _ := startDistServe(t, kind, core.PP)

			const conns = 3
			var sentXor [conns]uint64
			var sentUpTo [conns]int64
			clients := make([]*serve.Client, conns)
			for i := range clients {
				c, err := serve.Dial(srv.Addr(), serve.ClientConfig{Window: 512, Batch: 32})
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				clients[i] = c
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for i, c := range clients {
				wg.Add(1)
				go func(i int, c *serve.Client) {
					defer wg.Done()
					for n := int64(0); ; n++ {
						select {
						case <-stop:
							c.Flush()
							return
						default:
						}
						v := uint64(i+1)<<48 | uint64(n)
						if err := c.Send(uint32(n)%4, v); err != nil {
							return
						}
						sentXor[i] ^= v
						sentUpTo[i] = n + 1
					}
				}(i, c)
			}
			time.Sleep(50 * time.Millisecond)
			close(stop)
			wg.Wait()
			for i, c := range clients {
				if _, err := c.WaitAcked(sentUpTo[i]); err != nil {
					t.Fatalf("conn %d acks: %v", i, err)
				}
			}

			res, err := srv.Drain()
			if err != nil {
				t.Fatalf("drain: %v", err)
			}

			var acked int64
			wantXor := uint64(0)
			for i, c := range clients {
				n, err := c.WaitDrained()
				if err != nil {
					t.Fatalf("conn %d drained: %v", i, err)
				}
				if n != sentUpTo[i] {
					t.Fatalf("conn %d acked %d of %d sent", i, n, sentUpTo[i])
				}
				acked += n
				wantXor ^= sentXor[i]
				c.Close()
			}
			if acked == 0 {
				t.Fatal("no events acked; the stream never established")
			}
			count, xor := sumReports(t, res)
			if count != acked || xor != wantXor {
				t.Fatalf("delivered count/xor = %d/%x, want %d/%x (zero loss)",
					count, xor, acked, wantXor)
			}
		})
	}
}

// TestDistServeDirectScheme pins the Direct scheme's serve path across the
// process boundary: nothing aggregates (no ingress buffers exist), every
// cross-process event ships as its own wire message, and the drain account
// still balances. Regression: ingesting toward a remote destination under
// Direct used to index the nil ingress-buffer slice and panic the frontend.
func TestDistServeDirectScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run")
	}
	srv, _ := startDistServe(t, transport.Socket, core.Direct)
	c, err := serve.Dial(srv.Addr(), serve.ClientConfig{Window: 256, Batch: 16})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	const N = 2000
	var wantXor uint64
	for n := 0; n < N; n++ {
		v := uint64(7)<<48 | uint64(n)
		if err := c.Send(uint32(n)%4, v); err != nil {
			t.Fatalf("send: %v", err)
		}
		wantXor ^= v
	}
	c.Flush()
	if _, err := c.WaitAcked(N); err != nil {
		t.Fatalf("acks: %v", err)
	}
	res, err := srv.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	n, err := c.WaitDrained()
	if err != nil || n != N {
		t.Fatalf("drained %d (%v), want %d", n, err, N)
	}
	c.Close()
	count, xor := sumReports(t, res)
	if count != N || xor != wantXor {
		t.Fatalf("delivered count/xor = %d/%x, want %d/%x", count, xor, N, wantXor)
	}
}

// TestDistServeChaosKill pins the failure path end to end: a worker process
// killed mid-stream surfaces to every connected client as a typed
// *dist.PeerFailureError naming the dead proc, Drain returns the same failure,
// and nothing hangs.
func TestDistServeChaosKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run")
	}
	srv, _ := startDistServe(t, transport.Socket, core.WW)

	c, err := serve.Dial(srv.Addr(), serve.ClientConfig{Window: 1024, Batch: 16})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	// Stream continuously until the failure propagates back as a send error.
	sendErr := make(chan error, 1)
	go func() {
		for n := uint64(0); ; n++ {
			if err := c.Send(uint32(n)%4, n); err != nil {
				sendErr <- err
				return
			}
			if n%16 == 15 {
				c.Flush()
			}
		}
	}()
	// Let the stream establish (acks flowing through both processes), then
	// kill the non-frontend worker.
	deadline := time.Now().Add(30 * time.Second)
	for c.Acked() < 256 {
		if time.Now().After(deadline) {
			t.Fatalf("stream never established: acked=%d err=%v", c.Acked(), c.Err())
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.KillWorker(1); err != nil {
		t.Fatalf("kill worker: %v", err)
	}

	checkTyped := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: no error after worker kill", what)
		}
		var pf *dist.PeerFailureError
		if !errors.As(err, &pf) {
			t.Fatalf("%s: err %T %v, want *dist.PeerFailureError", what, err, err)
		}
		if pf.Proc != 1 {
			t.Fatalf("%s: failure attributed to proc %d, want 1", what, pf.Proc)
		}
		if !errors.Is(err, dist.ErrPeerDied) {
			t.Fatalf("%s: err %v does not wrap ErrPeerDied", what, err)
		}
	}

	// The blocked/streaming client unwedges with the typed failure...
	select {
	case err := <-sendErr:
		checkTyped("client send", err)
	case <-time.After(30 * time.Second):
		t.Fatal("client send loop still blocked 30s after worker kill")
	}
	if _, err := c.WaitDrained(); err == nil {
		t.Fatal("killed run reported a clean drain to the client")
	}
	c.Close()

	// ...and so does the coordinator-side Drain.
	_, err = srv.Drain()
	checkTyped("drain", err)
}
