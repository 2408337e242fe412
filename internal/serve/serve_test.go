package serve_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tramlib/internal/cluster"
	"tramlib/internal/core"
	"tramlib/internal/dist"
	"tramlib/internal/rt"
	"tramlib/internal/serve"
	"tramlib/internal/stats"
)

// testServer bundles a serve-mode runtime and its frontend.
type testServer struct {
	rtm  *rt.Runtime
	fe   *serve.Frontend
	resC chan rt.Result
}

// startServer runs a whole-topology serve runtime behind a frontend. deliver
// observes every delivered value.
func startServer(t *testing.T, scheme core.Scheme, ingressCap int, deliver func(uint64), metrics bool) *testServer {
	t.Helper()
	cfg := rt.Config{
		Topo:          cluster.SMP(1, 2, 2),
		Scheme:        scheme,
		BufferItems:   64,
		FlushDeadline: 200 * time.Microsecond,
		ChunkSize:     64,
		Serve:         true,
		IngressCap:    ingressCap,
	}
	hist := stats.NewAtomicHist()
	rtm := rt.New(cfg, func(ctx *rt.Ctx, v uint64) {
		deliver(v)
		ctx.Contribute(1)
	}, func(cluster.WorkerID) (int, rt.KernelFunc) { return 0, nil })
	rtm.SetFlushHist(hist)
	resC := make(chan rt.Result, 1)
	go func() { resC <- rtm.Run() }()

	fcfg := serve.Config{
		Listen: "127.0.0.1:0",
		Inj:    rtm,
		Metrics: &serve.MetricsSource{
			Scheme:    scheme.String(),
			Counters:  rtm.Counters,
			FlushHist: hist,
		},
	}
	if metrics {
		fcfg.MetricsListen = "127.0.0.1:0"
	}
	fe, err := serve.New(fcfg)
	if err != nil {
		rtm.Stop()
		t.Fatalf("serve.New: %v", err)
	}
	return &testServer{rtm: rtm, fe: fe, resC: resC}
}

// drain performs the full zero-loss sequence and returns the run result.
func (s *testServer) drain(t *testing.T) rt.Result {
	t.Helper()
	if err := s.fe.Drain(); err != nil {
		t.Fatalf("frontend drain: %v", err)
	}
	if err := s.rtm.WaitQuiet(nil); err != nil {
		t.Fatalf("WaitQuiet: %v", err)
	}
	s.rtm.Stop()
	s.fe.Close()
	return <-s.resC
}

// TestDrainZeroLoss pins the drain guarantee on the Real (in-process) path
// for every scheme: concurrent clients stream unique values, drain lands
// mid-stream, and afterwards the delivered multiset exactly matches the acked
// events (count and XOR of unique IDs).
func TestDrainZeroLoss(t *testing.T) {
	for _, scheme := range core.Schemes() {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			var count atomic.Int64
			var xor atomic.Uint64
			s := startServer(t, scheme, 128, func(v uint64) {
				count.Add(1)
				for {
					old := xor.Load()
					if xor.CompareAndSwap(old, old^v) {
						break
					}
				}
			}, false)

			const conns = 4
			var sentXor [conns]uint64
			var sentUpTo [conns]int64
			clients := make([]*serve.Client, conns)
			for i := range clients {
				c, err := serve.Dial(s.fe.Addr(), serve.ClientConfig{Window: 512, Batch: 32})
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
							return // drain raced our send; acked set governs
						}
						sentXor[i] ^= v
						sentUpTo[i] = n + 1
					}
				}(i, c)
			}
			time.Sleep(20 * time.Millisecond) // let the stream establish
			close(stop)
			wg.Wait()
			// The ack is the guarantee's unit: drain drops frames still in
			// socket buffers (unacked, reported by the final count), so wait
			// until the whole stream is admitted before draining to pin the
			// strongest claim — acked == sent == delivered.
			for i, c := range clients {
				if _, err := c.WaitAcked(sentUpTo[i]); err != nil {
					t.Fatalf("conn %d acks: %v", i, err)
				}
			}

			res := s.drain(t)

			var acked int64
			for i, c := range clients {
				n, err := c.WaitDrained()
				if err != nil {
					t.Fatalf("conn %d drained err: %v", i, err)
				}
				if n != sentUpTo[i] {
					t.Fatalf("conn %d acked %d of %d sent", i, n, sentUpTo[i])
				}
				acked += n
				c.Close()
			}
			wantXor := uint64(0)
			for _, x := range sentXor {
				wantXor ^= x
			}
			if count.Load() != acked || xor.Load() != wantXor {
				t.Fatalf("delivered count/xor = %d/%x, want %d/%x (zero loss)",
					count.Load(), xor.Load(), acked, wantXor)
			}
			if res.Delivered != acked {
				t.Fatalf("runtime delivered %d, want %d", res.Delivered, acked)
			}
		})
	}
}

// TestBackpressureStalledConsumer pins the bounded-memory property at the
// service level: with worker 0 wedged, a connection streaming to it stalls
// with its unacked window full while another connection to live workers keeps
// flowing; ingress occupancy never exceeds the cap.
func TestBackpressureStalledConsumer(t *testing.T) {
	const ingressCap = 32
	release := make(chan struct{})
	var wedgeOnce sync.Once
	var live atomic.Int64
	s := startServer(t, core.Direct, ingressCap, func(v uint64) {
		if v>>63 == 1 {
			wedgeOnce.Do(func() { <-release })
			return
		}
		live.Add(1)
	}, false)

	stalled, err := serve.Dial(s.fe.Addr(), serve.ClientConfig{Window: 64, Batch: 8})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	// Saturate worker 0: the first event wedges it, the rest pile into its
	// admission window, the handler blocks in Ingest, and finally the
	// client's own unacked window fills — Send blocks. The sender goroutine
	// stays wedged until the drain resolves it (Send then returns
	// ErrDrained, its clean exit).
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		for n := int64(0); ; n++ {
			if err := stalled.Send(0, 1<<63|uint64(n)); err != nil {
				return
			}
			stalled.Flush()
		}
	}()
	windowFull := func() bool { return stalled.Sent()-stalled.Acked() >= 64 }
	deadline := time.Now().Add(10 * time.Second)
	for !windowFull() {
		if time.Now().After(deadline) {
			t.Fatalf("backpressure never reached the client: sent=%d acked=%d",
				stalled.Sent(), stalled.Acked())
		}
		time.Sleep(time.Millisecond)
	}

	// The wedged destination's server-side occupancy is bounded by the cap.
	if used, capacity := s.rtm.IngressOccupancy(0); used > capacity || capacity != ingressCap {
		t.Fatalf("wedged occupancy %d/%d exceeds cap %d", used, capacity, ingressCap)
	}

	// A second connection to live workers flows the whole time.
	flowing, err := serve.Dial(s.fe.Addr(), serve.ClientConfig{Window: 512, Batch: 32})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	const liveEvents = 5_000
	for n := 0; n < liveEvents; n++ {
		if err := flowing.Send(1+uint32(n)%3, uint64(n)); err != nil {
			t.Fatalf("live send: %v", err)
		}
	}
	flowing.Flush()
	if _, err := flowing.WaitAcked(liveEvents); err != nil {
		t.Fatalf("live acks: %v", err)
	}

	close(release)
	res := s.drain(t)
	sn, err := stalled.WaitDrained()
	if err != nil {
		t.Fatalf("stalled drained: %v", err)
	}
	fn, err := flowing.WaitDrained()
	if err != nil {
		t.Fatalf("flowing drained: %v", err)
	}
	<-senderDone
	if fn != liveEvents {
		t.Fatalf("flowing acked %d, want %d", fn, liveEvents)
	}
	if sn > stalled.Sent() {
		t.Fatalf("stalled acked %d > sent %d", sn, stalled.Sent())
	}
	if res.Delivered != sn+fn {
		t.Fatalf("delivered %d, want acked total %d", res.Delivered, sn+fn)
	}
	stalled.Close()
	flowing.Close()
}

// TestLoadGen runs the load generator against a live server and checks the
// report's accounting, then scrapes the metrics endpoint.
func TestLoadGen(t *testing.T) {
	var count atomic.Int64
	s := startServer(t, core.PP, 256, func(uint64) { count.Add(1) }, true)

	rep, err := serve.Run(serve.LoadConfig{
		Addr:            s.fe.Addr(),
		Clients:         1_000,
		Conns:           8,
		EventsPerClient: 20,
		Workers:         4,
		Seed:            42,
	})
	if err != nil {
		t.Fatalf("load run: %v", err)
	}
	const total = 1_000 * 20
	if rep.Sent != total || rep.Acked != total {
		t.Fatalf("sent/acked = %d/%d, want %d", rep.Sent, rep.Acked, total)
	}
	if rep.Achieved <= 0 {
		t.Fatalf("achieved eps = %v, want > 0", rep.Achieved)
	}

	// The scrape endpoint reports the traffic.
	resp, err := http.Get("http://" + s.fe.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, fmt.Sprintf("tramserve_admitted_total %d", total)) {
		t.Fatalf("scrape missing admitted_total %d:\n%s", total, text)
	}
	for _, metric := range []string{
		"tramserve_admitted_per_second",
		"tramserve_rt_delivered_total",
		"tramserve_ingress_cap",
		"tramserve_scheme",
	} {
		if !strings.Contains(text, metric) {
			t.Fatalf("scrape missing %s:\n%s", metric, text)
		}
	}

	s.drain(t)
	if count.Load() != total {
		t.Fatalf("delivered %d, want %d", count.Load(), total)
	}
}

// TestMetricsFirstScrapeWindow pins the first-scrape window alignment:
// flush-latency samples observed before the metrics server started belong to
// no scrape window — the server primes its window at startup, so the first
// scrape's quantiles and its admitted_per_second rate cover the same
// interval instead of quantiles summarizing the whole pre-server history.
func TestMetricsFirstScrapeWindow(t *testing.T) {
	hist := stats.NewAtomicHist()
	for i := 0; i < 50; i++ {
		hist.Observe(int64(1_000_000 + i)) // boot-time flush history
	}
	rtm := rt.New(rt.Config{
		Topo:          cluster.SMP(1, 2, 2),
		Scheme:        core.PP,
		BufferItems:   64,
		FlushDeadline: 200 * time.Microsecond,
		ChunkSize:     64,
		Serve:         true,
		IngressCap:    64,
	}, func(ctx *rt.Ctx, v uint64) { ctx.Contribute(1) },
		func(cluster.WorkerID) (int, rt.KernelFunc) { return 0, nil })
	rtm.SetFlushHist(hist)
	resC := make(chan rt.Result, 1)
	go func() { resC <- rtm.Run() }()
	fe, err := serve.New(serve.Config{
		Listen:        "127.0.0.1:0",
		MetricsListen: "127.0.0.1:0",
		Inj:           rtm,
		Metrics: &serve.MetricsSource{
			Scheme:    core.PP.String(),
			Counters:  rtm.Counters,
			FlushHist: hist,
		},
	})
	if err != nil {
		rtm.Stop()
		t.Fatalf("serve.New: %v", err)
	}
	s := &testServer{rtm: rtm, fe: fe, resC: resC}

	scrape := func() string {
		resp, err := http.Get("http://" + fe.MetricsAddr() + "/metrics")
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(body)
	}
	if text := scrape(); !strings.Contains(text, "tramserve_flush_latency_window_count 0\n") {
		t.Fatalf("first scrape window includes pre-server history:\n%s", text)
	}
	// Samples observed after the first scrape are the second window's.
	for _, v := range []int64{500, 700, 900} {
		hist.Observe(v)
	}
	if text := scrape(); !strings.Contains(text, "tramserve_flush_latency_window_count 3\n") {
		t.Fatalf("second scrape window should hold exactly the 3 new samples:\n%s", text)
	}
	s.drain(t)
}

// TestAbortSurfacesTypedError pins the failure path: Abort sends every
// connected client an OpFail that surfaces as a typed *dist.PeerFailureError,
// and blocked senders unwedge (no hang).
func TestAbortSurfacesTypedError(t *testing.T) {
	s := startServer(t, core.WW, 16, func(uint64) {}, false)
	c, err := serve.Dial(s.fe.Addr(), serve.ClientConfig{Window: 64, Batch: 4})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for n := 0; n < 32; n++ {
		if err := c.Send(uint32(n)%4, uint64(n)); err != nil {
			break
		}
	}
	c.Flush()
	// Abort once the connection is established on the server side: one the
	// listener had not accepted yet is reset when Abort closes it, and the
	// client would see that instead of the OpFail this test is about.
	if _, err := c.WaitAcked(1); err != nil {
		t.Fatalf("first ack: %v", err)
	}
	s.fe.Abort(1, "run", "worker 1 died")

	_, err = c.WaitDrained()
	if err == nil {
		t.Fatal("aborted connection reported a clean drain")
	}
	var typed *dist.PeerFailureError
	if !errors.As(err, &typed) {
		t.Fatalf("err %T %v, want *dist.PeerFailureError", err, err)
	}
	if typed.Proc != 1 || typed.Phase != "run" {
		t.Fatalf("failure attributed to proc=%d phase=%q, want 1/run", typed.Proc, typed.Phase)
	}
	if !errors.Is(err, dist.ErrPeerDied) {
		t.Fatalf("err %v does not wrap ErrPeerDied", err)
	}
	c.Close()
	s.rtm.Stop()
	s.fe.Close()
	<-s.resC
}
