package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"tramlib/internal/cluster"
	"tramlib/internal/core"
	"tramlib/internal/dist/hostfile"
	"tramlib/internal/rng"
	"tramlib/internal/rt"
	"tramlib/internal/transport"
)

// The test binary doubles as the worker binary: TestMain routes dist-worker
// invocations into WorkerMain with the test apps below before any test runs.
func TestMain(m *testing.M) {
	WorkerMain(buildTestApp)
	os.Exit(m.Run())
}

// histoParams parameterizes the histogram-shaped test workload.
type histoParams struct {
	Topo   cluster.Topology `json:"topo"`
	Scheme core.Scheme      `json:"scheme"`
	Z      int              `json:"z"`
	G      int              `json:"g"`
	Seed   uint64           `json:"seed"`
}

// histoReport is one process's observed deliveries.
type histoReport struct {
	Count []int64  `json:"count"` // by global worker id (non-local stay 0)
	Xor   []uint64 `json:"xor"`
}

// buildTestApp is the worker-side registry for this package's tests.
func buildTestApp(name string, params []byte, proc cluster.ProcID) (App, error) {
	switch name {
	case "histo":
		var p histoParams
		if err := json.Unmarshal(params, &p); err != nil {
			return App{}, err
		}
		return buildHisto(p), nil
	case "reqresp":
		var p histoParams
		if err := json.Unmarshal(params, &p); err != nil {
			return App{}, err
		}
		return buildReqResp(p), nil
	case "badconfig":
		var p histoParams
		json.Unmarshal(params, &p)
		app := buildHisto(p)
		app.RT.BufferItems++ // deliberately diverge from the coordinator
		return app, nil
	case "crash":
		return App{}, fmt.Errorf("refusing to build %q", name)
	default:
		return App{}, fmt.Errorf("unknown test app %q", name)
	}
}

// buildHisto is the histogram-shaped no-loss/no-dup workload: every worker
// sends Z items to seeded pseudo-random destinations; values encode (dest,
// payload) so receivers verify addressing; the report carries per-worker
// counts and xor checksums.
func buildHisto(p histoParams) App {
	W := p.Topo.TotalWorkers()
	rep := histoReport{Count: make([]int64, W), Xor: make([]uint64, W)}
	cfg := rt.Config{
		Topo:          p.Topo,
		Scheme:        p.Scheme,
		BufferItems:   p.G,
		FlushDeadline: time.Millisecond,
		ChunkSize:     64,
	}
	return App{
		RT: cfg,
		Bind: rt.SharedBind(func(ctx *rt.Ctx, v uint64) {
			self := int(ctx.Self())
			rep.Count[self]++
			rep.Xor[self] ^= v
			ctx.Contribute(1)
		}, func(w cluster.WorkerID) (int, rt.KernelFunc) {
			r := rng.NewStream(p.Seed, int(w))
			return p.Z, func(ctx *rt.Ctx, _ int) {
				u := r.Uint64()
				dest := cluster.WorkerID(u % uint64(W))
				ctx.Send(dest, uint64(dest)<<48|u&0xffffffffffff)
			}
		}),
		Report: func() []byte {
			b, _ := json.Marshal(rep)
			return b
		},
	}
}

// buildReqResp is the request-response chain workload: delivered requests
// trigger response sends, so distributed quiescence must wait for chains
// crossing process boundaries, not just generated items.
func buildReqResp(p histoParams) App {
	W := p.Topo.TotalWorkers()
	const respFlag = uint64(1) << 47
	cfg := rt.Config{
		Topo:          p.Topo,
		Scheme:        p.Scheme,
		BufferItems:   p.G,
		FlushDeadline: 500 * time.Microsecond,
		ChunkSize:     64,
	}
	return App{
		RT: cfg,
		Bind: rt.SharedBind(func(ctx *rt.Ctx, v uint64) {
			if v&respFlag != 0 {
				ctx.Contribute(1) // response landed back at its requester
				return
			}
			requester := cluster.WorkerID(v & 0xffff)
			ctx.Send(requester, respFlag|uint64(requester)<<48|v&0xffff)
		}, func(w cluster.WorkerID) (int, rt.KernelFunc) {
			r := rng.NewStream(p.Seed, int(w))
			self := w
			return p.Z, func(ctx *rt.Ctx, _ int) {
				dest := cluster.WorkerID(r.Intn(W - 1))
				if dest >= self {
					dest++
				}
				ctx.Send(dest, uint64(dest)<<48|uint64(self))
			}
		}),
	}
}

// runHisto executes the histo app across real processes and validates the
// aggregate against a serial replay. mutate, if non-nil, adjusts the run
// configuration (transport selection) before launch.
func runHisto(t *testing.T, topo cluster.Topology, scheme core.Scheme, z, g int, mutate ...func(*Config)) Result {
	t.Helper()
	p := histoParams{Topo: topo, Scheme: scheme, Z: z, G: g, Seed: 7}
	params, _ := json.Marshal(p)
	cfg := Config{
		RT: rt.Config{
			Topo:          topo,
			Scheme:        scheme,
			BufferItems:   g,
			FlushDeadline: time.Millisecond,
			ChunkSize:     64,
		},
		Name:   "histo",
		Params: params,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	W := topo.TotalWorkers()

	// Merge per-proc reports.
	count := make([]int64, W)
	xor := make([]uint64, W)
	for pr, procRes := range res.Procs {
		var rep histoReport
		if err := json.Unmarshal(procRes.Report, &rep); err != nil {
			t.Fatalf("proc %d report: %v", pr, err)
		}
		for w := 0; w < W; w++ {
			count[w] += rep.Count[w]
			xor[w] ^= rep.Xor[w]
		}
	}

	// Serial replay for the expected multiset.
	wantCount := make([]int64, W)
	wantXor := make([]uint64, W)
	for w := 0; w < W; w++ {
		r := rng.NewStream(7, w)
		for i := 0; i < z; i++ {
			u := r.Uint64()
			dest := u % uint64(W)
			wantCount[dest]++
			wantXor[dest] ^= dest<<48 | u&0xffffffffffff
		}
	}
	var total, inserted, delivered, reduced, sent, recv int64
	for w := 0; w < W; w++ {
		total += count[w]
		if count[w] != wantCount[w] {
			t.Errorf("worker %d received %d items, want %d", w, count[w], wantCount[w])
		}
		if xor[w] != wantXor[w] {
			t.Errorf("worker %d xor mismatch (lost or duplicated items)", w)
		}
	}
	for _, procRes := range res.Procs {
		inserted += procRes.RT.Inserted
		delivered += procRes.RT.Delivered
		reduced += procRes.RT.Reduced
		sent += procRes.RT.RemoteSent
		recv += procRes.RT.RemoteRecv
	}
	if want := int64(W) * int64(z); total != want || inserted != want || delivered != want || reduced != want {
		t.Fatalf("total %d inserted %d delivered %d reduced %d, want %d",
			total, inserted, delivered, reduced, want)
	}
	if sent != recv {
		t.Fatalf("cross counters unbalanced: sent %d recv %d", sent, recv)
	}
	if topo.TotalProcs() > 1 && sent == 0 {
		t.Fatal("no cross-process traffic on a multi-proc run")
	}
	return res
}

func TestAllSchemesAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	topo := cluster.SMP(1, 2, 2) // 2 OS processes x 2 workers
	for _, s := range core.Schemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			runHisto(t, topo, s, 4000, 32)
		})
	}
}

func TestFourProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	runHisto(t, cluster.SMP(2, 2, 2), core.WPs, 3000, 16)
}

// shmConfig switches a run to the shared-memory data plane (all procs on
// one node by default).
func shmConfig(cfg *Config) { cfg.Transport = transport.Shm }

func TestAllSchemesAcrossProcessesShm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	topo := cluster.SMP(1, 2, 2)
	for _, s := range core.Schemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			runHisto(t, topo, s, 4000, 32, shmConfig)
		})
	}
}

func TestFourProcessesShm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	runHisto(t, cluster.SMP(2, 2, 2), core.WPs, 3000, 16, shmConfig)
}

// tcpConfig switches a run's data plane to TCP loopback streams.
func tcpConfig(cfg *Config) { cfg.Transport = transport.TCP }

func TestAllSchemesAcrossProcessesTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	topo := cluster.SMP(1, 2, 2)
	for _, s := range core.Schemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			runHisto(t, topo, s, 4000, 32, tcpConfig)
		})
	}
}

func TestFourProcessesTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	runHisto(t, cluster.SMP(2, 2, 2), core.WPs, 3000, 16, tcpConfig)
}

// TestDistTCPControlPlane runs the full launcher path an SSH deployment
// uses — an explicit host list, the TCP control endpoint, TCP data links,
// keepalive — on loopback, with the local provider standing in for SSH.
func TestDistTCPControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	runHisto(t, cluster.SMP(1, 3, 1), core.WPs, 3000, 16, func(cfg *Config) {
		cfg.Transport = transport.TCP
		cfg.Hosts = []hostfile.Host{{Target: "local", Procs: 3}}
		cfg.ListenAddr = "127.0.0.1:0"
		cfg.KeepAlive = 2 * time.Second
	})
}

// TestTCPInjectedLatency pins the injected-latency mode end to end: the
// run still computes the exact replay-validated result, and the wall time
// reflects the configured delay.
func TestTCPInjectedLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	res := runHisto(t, cluster.SMP(1, 2, 2), core.WPs, 1000, 32, func(cfg *Config) {
		cfg.Transport = transport.TCP
		cfg.LinkDelay = 2 * time.Millisecond
		cfg.LinkJitter = time.Millisecond
	})
	if res.Wall < 2*time.Millisecond {
		t.Fatalf("wall %v under the per-frame injected delay", res.Wall)
	}
}

func TestMixedNodesShmAndSocket(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	// Four processes on two "nodes": pairs {0,1} and {2,3} ride rings,
	// everything across the node split rides sockets — one run, both
	// transports, same replay-validated result.
	runHisto(t, cluster.SMP(2, 2, 2), core.PP, 3000, 16, func(cfg *Config) {
		cfg.Transport = transport.Shm
		cfg.Nodes = []int{0, 0, 1, 1}
	})
}

func TestShmSocketIdenticalResults(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	// The transport must never change what the run computes: same app, same
	// seed, per-worker counts and checksums compared element-wise across the
	// three data planes (runHisto already pins each against the serial
	// replay; this pins them against each other including the metrics
	// totals).
	topo := cluster.SMP(1, 2, 2)
	sock := runHisto(t, topo, core.WsP, 3000, 32)
	shm := runHisto(t, topo, core.WsP, 3000, 32, shmConfig)
	tcp := runHisto(t, topo, core.WsP, 3000, 32, tcpConfig)
	var sockIns, shmIns, tcpIns int64
	for p := range sock.Procs {
		sockIns += sock.Procs[p].RT.Inserted
		shmIns += shm.Procs[p].RT.Inserted
		tcpIns += tcp.Procs[p].RT.Inserted
	}
	if sockIns != shmIns || sockIns != tcpIns {
		t.Fatalf("inserted: socket %d != shm %d != tcp %d", sockIns, shmIns, tcpIns)
	}
}

func TestBadTransportConfigRejected(t *testing.T) {
	topo := cluster.SMP(1, 2, 1)
	base := rt.Config{
		Topo:          topo,
		Scheme:        core.WW,
		BufferItems:   8,
		FlushDeadline: time.Millisecond,
		ChunkSize:     64,
	}
	if _, err := Run(Config{RT: base, Name: "histo", Transport: transport.Kind(9)}); err == nil {
		t.Fatal("unknown transport kind accepted")
	}
	if _, err := Run(Config{RT: base, Name: "histo", Nodes: []int{0}}); err == nil {
		t.Fatal("short node map accepted")
	}
	remote := []hostfile.Host{{Target: "local", Procs: 1}, {Target: "node1", Procs: 1}}
	if _, err := Run(Config{RT: base, Name: "histo", Hosts: remote}); err == nil {
		t.Fatal("remote hosts without tcp transport accepted")
	}
	if _, err := Run(Config{RT: base, Name: "histo", Transport: transport.TCP, Hosts: remote}); err == nil {
		t.Fatal("remote hosts without ListenAddr accepted")
	}
	short := []hostfile.Host{{Target: "local", Procs: 1}}
	if _, err := Run(Config{RT: base, Name: "histo", Hosts: short}); err == nil {
		t.Fatal("host list undersupplying procs accepted")
	}
}

func TestRequestResponseChainsQuiesce(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	topo := cluster.SMP(1, 2, 2)
	W := topo.TotalWorkers()
	const z = 2000
	p := histoParams{Topo: topo, Scheme: core.WPs, Z: z, G: 16, Seed: 11}
	params, _ := json.Marshal(p)
	res, err := Run(Config{
		RT: rt.Config{
			Topo:          topo,
			Scheme:        core.WPs,
			BufferItems:   16,
			FlushDeadline: 500 * time.Microsecond,
			ChunkSize:     64,
		},
		Name:   "reqresp",
		Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}
	var delivered, reduced int64
	for _, pr := range res.Procs {
		delivered += pr.RT.Delivered
		reduced += pr.RT.Reduced
	}
	if want := int64(W) * z; reduced != want {
		t.Fatalf("responses %d, want %d", reduced, want)
	}
	if want := 2 * int64(W) * z; delivered != want {
		t.Fatalf("delivered %d, want %d", delivered, want)
	}
}

func TestConfigDigestMismatchFails(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	topo := cluster.SMP(1, 2, 1)
	p := histoParams{Topo: topo, Scheme: core.WW, Z: 10, G: 8, Seed: 1}
	params, _ := json.Marshal(p)
	_, err := Run(Config{
		RT: rt.Config{
			Topo:          topo,
			Scheme:        core.WW,
			BufferItems:   8,
			FlushDeadline: time.Millisecond,
			ChunkSize:     64,
		},
		Name:   "badconfig",
		Params: params,
	})
	if err == nil {
		t.Fatal("digest mismatch not detected")
	}
}

func TestUnknownAppFails(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	topo := cluster.SMP(1, 2, 1)
	_, err := Run(Config{
		RT: rt.Config{
			Topo:          topo,
			Scheme:        core.WW,
			BufferItems:   8,
			FlushDeadline: time.Millisecond,
			ChunkSize:     64,
		},
		Name: "crash",
	})
	if err == nil {
		t.Fatal("builder failure not propagated")
	}
}

func TestValidateRejectsPartitionedConfig(t *testing.T) {
	cfg := rt.Config{
		Topo:          cluster.SMP(1, 2, 1),
		Scheme:        core.WW,
		BufferItems:   8,
		ChunkSize:     64,
		FlushDeadline: time.Millisecond,
		Part:          &rt.Partition{Proc: 0, Remote: nopRemote{}},
	}
	if _, err := Run(Config{RT: cfg, Name: "histo"}); err == nil {
		t.Fatal("partitioned RT config accepted")
	}
}

type nopRemote struct{}

func (nopRemote) SendOne(cluster.WorkerID, uint64)              {}
func (nopRemote) SendPayloads(cluster.WorkerID, []uint64, bool) {}
func (nopRemote) SendItems(cluster.ProcID, []rt.Item, bool)     {}
func (nopRemote) SendRuns(cluster.ProcID, []rt.Run, bool)       {}
