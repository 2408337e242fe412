// Command tramlab regenerates the paper's tables and figures on the
// simulator, and prints the comparison tables that run the same kernels on
// the other backends. Each figure of the evaluation section (plus the §III-A
// comm thread analysis, id "a1") has a runner; paired figures (12/13, 14/15,
// 16/17) share one, and naming either id — or both — runs it once. Results
// print as aligned text tables or CSV.
//
// Usage:
//
//	tramlab -list
//	tramlab -fig 9                   # one figure at default (laptop) scale
//	tramlab -all                     # everything, points parallel over all cores
//	tramlab -all -j 1                # same results, single-threaded
//	tramlab -fig 9 -workerdiv 1 -itemdiv 1   # paper scale (heavy!)
//	tramlab -fig 12 -csv             # machine-readable output
//	tramlab -fig 3 -quiet            # suppress progress lines on stderr
//	tramlab -real                    # run kernels on the real goroutine runtime
//	                                 # and print simulated-vs-measured tables
//	tramlab -backend dist            # run kernels across real OS processes
//	                                 # (tram.Dist) and print real-vs-dist tables
//	tramlab -backend dist -transport shm     # dist index-gather/ping-ack over
//	                                 # shared-memory rings instead of sockets
//	tramlab -backend dist -transport tcp     # ...over loopback TCP streams
//	tramlab -adaptive                # static vs adaptive flush control under
//	                                 # uniform, zipf, and bursty traffic
//	tramlab -fig 9 -cpuprofile cpu.pb.gz     # profile any run (also
//	                                 # -memprofile and -trace)
//
// Experiment points within a figure are independent simulations; -j N runs
// them on a deterministic worker pool (tables are byte-identical for every
// N). tramlab measures nothing for perf tracking: wall-clock columns in the
// -real, -backend dist and -adaptive tables are illustrative, and the repo's
// one perf instrument is benchmark/run.sh (see docs/PERF.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"tramlib/internal/bench"
	"tramlib/internal/stats"
	"tramlib/tram"
)

func main() {
	// Dist worker processes (tramlab re-executes itself for -backend dist)
	// run their share here and exit; every other invocation continues.
	tram.Main()
	var (
		fig       = flag.String("fig", "", "figure id to run (1,3,8,9,10,11,12,13,14,15,16,17,18,a1)")
		all       = flag.Bool("all", false, "run every figure")
		list      = flag.Bool("list", false, "list available figures")
		workerdiv = flag.Int("workerdiv", 4, "divide the paper's 64 workers/node by this factor (1 = paper scale)")
		itemdiv   = flag.Int("itemdiv", 4, "divide per-PE item counts by this factor (1 = paper scale)")
		igdiv     = flag.Int("igdiv", 0, "extra divisor for index-gather requests (default 8*itemdiv)")
		nodescap  = flag.Int("nodes", 0, "cap node sweeps at this many nodes (0 = figure default)")
		seed      = flag.Uint64("seed", 1, "random seed")
		jobs      = flag.Int("j", runtime.NumCPU(), "experiment points to run concurrently (results identical for any value)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		quiet     = flag.Bool("quiet", false, "suppress progress output on stderr")
		adaptive  = flag.Bool("adaptive", false, "run the static-vs-adaptive aggregation latency sweep (uniform/zipf/burst traffic) and print the comparison table")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
		traceFile = flag.String("trace", "", "write a runtime execution trace of the run to this file (go tool trace)")
		real      = flag.Bool("real", false, "run the kernels on the real-concurrency runtime (goroutines + lock-free buffers) and emit simulated-vs-measured tables")
		backend   = flag.String("backend", "", "comparison tables to run: 'real' (sim vs goroutine runtime, same as -real) or 'dist' (goroutine runtime vs one OS process per ProcID)")
		trans     = flag.String("transport", "socket", "dist peer data plane for the index-gather and ping-ack tables: 'socket' (wire-framed Unix sockets), 'shm' (mmap'd shared-memory rings), or 'tcp' (loopback TCP streams); the dist histogram table always compares all three")
	)
	flag.Parse()
	switch *backend {
	case "":
	case "real":
		*real = true
	case "dist":
	default:
		fmt.Fprintf(os.Stderr, "tramlab: unknown -backend %q (want 'real' or 'dist')\n", *backend)
		os.Exit(2)
	}
	switch *trans {
	case "socket", "shm", "tcp":
	default:
		fmt.Fprintf(os.Stderr, "tramlab: unknown -transport %q (want 'socket', 'shm', or 'tcp')\n", *trans)
		os.Exit(2)
	}

	// Profiling covers everything the invocation runs; the deferred stops
	// fire on main's return (error paths that os.Exit lose the tail, as
	// with any Go tool).
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tramlab:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tramlab:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tramlab:", err)
			os.Exit(1)
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "tramlab:", err)
			os.Exit(1)
		}
		defer trace.Stop()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tramlab:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tramlab:", err)
			}
		}()
	}

	if *list {
		for _, f := range bench.Figures() {
			fmt.Printf("  %-3s %s\n", f.IDs[0], f.Title)
		}
		names := make([]string, 0, len(tram.Schemes()))
		for _, s := range tram.Schemes() {
			names = append(names, s.String())
		}
		fmt.Printf("schemes: %s\n", strings.Join(names, ", "))
		return
	}

	opts := bench.Options{
		WorkerDiv:     *workerdiv,
		ItemDiv:       *itemdiv,
		IGItemDiv:     *igdiv,
		NodesCap:      *nodescap,
		Seed:          *seed,
		Jobs:          *jobs,
		DistTransport: *trans,
	}
	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	opts.Progress = progress

	print := func(tables []*stats.Table) {
		for _, tb := range tables {
			if *csv {
				fmt.Print(tb.CSV())
			} else {
				fmt.Println(tb.String())
			}
		}
	}

	// The comparison-table modes compose with each other and with figures;
	// on their own they are a complete invocation.
	tablesOnly := false
	if *adaptive {
		print(bench.AdaptiveTables(opts))
		tablesOnly = true
	}
	if *real {
		print(bench.RealTables(opts))
		tablesOnly = true
	}
	if *backend == "dist" {
		print(bench.DistTables(opts))
		tablesOnly = true
	}

	var figs []bench.Figure
	switch {
	case *all:
		figs = bench.Figures()
	case *fig != "":
		ids := strings.Split(*fig, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
		var unknown string
		if figs, unknown = bench.Select(ids); unknown != "" {
			fmt.Fprintf(os.Stderr, "tramlab: unknown figure %q (try -list)\n", unknown)
			os.Exit(2)
		}
	case tablesOnly:
	default:
		fmt.Fprintln(os.Stderr, "tramlab: pass -fig <id>, -all, -real, -backend dist, -adaptive, or -list")
		flag.Usage()
		os.Exit(2)
	}

	for _, f := range figs {
		start := time.Now()
		tables := f.Run(opts)
		if progress != nil {
			fmt.Fprintf(progress, "fig %s finished in %v\n", strings.Join(f.IDs, "/"), time.Since(start).Round(time.Millisecond))
		}
		print(tables)
	}
}
