package sim

import (
	"container/heap"
	"testing"
)

// boxedEngine replicates the seed engine — a container/heap priority queue of
// individually allocated *event nodes — so the benchmarks below quantify the
// arena engine against its predecessor on identical workloads.

type boxedEvent struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
	index     int
}

type boxedHeap []*boxedEvent

func (h boxedHeap) Len() int { return len(h) }
func (h boxedHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h boxedHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *boxedHeap) Push(x any) {
	ev := x.(*boxedEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *boxedHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

type boxedTimer struct{ ev *boxedEvent }

type boxedEngine struct {
	now       Time
	events    boxedHeap
	seq       uint64
	processed uint64
}

func (e *boxedEngine) At(t Time, fn func()) *boxedTimer {
	ev := &boxedEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return &boxedTimer{ev: ev}
}

func (e *boxedEngine) Run() {
	for len(e.events) > 0 {
		next := e.events[0]
		heap.Pop(&e.events)
		if next.cancelled {
			continue
		}
		e.now = next.at
		next.fn()
		e.processed++
	}
}

// churn is the canonical queue workload: a rolling window of pending events,
// scheduled at pseudo-random offsets, drained in batches. times is a fixed
// pseudo-random schedule so both engines see identical event streams.
func churnTimes(n int) []Time {
	times := make([]Time, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range times {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		times[i] = Time(x % 1024)
	}
	return times
}

const churnWindow = 4096

// BenchmarkEngineChurn measures the arena engine on the churn workload.
// Compare with BenchmarkEngineChurnBoxedBaseline: the acceptance bar for the
// arena engine is >=2x events/sec and >=10x fewer allocs/op.
func BenchmarkEngineChurn(b *testing.B) {
	times := churnTimes(b.N)
	fn := func() {}
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(times[i], fn)
		if e.Pending() >= churnWindow {
			e.Run()
		}
	}
	e.Run()
}

// TestEngineChurnAllocs holds the arena engine's reason to exist: on the
// churn workload it allocates only to grow its arena and heap, never per
// event. Measured: 44 mallocs over 2^18 events, 0.00017 per event.
func TestEngineChurnAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules 2^18 events twice")
	}
	const n = 1 << 18
	times := churnTimes(n)
	fn := func() {}
	allocs := testing.AllocsPerRun(1, func() {
		e := NewEngine()
		for i := 0; i < n; i++ {
			e.After(times[i], fn)
			if e.Pending() >= churnWindow {
				e.Run()
			}
		}
		e.Run()
		if e.Processed() != n {
			t.Fatalf("processed %d of %d events", e.Processed(), n)
		}
	})
	perEvent := allocs / n
	t.Logf("%v mallocs over %d events = %.5f per event", allocs, n, perEvent)
	if perEvent >= 0.001 {
		t.Fatal("engine churn allocates per event, want < 0.001")
	}
}

// BenchmarkEngineChurnBoxedBaseline is the seed (container/heap) engine on
// the identical workload.
func BenchmarkEngineChurnBoxedBaseline(b *testing.B) {
	times := churnTimes(b.N)
	fn := func() {}
	e := &boxedEngine{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.now+times[i], fn)
		if len(e.events) >= churnWindow {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineTimerCancel measures the schedule-then-cancel path (the
// timeout-flush pattern: most timers are cancelled before they fire).
func BenchmarkEngineTimerCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.After(Time(i%257), fn)
		if i%4 != 0 {
			tm.Cancel()
		}
		if e.Pending() >= churnWindow {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineNestedCascade measures event-driven rescheduling (every
// event schedules the next), the runtime pump's pattern.
func BenchmarkEngineNestedCascade(b *testing.B) {
	e := NewEngine()
	remaining := b.N
	var fn func()
	fn = func() {
		if remaining > 0 {
			remaining--
			e.After(1, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(0, fn)
	e.Run()
}
