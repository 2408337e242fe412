package shmem

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPushNSpansEpochsInOrder pushes one run longer than three epochs: it
// fills each in turn, every full epoch seals at capacity, and the items keep
// their order across the boundaries.
func TestPushNSpansEpochsInOrder(t *testing.T) {
	const capacity = 4
	var got [][]int
	b := NewMPBuffer[int](capacity, func(batch Batch[int]) { got = append(got, batch.Items) })
	items := make([]int, 3*capacity+1)
	for i := range items {
		items[i] = i
	}
	b.PushN(items)
	b.PushN(nil)
	if len(got) != 3 {
		t.Fatalf("emitted %d batches, want 3 full ones", len(got))
	}
	b.Flush()
	next := 0
	for i, batch := range got {
		want := capacity
		if i == 3 {
			want = 1
		}
		if len(batch) != want {
			t.Fatalf("batch %d has %d items, want %d", i, len(batch), want)
		}
		for _, v := range batch {
			if v != next {
				t.Fatalf("batch %d: item %d where %d was due", i, v, next)
			}
			next++
		}
	}
	if next != len(items) {
		t.Fatalf("emitted %d items, want %d", next, len(items))
	}
}

// TestPushNTargetCrossingSealsOnce pins the advisory target for runs: the
// write whose fill range crosses the target (f−n < t ≤ f) seals, once, taking
// the whole epoch with it; a run that reaches capacity seals at capacity.
func TestPushNTargetCrossingSealsOnce(t *testing.T) {
	var got [][]int
	b := NewMPBuffer[int](8, func(batch Batch[int]) { got = append(got, batch.Items) })
	b.SetTarget(3)
	b.Push(0)                  // fill 1
	b.PushN([]int{1, 2, 3, 4}) // fill 1 → 5 crosses 3
	if len(got) != 1 || len(got[0]) != 5 {
		t.Fatalf("after the crossing run: %v, want one 5-item batch", got)
	}
	b.PushN([]int{5, 6}) // fill 2: below the target
	if len(got) != 1 {
		t.Fatalf("a run below the target sealed: %v", got)
	}
	b.PushN([]int{7}) // fill 3: lands on the target
	if len(got) != 2 || len(got[1]) != 3 {
		t.Fatalf("after the run landing on the target: %v, want a second 3-item batch", got)
	}
	b.PushN([]int{8, 9, 10, 11, 12, 13, 14, 15, 16, 17}) // fills an epoch, 2 left over
	if len(got) != 3 || len(got[2]) != 8 {
		t.Fatalf("after the run past capacity: %v, want a third, full batch", got)
	}
	if b.OldestNanos() == 0 {
		t.Fatal("the 2 items past capacity are not in the next epoch")
	}
}

// TestPushNExactlyOnce mixes Push and PushN runs of every length up to past
// the capacity with concurrent Flush, FlushIfOlder and SetTarget, at
// capacities 2–8: every item is emitted exactly once, no batch is empty or
// exceeds the capacity, and every epoch is emitted once.
func TestPushNExactlyOnce(t *testing.T) {
	const producers = 3
	const perProducer = 600
	for capacity := 2; capacity <= 8; capacity++ {
		var mu sync.Mutex
		seen := make([]int, producers*perProducer)
		seqs := map[uint64]bool{}
		b := NewMPBuffer[int](capacity, func(batch Batch[int]) {
			mu.Lock()
			defer mu.Unlock()
			if n := len(batch.Items); n == 0 || n > capacity {
				t.Errorf("cap %d: batch of %d items", capacity, n)
			}
			if seqs[batch.Seq] {
				t.Errorf("cap %d: epoch %d emitted twice", capacity, batch.Seq)
			}
			seqs[batch.Seq] = true
			for _, v := range batch.Items {
				seen[v]++
			}
		})

		var wg sync.WaitGroup
		var running atomic.Int32
		running.Store(producers)
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				defer running.Add(-1)
				r := rand.New(rand.NewSource(int64(capacity*producers + p)))
				run := make([]int, 0, 2*capacity+1)
				for i := 0; i < perProducer; {
					v := p*perProducer + i
					if r.Intn(3) == 0 {
						b.Push(v)
						i++
						continue
					}
					n := min(1+r.Intn(2*capacity+1), perProducer-i)
					run = run[:0]
					for j := 0; j < n; j++ {
						run = append(run, v+j)
					}
					b.PushN(run)
					i += n
				}
			}(p)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(capacity)))
			for running.Load() > 0 {
				switch r.Intn(3) {
				case 0:
					b.Flush()
				case 1:
					b.FlushIfOlder(nowNanos())
				case 2:
					b.SetTarget(r.Intn(capacity + 1))
				}
				runtime.Gosched()
			}
		}()
		wg.Wait()
		b.Flush()

		for v, n := range seen {
			if n != 1 {
				t.Fatalf("cap %d: item %d emitted %d times", capacity, v, n)
			}
		}
	}
}
