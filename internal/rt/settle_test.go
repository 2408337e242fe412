package rt

import (
	"sync/atomic"
	"testing"
	"time"

	"tramlib/internal/cluster"
	"tramlib/internal/core"
	"tramlib/internal/rng"
)

// runOrHang runs rtm and fails the test if it has not quiesced within a
// generous bound: a lost zero-crossing shows up as a hang, not as a wrong
// number.
func runOrHang(t *testing.T, rtm *Runtime) Result {
	t.Helper()
	done := make(chan Result, 1)
	go func() { done <- rtm.Run() }()
	select {
	case res := <-done:
		return res
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not quiesce: %+v", rtm.Counters())
		return Result{}
	}
}

// inboxItems detaches every local inbox and counts the items in it: what
// other goroutines could see if the workers were running.
func inboxItems(rtm *Runtime) int64 {
	var n int64
	for _, w := range rtm.workers {
		if w == nil {
			continue
		}
		for m := w.inbox.popAll(); m != nil; m = m.next {
			n += int64(len(m.payloads) + len(m.items))
			for _, r := range m.runs {
				n += int64(len(r.Payloads))
			}
		}
	}
	return n
}

// TestSettleBeforePublish checks the first clause of the invariant on every
// path out of Ctx.Send, deterministically: the runtime is built but not run,
// one worker sends, and whatever has reached another worker's inbox must
// already be in the published in-flight count — while what is still private
// to the sender must not be. A same-process item under a bypassing plan is
// private until the worker's slot ends or it flushes: it sits in a lane. So
// is a cross-process item under a shared plan: it sits in a stage, and at the
// slot's end enters the shared buffer settled.
func TestSettleBeforePublish(t *testing.T) {
	topo := cluster.SMP(1, 2, 2) // workers 0,1 in proc 0; 2,3 in proc 1
	for _, s := range core.Schemes() {
		cfg := DefaultConfig(topo, s)
		cfg.BufferItems = 64
		rtm := New(cfg, func(*Ctx, uint64) {}, func(cluster.WorkerID) (int, KernelFunc) { return 0, nil })
		w := rtm.workers[0]
		var sent int64
		for _, dest := range []cluster.WorkerID{1, 2, 1, 3, 2} {
			w.ctx.Send(dest, 7)
			sent++
			visible := inboxItems(rtm)
			published := rtm.Counters().Inflight
			if published < visible {
				t.Fatalf("%v: %d items visible to other workers, only %d published", s, visible, published)
			}
			if published+w.unsettled != sent {
				t.Fatalf("%v: published %d + unsettled %d != sent %d", s, published, w.unsettled, sent)
			}
			if dest == 1 && s.Plan().BypassLocal && visible != 0 {
				t.Fatalf("%v: same-process send visible to its receiver before the slot ended", s)
			}
			if s.Plan().Shared && (visible != 0 || published != 0) {
				t.Fatalf("%v: staged send visible (%d) or published (%d) before the slot ended", s, visible, published)
			}
			rtm.inflight.Add(-visible) // stand in for the receivers' finish
			sent -= visible
		}
		// Ending the slot posts the lanes and pushes the stages: a staged
		// item is settled as it enters the shared buffer, where it waits,
		// unseen, for a seal.
		w.endSlot()
		visible, published := inboxItems(rtm), rtm.Counters().Inflight
		if published < visible {
			t.Fatalf("%v: after the slot %d items visible, only %d published", s, visible, published)
		}
		rtm.inflight.Add(-visible)
		sent -= visible
		if s.Plan().Shared {
			for p, stage := range w.stages {
				if len(stage) != 0 {
					t.Fatalf("%v: %d items still staged for process %d after the slot", s, len(stage), p)
				}
			}
			if published := rtm.Counters().Inflight; w.unsettled != 0 || published != sent {
				t.Fatalf("%v: after the slot published %d unsettled %d, want %d 0", s, published, w.unsettled, sent)
			}
		}
		// Sealing and posting the lanes is the publication point for
		// everything still held: the worker's one flush covers both.
		w.flushOwn()
		rtm.flushProc(w.proc)
		if visible, published := inboxItems(rtm), rtm.Counters().Inflight; w.unsettled != 0 || visible != sent || published != sent {
			t.Fatalf("%v: after flush visible %d published %d unsettled %d, want %d %d 0",
				s, visible, published, w.unsettled, sent, sent)
		}
	}
}

// TestResponsesInUnsealedBuffersQuiesce is the request-response shape with
// nothing to seal a buffer but the workers themselves: buffers far larger
// than the traffic and no deadline. Responses are issued from DeliverFuncs in
// the consume phase, where the sender is visible to quiescence only through
// the batch it is handling, and then sit in private single-producer buffers
// until an idle flush. The run must end, with every response delivered.
func TestResponsesInUnsealedBuffersQuiesce(t *testing.T) {
	topo := cluster.SMP(2, 2, 2)
	W := topo.TotalWorkers()
	const z = 200
	const respFlag = uint64(1) << 47
	for _, s := range core.Schemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			var responses atomic.Int64
			cfg := DefaultConfig(topo, s)
			cfg.BufferItems = 1 << 16
			cfg.FlushDeadline = 0
			rtm := New(cfg, func(ctx *Ctx, v uint64) {
				if v&respFlag != 0 {
					responses.Add(1)
					return
				}
				ctx.Send(cluster.WorkerID(v&0xffff), respFlag)
			}, func(w cluster.WorkerID) (int, KernelFunc) {
				r := rng.NewStream(11, int(w))
				return z, func(ctx *Ctx, _ int) {
					dest := cluster.WorkerID(r.Intn(W - 1))
					if dest >= w {
						dest++
					}
					ctx.Send(dest, uint64(w))
				}
			})
			res := runOrHang(t, rtm)
			want := int64(W) * z
			if responses.Load() != want {
				t.Fatalf("responses %d, want %d", responses.Load(), want)
			}
			if res.Delivered != 2*want || res.Inserted != res.Delivered {
				t.Fatalf("inserted %d delivered %d, want both %d", res.Inserted, res.Delivered, 2*want)
			}
			if c := rtm.Counters(); c.Inflight != 0 {
				t.Fatalf("quiet runtime reports inflight %d", c.Inflight)
			}
		})
	}
}

// TestPostOnlyKernelQuiesces posts a task chain from a kernel whose worker —
// like every other worker — sends nothing: posted tasks are the only work the
// in-flight count ever sees. The chain is longer than a scheduler slot, so it
// outlives the generation phase and the worker must have settled it before
// leaving producing; nothing else would keep the run open.
func TestPostOnlyKernelQuiesces(t *testing.T) {
	const chain = 100
	cfg := DefaultConfig(cluster.SMP(1, 2, 2), core.WPs)
	cfg.ChunkSize = 4
	var ran atomic.Int64
	rtm := New(cfg, func(*Ctx, uint64) {
		t.Error("nothing is ever sent")
	}, func(w cluster.WorkerID) (int, KernelFunc) {
		if w != 0 {
			return 0, nil
		}
		return 1, func(ctx *Ctx, _ int) {
			var step func(*Ctx)
			step = func(ctx *Ctx) {
				if ran.Add(1) < chain {
					ctx.Post(step)
				}
			}
			ctx.Post(step)
		}
	})
	res := runOrHang(t, rtm)
	if ran.Load() != chain {
		t.Fatalf("ran %d posted tasks, want %d", ran.Load(), chain)
	}
	if res.Inserted != 0 || res.Delivered != 0 {
		t.Fatalf("inserted %d delivered %d, want 0", res.Inserted, res.Delivered)
	}
}

// TestDeadlineFlushWorkerOwnsPP pins the PP half of the latency bound: once
// the sender's slot ends and its stage is in the shared buffer, a running
// worker seals its process's overdue shared buffer itself, without the
// progress goroutine (which is never started here — the runtime is built but
// not Run). Before the slot ends the item is the sender's alone, and no
// deadline applies to it. The sleeps are lower bounds only; nothing asserts
// how soon after the deadline the flush happens.
func TestDeadlineFlushWorkerOwnsPP(t *testing.T) {
	topo := cluster.SMP(2, 1, 2) // procs 0 and 1, two workers each
	cfg := DefaultConfig(topo, core.PP)
	cfg.BufferItems = 1024
	cfg.FlushDeadline = 200 * time.Microsecond
	rtm := New(cfg, func(*Ctx, uint64) {}, func(cluster.WorkerID) (int, KernelFunc) { return 0, nil })
	w := rtm.workers[0]
	buf := rtm.shared[0][0].buf

	w.ctx.Send(2, 42) // remote process, far below BufferItems
	time.Sleep(2 * cfg.FlushDeadline)
	w.deadlineFlush()
	if got := rtm.M.DeadlineFlushes.Load(); got != 0 || buf.OldestNanos() != 0 {
		t.Fatalf("staged item: DeadlineFlushes = %d, shared buffer stamp %d; want both 0", got, buf.OldestNanos())
	}

	w.endSlot()
	if buf.OldestNanos() == 0 {
		t.Fatal("the slot ended but the shared buffer is empty")
	}
	time.Sleep(2 * cfg.FlushDeadline)
	w.deadlineFlush()

	if got := rtm.M.DeadlineFlushes.Load(); got != 1 {
		t.Fatalf("DeadlineFlushes = %d, want 1", got)
	}
	var batches, items int
	for _, d := range []cluster.WorkerID{2, 3} {
		for m := rtm.workers[d].inbox.popAll(); m != nil; m = m.next {
			if m.kind != mkItems {
				t.Fatalf("worker %d got message kind %d, want an items batch", d, m.kind)
			}
			batches++
			items += len(m.items)
		}
	}
	if batches != 1 || items != 1 {
		t.Fatalf("destination process holds %d batches / %d items, want 1 / 1", batches, items)
	}
	if c := rtm.Counters(); c.Inflight != 1 {
		t.Fatalf("inflight %d, want 1", c.Inflight)
	}
}
