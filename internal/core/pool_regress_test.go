package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/obs"
)

// TestInQueueGrowthAtPowerOfTwoBoundary fills the ring to exactly its
// capacity with a wrapped head — the state where put's n == len(buf) check
// and grow's re-linearisation interact — and checks FIFO order survives the
// doubling.  Regression guard for the PR 2 power-of-two ring buffer.
func TestInQueueGrowthAtPowerOfTwoBoundary(t *testing.T) {
	q := newInQueue(backend.Default().NewEvent())

	// Fill to capacity, drain some so head != 0, then refill so the ring
	// wraps and sits exactly full.
	for i := 1; i <= initialQueueCap; i++ {
		q.put(mkMsg(fmt.Sprintf("m%d", i)))
	}
	st := accState(t, AcceptSpec{Types: []TypeCount{{Type: AnyMessage, Count: 5}}})
	taken := q.takeMatching(st, nil)
	if len(taken) != 5 {
		t.Fatalf("took %d, want 5", len(taken))
	}
	next := 0
	for _, m := range taken {
		next++
		if m.Type != fmt.Sprintf("m%d", next) {
			t.Fatalf("pre-growth order broken: got %s, want m%d", m.Type, next)
		}
	}
	for i := initialQueueCap + 1; i <= initialQueueCap+5; i++ {
		q.put(mkMsg(fmt.Sprintf("m%d", i)))
	}
	if q.len() != initialQueueCap {
		t.Fatalf("queue holds %d, want exactly capacity %d", q.len(), initialQueueCap)
	}

	// The next put crosses the power-of-two boundary and must grow.
	q.put(mkMsg(fmt.Sprintf("m%d", initialQueueCap+6)))
	if got := len(q.buf); got != 2*initialQueueCap {
		t.Fatalf("ring grew to %d slots, want %d", got, 2*initialQueueCap)
	}

	// Everything drains in arrival order across the growth.
	st = accState(t, AcceptSpec{Types: []TypeCount{{Type: AnyMessage, Count: All}}})
	for _, m := range q.takeMatching(st, nil) {
		next++
		if m.Type != fmt.Sprintf("m%d", next) {
			t.Fatalf("post-growth order broken: got %s, want m%d", m.Type, next)
		}
	}
	if next != initialQueueCap+6 {
		t.Fatalf("drained %d messages, want %d", next, initialQueueCap+6)
	}
}

// TestMessagePoolRecyclingUnderKill floods receivers from concurrent senders
// and kills the receivers mid-ACCEPT, over several rounds.  It is a
// regression guard for the PR 2 header pooling: the kill path (teardown
// recycling queued headers while senders still run) must neither race (the
// CI race job runs this package with -race) nor lose heap accounting — after
// shutdown the shared-memory message heap must be fully recovered.  The
// victim's ACCEPTs take up to eight messages each, and every fifth message
// has a handler, so kills also land inside and between ACCEPT runs released
// in one shard round: every charge must still be matched by one recovery, on
// every shard.
func TestMessagePoolRecyclingUnderKill(t *testing.T) {
	const rounds = 5
	const senders = 4

	cfg := config.Simple(2, senders+2)
	reg := obs.New()
	reg.Enable(obs.Metrics)
	vm, err := NewVM(cfg, Options{AcceptTimeout: 30 * time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	batched := make(chan struct{}, 1)
	vm.Register("victim", func(task *Task) {
		task.OnMessage("mark", func(*Task, *Message) {})
		// The first ACCEPT finds eight messages queued, so the round's kill
		// comes after at least one run of several.
		for task.QueueLength() < 8 {
			time.Sleep(time.Millisecond)
		}
		// Accept forever; the kill lands mid-ACCEPT with messages queued.
		for i := 7; ; i++ {
			res, err := task.Accept(AcceptSpec{
				Total: 1 + i%8,
				Types: []TypeCount{{Type: AnyMessage}},
				Delay: Forever,
			})
			if err != nil {
				return
			}
			if len(res.Accepted) > 1 {
				select {
				case batched <- struct{}{}:
				default:
				}
			}
			task.RecycleAccept(res)
		}
	})
	var sendersDone sync.WaitGroup
	vm.Register("flooder", func(task *Task) {
		defer sendersDone.Done()
		to := MustID(task.Arg(0))
		for i := 0; i < 200; i++ {
			// The victim dies mid-flood: ErrNoSuchTask (and heap exhaustion,
			// if the victim is slow to drain) are expected outcomes, not
			// failures.  What must hold is the accounting checked below.
			ty := "blob"
			if i%5 == 4 {
				ty = "mark"
			}
			if err := task.Send(to, ty, Int(int64(i)), Str("payload-payload-payload")); err != nil {
				return
			}
		}
	})

	for round := 0; round < rounds; round++ {
		victim, err := vm.Initiate("victim", OnCluster(1))
		if err != nil {
			t.Fatal(err)
		}
		sendersDone.Add(senders)
		for i := 0; i < senders; i++ {
			if _, err := vm.Initiate("flooder", OnCluster(2), ID(victim)); err != nil {
				t.Fatal(err)
			}
		}
		// Kill the victim while the flood is in flight.
		<-batched
		if err := vm.Kill(victim); err != nil {
			t.Fatal(err)
		}
		sendersDone.Wait()
		if err := vm.WaitTask(victim); err != nil {
			t.Fatal(err)
		}
	}
	vm.WaitIdle()
	vm.Shutdown()

	if inUse := vm.Machine().Shared().Usage().HeapInUse; inUse != 0 {
		t.Fatalf("message heap still holds %d bytes after kills + shutdown (leaked message storage)", inUse)
	}
	for n, cl := range vm.clusters {
		if inUse := cl.heap.InUse(); inUse != 0 {
			t.Errorf("cluster %d's shard still holds %d bytes", n, inUse)
		}
	}
	charged, recovered := reg.Counter("core.heap.charge").Load(), reg.Counter("core.heap.recover").Load()
	if charged == 0 || charged != recovered {
		t.Errorf("core.heap.charge %d, core.heap.recover %d; want them equal and nonzero", charged, recovered)
	}
}
