package node_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/node"
)

// TestInboundPathAllocationBudget holds the whole wire path — SEND on node 1,
// encode, batch, socket, read, walk, decode, deliver, ACCEPT on node 0 — to a
// budget of heap objects a message, for the windowed fan-ins of the
// benchmark's wire_fanin (8 REALs, window 128) and wire_bulk (512 REALs,
// window 16; window 128 would overflow the collector's shard, which drops
// frames).  The parent of the batch receive path (249b2b9) allocated 5.4 a
// message on the first (5.39-5.45 over three runs; 5.3 as the benchmark's
// e2e.allocs_per_msg): a frame-length header that escaped in ReadFrame and a
// message-type string, per frame; PR 19 left 3.32 and PR 21, whose collector
// refills its AcceptResult, 3.11.  Then the decoded argument list moved into
// the pooled message header and the sender's variadic list stopped leaving the
// caller's stack (1.09), and last the decoded REAL array went into the header
// too, which refills it from message to message: 0.09-0.13 are left, mostly
// arrays for headers that last carried a flush, whose slot was zeroed, and a
// message-type string the receiver makes for some frames.  The bulk fan-in
// read 1.51-1.53 objects and 4,161-4,213 bytes a message while every array
// was a new one; now 0.42-0.45 and 250-420 bytes, the ACCEPT of each window's
// credit among them.  The counts are of the process, so they include both
// nodes and the test's own tasks.
func TestInboundPathAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const producers = 2
	cases := []struct {
		name                string
		reals, window, msgs int
		objects, bytes      float64 // budgets a message; bytes 0 is unchecked
		parentObjects       float64 // before the header refilled its arrays
	}{
		{"wire_fanin", 8, 128, 40 * producers * 128, 0.25, 0, 1.09},
		{"wire_bulk", 512, 16, 80 * producers * 16, 1, 1024, 1.52},
	}
	ready := make(chan core.TaskID, 1)
	done := make(chan int, 1)
	finished := make(chan struct{}, producers)
	register := func(vm *core.VM) {
		// Block for one message, then take whatever else has arrived.
		specs := []core.AcceptSpec{
			{Total: 1, Types: []core.TypeCount{{Type: "datum"}, {Type: "flush"}}, Delay: core.Forever},
			{Types: []core.TypeCount{{Type: "datum", Count: core.All}, {Type: "flush", Count: core.All}}},
		}
		vm.Register("collector", func(task *core.Task) {
			total, flushesDue := int(core.MustInt(task.Arg(0))), int(core.MustInt(task.Arg(1)))
			ready <- task.ID()
			got := 0
			for flushes, round := 0, 0; got < total || flushes < flushesDue; round++ {
				res, err := task.Accept(specs[round%2])
				if err != nil {
					t.Errorf("collector: %v", err)
					break
				}
				for _, m := range res.Accepted {
					if m.Type == "datum" {
						got++
						continue
					}
					flushes++
					if err := task.Send(m.Sender, "credit"); err != nil {
						t.Errorf("collector: %v", err)
					}
				}
				task.RecycleAccept(res)
			}
			done <- got
		})
		vm.Register("producer", func(task *core.Task) {
			to, count := core.MustID(task.Arg(0)), int(core.MustInt(task.Arg(1)))
			window, payload := int(core.MustInt(task.Arg(2))), make([]float64, core.MustInt(task.Arg(3)))
			for sent := 0; sent < count; sent += window {
				for i := 0; i < window; i++ {
					if err := task.Send(to, "datum", core.Reals(payload)); err != nil {
						t.Errorf("producer: %v", err)
						return
					}
				}
				if err := task.Send(to, "flush"); err != nil {
					t.Errorf("producer: %v", err)
					return
				}
				if _, err := task.AcceptOne("credit"); err != nil {
					t.Errorf("producer: %v", err)
					return
				}
			}
			finished <- struct{}{}
		})
	}
	nodes := startMesh(t, 2, config.Simple(2, 4), "", nil, func(_ int, o *node.Options) { o.Register = register })
	fanin := func(n, window, reals int) {
		id, err := nodes[0].VM().Initiate("collector", core.OnCluster(1), core.Int(int64(n)), core.Int(int64(n/window)))
		if err != nil {
			t.Fatal(err)
		}
		<-ready
		for p := 0; p < producers; p++ {
			if _, err := nodes[1].VM().Initiate("producer", core.OnCluster(2), core.ID(id), core.Int(int64(n/producers)), core.Int(int64(window)), core.Int(int64(reals))); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case got := <-done:
			if got != n {
				t.Fatalf("collector got %d of %d messages", got, n)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("fan-in did not finish")
		}
		for p := 0; p < producers; p++ {
			<-finished
		}
		nodes[0].VM().WaitIdle()
		nodes[1].VM().WaitIdle()
	}
	for _, c := range cases {
		fanin(c.msgs/4, c.window, c.reals) // warm the pools, the rings and the read buffers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fanin(c.msgs, c.window, c.reals)
		runtime.ReadMemStats(&after)
		objects := float64(after.Mallocs-before.Mallocs) / float64(c.msgs)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(c.msgs)
		t.Logf("%s: %.2f allocations, %.0f bytes a message (parent: %.2f allocations)", c.name, objects, bytes, c.parentObjects)
		if objects >= c.objects || (c.bytes > 0 && bytes >= c.bytes) {
			t.Errorf("%s: the wire path allocates %.2f objects and %.0f bytes a message, budget %.2f and %.0f (parent %.2f objects)",
				c.name, objects, bytes, c.objects, c.bytes, c.parentObjects)
		}
	}
}
