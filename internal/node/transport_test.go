package node_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/sim"
)

// TestWireConfigVariantsMatchSingleProcess sweeps the batched wire path's
// edge configurations over a real 2-node mesh: every variant must reproduce
// the single-process output byte-for-byte.  The variants pin the transport
// edges the defaults never hit: a credit window of 1 (every data frame waits
// for the receiver's grant — only the stage-empty grant rule makes this make
// progress) and a batch buffer smaller than a single frame (crosscluster.pf
// ships array arguments well over 24 bytes, so every frame overflows the
// buffer and must travel whole).
func TestWireConfigVariantsMatchSingleProcess(t *testing.T) {
	src := corpusSource(t, "crosscluster.pf")
	cfg := config.Simple(2, 4)
	want := singleProcessOutput(t, cfg, src)
	if !strings.Contains(want, "ARRAY SUM") {
		t.Fatalf("reference output unexpected:\n%s", want)
	}

	variants := []struct {
		name string
		wire node.WireConfig
	}{
		{"credit-window-1", node.WireConfig{CreditWindow: 1}},
		{"frame-bigger-than-batch-buffer", node.WireConfig{BatchBytes: 24, CreditWindow: 2}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			var out bytes.Buffer
			nodes := startMesh(t, 2, cfg, src, &out, func(i int, o *node.Options) {
				node.SetWire(o, v.wire)
			})
			runDistributed(t, nodes)
			if got := out.String(); got != want {
				t.Fatalf("output differs under %+v:\n--- got ---\n%s--- want ---\n%s", v.wire, got, want)
			}
		})
	}
}

// TestFaultTransportBatchWindow pins the fault network's batch window on the
// virtual clock: with a pure window (no latency, no drops), every write a
// connection accepts inside the window departs together at the window's
// close — the first arrival is delayed by exactly the window, the rest land
// nanoseconds behind it (the monotone per-connection clamp), and per-sender
// FIFO order survives the shared departure time.
func TestFaultTransportBatchWindow(t *testing.T) {
	const count = 16
	const window = 50 * time.Millisecond
	s := sim.New(3)
	var out bytes.Buffer
	mesh, err := node.NewFaultMesh(config.Simple(2, 4), s, 3, node.FaultProfile{BatchWindow: window}, func(int) node.Options {
		return node.Options{Out: &out, AcceptTimeout: 30 * time.Second}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Shutdown()
	vm := mesh.VMs[0]

	var mu sync.Mutex
	var sendStart time.Time
	var order []int64
	var arrivals []time.Time

	for _, vm := range mesh.VMs {
		vm.Register("producer", func(task *core.Task) {
			mu.Lock()
			sendStart = s.Now()
			mu.Unlock()
			for i := 0; i < count; i++ {
				if err := task.SendParent("datum", core.Int(int64(i))); err != nil {
					t.Errorf("producer send %d: %v", i, err)
					return
				}
			}
		})
	}
	vm.Register("sink", func(task *core.Task) {
		if err := task.Initiate(core.OnCluster(2), "producer"); err != nil {
			t.Errorf("initiate producer: %v", err)
			return
		}
		for i := 0; i < count; i++ {
			m, err := task.AcceptOne("datum")
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, core.MustInt(m.Arg(0)))
			arrivals = append(arrivals, s.Now())
			mu.Unlock()
		}
	})

	if _, err := vm.Run("sink", core.OnCluster(1)); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(order) != count {
		t.Fatalf("sink accepted %d messages, want %d", len(order), count)
	}
	for i, got := range order {
		if got != int64(i) {
			t.Fatalf("per-sender FIFO broken: position %d got seq %d (order %v)", i, got, order)
		}
	}
	// All sends happen at one virtual instant, so they share a single batch
	// window: nothing arrives before the window closes, and the whole batch
	// lands within the nanosecond FIFO spacing once it does.
	firstDelay := arrivals[0].Sub(sendStart)
	if firstDelay < window {
		t.Fatalf("first arrival after %v, want the full %v batch window", firstDelay, window)
	}
	if firstDelay > window+time.Millisecond {
		t.Fatalf("first arrival after %v; delay should be the bare %v window (no latency configured)", firstDelay, window)
	}
	if spread := arrivals[count-1].Sub(arrivals[0]); spread > time.Microsecond {
		t.Fatalf("batch arrivals spread over %v, want one shared departure (ns-scale spacing)", spread)
	}
}

// TestOversizeMessageTypeFailsTheSend runs the refusal end to end on a 2-node
// mesh: a task's SEND of a message whose type name cannot fit the frame's
// type field returns the error to the task, an ordinary message sent right
// after still arrives, and the mesh drains — the refused frame left no
// phantom in the sent/received balance.
func TestOversizeMessageTypeFailsTheSend(t *testing.T) {
	sendErr := make(chan error, 1)
	got := make(chan string, 1)
	register := func(vm *core.VM) {
		vm.Register("sink", func(task *core.Task) {
			if m, err := task.AcceptOne("ok"); err == nil {
				got <- m.Type
			}
		})
		vm.Register("source", func(task *core.Task) {
			sink := core.MustID(task.Arg(0))
			sendErr <- task.Send(sink, strings.Repeat("T", 70000), core.Int(1))
			if err := task.Send(sink, "ok", core.Int(2)); err != nil {
				t.Errorf("ordinary send after the refusal: %v", err)
			}
		})
	}
	nodes := startMesh(t, 2, config.Simple(2, 4), "", nil, func(i int, o *node.Options) { o.Register = register })
	done := make(chan struct{})
	go func() { defer close(done); _ = nodes[1].ServeUntilShutdown() }()
	sink, err := nodes[1].VM().Initiate("sink", core.OnCluster(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].VM().Initiate("source", core.OnCluster(1), core.ID(sink)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sendErr:
		if err == nil || !strings.Contains(err.Error(), "message type of 70000 bytes") {
			t.Fatalf("SEND of a 70000-byte type returned %v, want the wire format's refusal", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("source never sent")
	}
	select {
	case typ := <-got:
		if typ != "ok" {
			t.Fatalf("sink accepted %q", typ)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the ordinary message after the refusal never arrived")
	}
	if err := nodes[0].Close(); err != nil {
		t.Fatalf("mesh did not drain after a refused send: %v", err)
	}
	<-done
}
