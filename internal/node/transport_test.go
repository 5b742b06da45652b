package node_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/node"
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
