package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/flex"
	"repro/internal/obs"
)

// pipeTransport connects two VMs in one process: every frame is delivered
// synchronously into the peer VM, the minimal faithful model of the node
// transport's socket (per-sender order preserved, payload consumed before
// Send returns).  drop models the sending VM's death: from then on nothing it
// sends arrives.
type pipeTransport struct {
	mu   sync.Mutex
	peer *VM
	sent int
	drop bool
}

func (p *pipeTransport) Send(f *WireFrame) error {
	p.mu.Lock()
	vm, drop := p.peer, p.drop
	p.sent++
	p.mu.Unlock()
	if drop {
		return nil
	}
	// Copy the payload like a socket write would: the sender reuses its
	// payload buffer as soon as Send returns.
	g := *f
	g.Payload = append([]byte(nil), f.Payload...)
	return vm.DeliverWire([]WireFrame{g}, nil)
}

func (p *pipeTransport) SendReply(dst int, replyID uint64, id TaskID) error {
	p.mu.Lock()
	vm, drop := p.peer, p.drop
	p.mu.Unlock()
	if !drop {
		vm.DeliverWireReply(replyID, id)
	}
	return nil
}

func (p *pipeTransport) Flush()       {}
func (p *pipeTransport) Close() error { return nil }

// twoNodeVMs boots two VMs over one 2-cluster configuration: vmA hosts
// cluster 1 (and the terminal controllers), vmB hosts cluster 2, with pipe
// transports between them.
func twoNodeVMs(t *testing.T, outA, outB *bytes.Buffer) (*VM, *VM) {
	t.Helper()
	cfg := config.Simple(2, 4)
	trA, trB := &pipeTransport{}, &pipeTransport{}
	vmA, err := NewVM(cfg, Options{UserOutput: outA, Hosted: []int{1}, Remote: trA, AcceptTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("vmA: %v", err)
	}
	vmB, err := NewVM(cfg, Options{UserOutput: outB, Hosted: []int{2}, Remote: trB, AcceptTimeout: 10 * time.Second})
	if err != nil {
		vmA.Shutdown()
		t.Fatalf("vmB: %v", err)
	}
	trA.peer, trB.peer = vmB, vmA
	t.Cleanup(func() { vmB.Shutdown(); vmA.Shutdown() })
	return vmA, vmB
}

// TestHostedControllerIDsAgree pins the ghost-controller invariant the whole
// distributed design rests on: both nodes boot the full configuration, so
// the controller taskids each node computes are identical and a taskid can
// cross the wire and still name the same task.
func TestHostedControllerIDsAgree(t *testing.T) {
	var outA, outB bytes.Buffer
	vmA, vmB := twoNodeVMs(t, &outA, &outB)
	if vmA.userCtrl != vmB.userCtrl {
		t.Fatalf("user controller ids diverge: %s vs %s", vmA.userCtrl, vmB.userCtrl)
	}
	clA, _ := vmA.cluster(2)
	clB, _ := vmB.cluster(2)
	if clA.controllerID != clB.controllerID {
		t.Fatalf("cluster 2 task controller ids diverge: %s vs %s", clA.controllerID, clB.controllerID)
	}
}

// TestRemoteInitiateSendAndReply drives the full routed path: an initiate
// from node A onto node B's cluster (request frame + reply frame), a
// child-to-parent message back across the wire, and terminal output from the
// remote task landing on node A's user controller.
func TestRemoteInitiateSendAndReply(t *testing.T) {
	var outA, outB bytes.Buffer
	vmA, vmB := twoNodeVMs(t, &outA, &outB)

	register := func(vm *VM) {
		vm.Register("child", func(task *Task) {
			task.Printf("child on cluster %d\n", task.Cluster())
			if err := task.SendParent("result", Int(41+int64(task.Cluster()))); err != nil {
				t.Errorf("child send: %v", err)
			}
		})
		vm.Register("main", func(task *Task) {
			id, err := task.InitiateWait(OnCluster(2), "child")
			if err != nil {
				t.Errorf("initiate: %v", err)
				return
			}
			if id.Cluster != 2 {
				t.Errorf("child placed on cluster %d, want 2", id.Cluster)
			}
			m, err := task.AcceptOne("result")
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			if m.Sender != id {
				t.Errorf("sender %s, want %s", m.Sender, id)
			}
			task.Printf("got %d\n", MustInt(m.Arg(0)))
		})
	}
	register(vmA)
	register(vmB)

	if _, err := vmA.Run("main", OnCluster(1)); err != nil {
		t.Fatalf("run: %v", err)
	}
	vmA.FlushUserOutput()
	if got := outA.String(); !strings.Contains(got, "child on cluster 2\n") || !strings.Contains(got, "got 43\n") {
		t.Fatalf("node A output:\n%s", got)
	}
	if outB.Len() != 0 {
		t.Fatalf("node B printed locally:\n%s", outB.String())
	}
}

// holdTransport keeps every frame a VM sends and delivers none, so a routed
// initiate's reply stays pending until the test delivers it by hand.
type holdTransport struct{ frames chan WireFrame }

func (h *holdTransport) Send(f *WireFrame) error {
	g := *f
	g.Payload = append([]byte(nil), f.Payload...)
	h.frames <- g
	return nil
}
func (h *holdTransport) SendReply(int, uint64, TaskID) error { return nil }
func (h *holdTransport) Flush()                              {}
func (h *holdTransport) Close() error                        { return nil }

// TestInitiateReplyIDsAreNodeQualified: a reply is matched to its waiter by
// id alone, and after adoption a reply meant for a dead node is routed by
// cluster to its buddy.  Node 1's pending InitiateWait must therefore not be
// woken by the id node 0 gave its own first routed initiate.
func TestInitiateReplyIDsAreNodeQualified(t *testing.T) {
	cfg := config.Simple(2, 4)
	type waiter struct {
		vm   *VM
		held *holdTransport
		got  chan TaskID
	}
	var nodes [2]waiter
	for node := range nodes {
		held := &holdTransport{frames: make(chan WireFrame, 1)}
		vm, err := NewVM(cfg, Options{UserOutput: &bytes.Buffer{}, Hosted: []int{node + 1}, Remote: held,
			NodeID: node, AcceptTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(vm.Shutdown)
		got := make(chan TaskID, 1)
		vm.Register("child", func(*Task) {})
		vm.Register("main", func(task *Task) {
			id, err := task.InitiateWait(OnCluster(2-node), "child")
			if err != nil {
				t.Errorf("node %d: InitiateWait: %v", node, err)
			}
			got <- id
		})
		if _, err := vm.Initiate("main", OnCluster(node+1)); err != nil {
			t.Fatal(err)
		}
		nodes[node] = waiter{vm, held, got}
	}
	var replyIDs [2]uint64
	for node, w := range nodes {
		select {
		case f := <-w.held.frames:
			replyIDs[node] = f.ReplyID
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d sent no routed initiate", node)
		}
	}
	stray := TaskID{Cluster: 2, Slot: 4, Unique: 1000}
	nodes[1].vm.DeliverWireReply(replyIDs[0], stray)
	for node, w := range nodes {
		want := TaskID{Cluster: 2 - node, Slot: 1, Unique: 100 + node}
		w.vm.DeliverWireReply(replyIDs[node], want)
		select {
		case id := <-w.got:
			if id != want {
				t.Errorf("node %d's InitiateWait (reply id %#x) returned %s, want %s; node 0's reply id is %#x",
					node, replyIDs[node], id, want, replyIDs[0])
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d's InitiateWait never returned", node)
		}
	}
}

// TestRemoteBroadcast checks that TO ALL reaches tasks hosted on the other
// node through a broadcast frame.
func TestRemoteBroadcast(t *testing.T) {
	var outA, outB bytes.Buffer
	vmA, vmB := twoNodeVMs(t, &outA, &outB)

	ready := make(chan TaskID, 1)
	got := make(chan int64, 1)
	vmB.Register("listener", func(task *Task) {
		ready <- task.ID()
		m, err := task.AcceptOne("ping")
		if err != nil {
			t.Errorf("listener accept: %v", err)
			return
		}
		got <- MustInt(m.Arg(0))
	})
	vmA.Register("caster", func(task *Task) {
		if err := task.Broadcast("ping", Int(7)); err != nil {
			t.Errorf("broadcast: %v", err)
		}
	})
	// The listener is initiated on node B directly (its env), the caster on
	// node A; the broadcast must cross the transport.
	if _, err := vmB.Initiate("listener", OnCluster(2)); err != nil {
		t.Fatalf("listener: %v", err)
	}
	<-ready
	if _, err := vmA.Run("caster", OnCluster(1)); err != nil {
		t.Fatalf("caster: %v", err)
	}
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("broadcast payload %d, want 7", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast never arrived on node B")
	}
}

// TestRemoteHeapRecovered pins the storage contract of the remote path: the
// sender's shard recovers the outbound wire bytes as soon as the transport
// accepts them, and the receiver's shard recovers the charged message when
// it is accepted — both heaps return to their baselines.
func TestRemoteHeapRecovered(t *testing.T) {
	var outA, outB bytes.Buffer
	vmA, vmB := twoNodeVMs(t, &outA, &outB)
	baseA := vmA.Machine().Shared().Usage().HeapInUse
	baseB := vmB.Machine().Shared().Usage().HeapInUse

	done := make(chan struct{})
	vmB.Register("sink", func(task *Task) {
		defer close(done)
		if _, err := task.AcceptN(8, "datum"); err != nil {
			t.Errorf("sink: %v", err)
		}
	})
	vmA.Register("source", func(task *Task) {
		to := MustID(task.Arg(0))
		for i := 0; i < 8; i++ {
			if err := task.Send(to, "datum", Reals(make([]float64, 16))); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	})
	id, err := vmB.Initiate("sink", OnCluster(2))
	if err != nil {
		t.Fatalf("sink: %v", err)
	}
	if _, err := vmA.Run("source", OnCluster(1), ID(id)); err != nil {
		t.Fatalf("source: %v", err)
	}
	<-done
	vmB.WaitIdle()
	if got := vmA.Machine().Shared().Usage().HeapInUse; got != baseA {
		t.Fatalf("node A heap in use %d, want baseline %d", got, baseA)
	}
	if got := vmB.Machine().Shared().Usage().HeapInUse; got != baseB {
		t.Fatalf("node B heap in use %d, want baseline %d", got, baseB)
	}
}

// TestLargeSendLeavesPooledFrameNominal: a remote send encodes its argument
// list into the pooled frame's payload buffer, and only a buffer of nominal
// size goes back to the pool — one 1 MiB REAL array is encoded into a
// buffer from the large-payload pool, which the frame pool never holds.
func TestLargeSendLeavesPooledFrameNominal(t *testing.T) {
	machineCfg := flex.DefaultConfig()
	machineCfg.SharedBytes = 8 << 20 // room for the array's outbound copy
	tr := &sizeTransport{}
	vm, err := NewVMOn(flex.MustNewMachine(machineCfg), config.Simple(2, 2), Options{
		AcceptTimeout: 5 * time.Second, Hosted: []int{1}, Remote: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()
	done := make(chan error, 1)
	vm.Register("sender", func(task *Task) {
		to := TaskID{Cluster: 2, Slot: 1, Unique: 99}
		err := task.Send(to, "bulk", Reals(make([]float64, 1<<17)))
		if err == nil {
			err = task.Send(to, "small", Int(1))
		}
		done <- err
	})
	if _, err := vm.Initiate("sender", OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if tr.sent != 2 || tr.largest < 1<<20 {
		t.Fatalf("the transport saw %d frames, the largest payload %d bytes; want 2 and at least 1 MiB", tr.sent, tr.largest)
	}
	o := wireFramePool.Get().(*outFrame)
	defer wireFramePool.Put(o)
	if cap(o.buf) != framePayloadBytes || o.Payload != nil || o.large != nil {
		t.Fatalf("the next pooled frame carries a %d-byte buffer and a %d-byte payload; want %d and none", cap(o.buf), cap(o.Payload), framePayloadBytes)
	}
}

// sizeTransport counts the frames a stub transport is handed and the largest
// payload among them.
type sizeTransport struct {
	stubTransport
	sent, largest int
}

func (s *sizeTransport) Send(f *WireFrame) error {
	s.sent++
	s.largest = max(s.largest, len(f.Payload))
	return s.stubTransport.Send(f)
}

// stampTransport is a pipeTransport that keeps a copy of every frame as Send
// receives it, then stamps the frame the way the node transport stamps one
// that joins a lane batch (obs.Registry.ShareStamp), before delivering it.
type stampTransport struct {
	pipeTransport
	reg   *obs.Registry
	batch obs.Stamp
	at    []*WireFrame // the frame each Send was handed
	seen  []WireFrame  // a copy of it on entry to Send
}

func (s *stampTransport) Send(f *WireFrame) error {
	s.at, s.seen = append(s.at, f), append(s.seen, *f)
	s.reg.ShareStamp(&s.batch, &f.Stamp)
	return s.pipeTransport.Send(f)
}

// TestPooledFrameCarriesNoStaleFields: routeRemote and routeBroadcast write a
// pooled frame's header in place, so whatever the frame carried on its last
// send must not reach the next one.  After a routed INITIATE (ReplyID set) a
// plain routed SEND reads ReplyID 0; after a routed SEND a broadcast reads
// Dest NilTask; and no frame reaches Send with the stamp the transport gave
// the frame before it.  The sequence runs until the pool has handed the same
// frame to both sends of each pair several times.
func TestPooledFrameCarriesNoStaleFields(t *testing.T) {
	cfg := config.Simple(2, 4)
	var outA, outB bytes.Buffer
	rec := obs.NewRecorder(0, 1, 64)
	tr := &stampTransport{}
	vmA, err := NewVM(cfg, Options{UserOutput: &outA, Hosted: []int{1}, Remote: tr, AcceptTimeout: 10 * time.Second, FlightRecorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	vmB, err := NewVM(cfg, Options{UserOutput: &outB, Hosted: []int{2}, Remote: &pipeTransport{peer: vmA}, AcceptTimeout: 10 * time.Second})
	if err != nil {
		vmA.Shutdown()
		t.Fatal(err)
	}
	t.Cleanup(func() { vmB.Shutdown(); vmA.Shutdown() })
	tr.peer, tr.reg = vmB, vmA.Obs()

	const rounds = 32
	for _, vm := range []*VM{vmA, vmB} {
		vm.Register("child", func(task *Task) { _, _ = task.AcceptOne("stop") })
		vm.Register("main", func(task *Task) {
			for range rounds {
				child, err := task.InitiateWait(OnCluster(2), "child")
				if err != nil {
					t.Errorf("initiate: %v", err)
					return
				}
				for _, send := range []func() error{
					func() error { return task.Send(child, "ping", Int(1)) },
					func() error { return task.Send(child, "ping", Str("two")) },
					func() error { return task.Broadcast("hello", Int(3)) },
					func() error { return task.Send(child, "stop") },
				} {
					if err := send(); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}
		})
	}
	if _, err := vmA.Run("main", OnCluster(1)); err != nil {
		t.Fatalf("run: %v", err)
	}

	var reusedAfterInitiate, reusedBeforeBroadcast int
	for i, f := range tr.seen {
		if f.Stamp != (obs.Stamp{}) {
			t.Errorf("frame %d (%s) reached Send with the stamp of an earlier send", i, f.Type)
		}
		if i > 0 && f.Type != msgInitRequest && f.ReplyID != 0 {
			t.Errorf("frame %d (%s) carries ReplyID %d", i, f.Type, f.ReplyID)
		}
		if f.Kind == FrameBroadcast && f.Dest != NilTask {
			t.Errorf("broadcast frame %d carries Dest %s", i, f.Dest)
		}
		if i == 0 || tr.at[i] != tr.at[i-1] {
			continue
		}
		prev := tr.seen[i-1]
		if prev.ReplyID != 0 && f.Type != msgInitRequest {
			reusedAfterInitiate++
		}
		if prev.Dest != NilTask && f.Kind == FrameBroadcast {
			reusedBeforeBroadcast++
		}
	}
	if tr.batch == (obs.Stamp{}) {
		t.Error("the transport's stamp is zero: a stale stamp could not be seen")
	}
	if len(tr.seen) != 5*rounds || reusedAfterInitiate < rounds/4 || reusedBeforeBroadcast < rounds/4 {
		t.Errorf("%d frames; the pool handed an initiate's frame to the next send %d times and a send's to a broadcast %d times, want %d frames and at least %d of each",
			len(tr.seen), reusedAfterInitiate, reusedBeforeBroadcast, 5*rounds, rounds/4)
	}
}
