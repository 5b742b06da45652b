package node

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestHAPlannedTaskKeepsItsMessages: a task whose re-creation is planned
// owns its id's in-queue from the plan on.  After cluster 2's checkpoint a
// spawner on cluster 1 starts a kid there; the node hosting cluster 2 then
// dies, and the survivor adopts the cluster, where a blocker takes the kid's
// slot before the rest of the rebalance runs (the afterAdopt hook): the
// survivor restores the cluster with the logged initiations, which plans the
// kid's id, and replays the retained frames.  The kid's slot is taken, so
// the replayed request waits; meanwhile the id gets a frame off the wire and a send from a task on
// the survivor's own cluster 1.  Neither may be refused or dropped: the
// re-created kid takes each exactly once.
func TestHAPlannedTaskKeepsItsMessages(t *testing.T) {
	s := sim.New(1)
	mesh, err := NewFaultMesh(config.Simple(2, 1), s, 1, DefaultFaultProfile(), func(int) Options {
		return Options{AcceptTimeout: 30 * time.Second, HA: true, CheckpointInterval: time.Hour}
	})
	if err != nil {
		t.Fatal(err)
	}
	vmA := mesh.VMs[0]
	var kid core.TaskID
	var pokeErr error
	lives, notes := 0, map[int64]int{}
	for _, vm := range mesh.VMs {
		vm.Register("spawner", func(task *core.Task) {
			id, err := task.InitiateWait(core.OnCluster(2), "kid")
			if err != nil {
				t.Errorf("spawner: %v", err)
			}
			kid = id
		})
		vm.Register("kid", func(task *core.Task) {
			lives++
			for {
				res, err := task.Accept(core.AcceptSpec{Types: []core.TypeCount{{Type: "note", Count: 1}}, Delay: 100 * time.Millisecond})
				if err != nil || res.TimedOut {
					return
				}
				notes[res.Accepted[0].Args[0].Integer]++
			}
		})
		vm.Register("poker", func(task *core.Task) { pokeErr = task.Send(core.MustID(task.Arg(0)), "note", core.Int(1)) })
		vm.Register("blocker", func(task *core.Task) { _, _ = task.AcceptOne("release") })
	}
	if err := mesh.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	spawner, err := vmA.Initiate("spawner", core.OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	_ = vmA.WaitTask(spawner)

	var blocker core.TaskID
	mesh.nodes[0].afterAdopt = func() { blocker, err = vmA.Initiate("blocker", core.OnCluster(2)) }
	mesh.Kill(1)
	if blocker == core.NilTask && err == nil {
		t.Fatal("node 0 did not adopt node 1's cluster")
	}
	if err != nil || blocker.Slot != kid.Slot {
		t.Fatalf("blocker %s (%v) does not hold the kid's slot %d", blocker, err, kid.Slot)
	}
	payload, err := msgcodec.AppendEncode(nil, []core.Value{core.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := vmA.DeliverWire([]core.WireFrame{{Kind: core.FrameMessage, Src: 1, Dst: 2, Dest: kid, Type: "note", Sender: spawner, Payload: payload}}, nil); err != nil {
		t.Errorf("a frame for the planned kid: %v", err)
	}
	poker, err := vmA.Initiate("poker", core.OnCluster(1), core.ID(kid))
	if err != nil {
		t.Fatal(err)
	}
	_ = vmA.WaitTask(poker)
	if pokeErr != nil {
		t.Errorf("a send to the planned kid from cluster 1: %v", pokeErr)
	}
	if err := vmA.SendFromUser(blocker, "release"); err != nil {
		t.Fatal(err)
	}
	vmA.WaitIdle()
	mesh.Shutdown()
	if lives != 2 || notes[1] != 1 || notes[2] != 1 || len(notes) != 2 {
		t.Errorf("the kid lived %d times and took notes %v; want 2 lives and notes 1 and 2 once each", lives, notes)
	}
}

// simMesh boots a two-node HA fault mesh on a simulator seeded with seed,
// node 0 writing the terminal to out, every node registering the tasktypes;
// checkpoints are the test's.
func simMesh(t *testing.T, seed int64, cfg *config.Configuration, out *bytes.Buffer, wire wireConfig, register func(*core.VM)) (*sim.Scheduler, *FaultMesh) {
	t.Helper()
	s := sim.New(seed)
	mesh, err := NewFaultMesh(cfg, s, seed, DefaultFaultProfile(), func(i int) Options {
		o := Options{AcceptTimeout: 30 * time.Second, HA: true, CheckpointInterval: time.Hour, Register: register, wire: wire}
		if i == 0 {
			o.Out = out
		}
		return o
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, mesh
}

// pollFor checks cond every 100µs of virtual time, finely enough to catch a
// window one network delay wide, and reports whether it held within ten
// virtual seconds.
func pollFor(s *sim.Scheduler, cond func() bool) bool {
	for deadline := s.Now().Add(10 * time.Second); !cond(); sleep(s, 100*time.Microsecond) {
		if s.Now().After(deadline) {
			return false
		}
	}
	return true
}

// oneVM runs the tasktype main on cluster 1 of a single simulated VM and
// returns its terminal output: what the mesh must print too.
func oneVM(t *testing.T, cfg *config.Configuration, register func(*core.VM)) string {
	t.Helper()
	var out bytes.Buffer
	vm, err := core.NewVM(cfg, core.Options{UserOutput: &out, Backend: sim.New(1), AcceptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	register(vm)
	if _, err := vm.Run("main", core.OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
	vm.Shutdown()
	return out.String()
}

// TestHAKillBetweenInitLogAndAck: node 1 dies after its controller sent the
// buddy an fInitLog entry and before the ack came back, so the child never
// ran there.  A main on cluster 1 starts a parent on cluster 2, which starts
// a child on cluster 2; the kill lands once node 0 holds the child's entry
// and node 1 has not seen its ack.  Node 0 adopts cluster 2, plans the
// logged child and replays main's request, so the parent runs again and its
// INITIATE of the child comes back under the logged id: the child runs on
// node 0 once, under that id, and the terminal reads as on one VM.  (The
// dead node's controller, released at its teardown, may still start the
// child there; what that zombie sends vanishes with the node.)
func TestHAKillBetweenInitLogAndAck(t *testing.T) {
	cfg := config.Simple(2, 2)
	ranAs := map[*core.VM][]core.TaskID{}
	register := func(vm *core.VM) {
		vm.Register("main", func(task *core.Task) {
			if err := task.Initiate(core.OnCluster(2), "parent", core.ID(task.ID())); err != nil {
				t.Errorf("main: %v", err)
				return
			}
			m, err := task.AcceptOne("hello")
			if err != nil {
				t.Errorf("main: %v", err)
				return
			}
			task.Println("HELLO", core.MustInt(m.Arg(0)))
		})
		vm.Register("parent", func(task *core.Task) {
			if _, err := task.InitiateWait(core.OnCluster(2), "child", task.Arg(0)); err != nil {
				t.Errorf("parent: %v", err)
			}
		})
		vm.Register("child", func(task *core.Task) {
			ranAs[task.VM()] = append(ranAs[task.VM()], task.ID())
			if err := task.Send(core.MustID(task.Arg(0)), "hello", core.Int(7)); err != nil {
				t.Errorf("child: %v", err)
			}
		})
	}
	want := oneVM(t, cfg, register)
	clear(ranAs)

	var out bytes.Buffer
	s, mesh := simMesh(t, 1, cfg, &out, wireConfig{}, register)
	var logged core.TaskID
	acked := uint64(0)
	killed := s.NewGate()
	s.Spawn("watch", func() {
		defer killed.Open()
		if !pollFor(s, func() bool { return len(mesh.nodes[0].HeldInits(1)) >= 2 }) {
			return
		}
		logged = mesh.nodes[0].HeldInits(1)[1].ID
		// The ack is read and node 1 terminated in one step of this task, so
		// no frame lands between the two; Kill then waits out the recovery.
		p := mesh.nodes[1].tr.peerAt(0)
		p.mu.Lock()
		acked = p.logAcked
		p.mu.Unlock()
		if len(ranAs) != 0 {
			t.Errorf("the child ran as %v before its entry was acked", ranAs)
		}
		mesh.nodes[1].Terminate()
		mesh.Kill(1)
	})
	if _, err := mesh.VMs[0].Run("main", core.OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	killed.Wait()
	mesh.Shutdown()
	if logged == core.NilTask {
		t.Fatal("node 0 never held the child's init-log entry")
	}
	if acked >= 2 {
		t.Errorf("node 1 saw its log acked to entry %d before the kill; the kill must land before the child's ack", acked)
	}
	if got := ranAs[mesh.VMs[0]]; len(got) != 1 || got[0] != logged {
		t.Errorf("the child ran on node 0 as %v; want once, as its logged id %s", got, logged)
	}
	if got := out.String(); got != want {
		t.Errorf("terminal %q; one VM prints %q", got, want)
	}
}

// TestHARebalanceWhileSenderStalledOnCredits: with a credit window of one,
// main on node 0 streams to a receiver on node 1 and waits out its window
// after every frame, while a relay on node 2 waits for the receiver's sum.
// Node 2 dies mid-stream.  Node 0 is leader and buddy: it adopts cluster 3
// and takes the route lock to replay and reroute while main is parked on
// credits toward node 1 — which a sender holding the route lock across its
// stall would turn into a hang of the simulator.  The rebalance must finish
// with no deadlock, the relay must come back from node 2's initiation log
// and node 0's retention, and the terminal must read as on one VM.
func TestHARebalanceWhileSenderStalledOnCredits(t *testing.T) {
	const msgs = 200
	cfg := config.Simple(3, 2)
	register := func(vm *core.VM) {
		vm.Register("main", func(task *core.Task) {
			relay, err1 := task.InitiateWait(core.OnCluster(3), "relay", core.ID(task.ID()))
			rcv, err2 := task.InitiateWait(core.OnCluster(2), "receiver", core.ID(relay))
			if err1 != nil || err2 != nil {
				t.Errorf("main: %v, %v", err1, err2)
				return
			}
			for k := 1; k <= msgs; k++ {
				if err := task.Send(rcv, "datum", core.Int(int64(k))); err != nil {
					t.Errorf("main: send %d: %v", k, err)
					return
				}
			}
			m, err := task.AcceptOne("sum")
			if err != nil {
				t.Errorf("main: %v", err)
				return
			}
			task.Println("SUM", core.MustInt(m.Arg(0)))
		})
		vm.Register("receiver", func(task *core.Task) {
			sum := int64(0)
			for k := 0; k < msgs; k++ {
				m, err := task.AcceptOne("datum")
				if err != nil {
					t.Errorf("receiver: %v", err)
					return
				}
				sum += core.MustInt(m.Arg(0))
			}
			if err := task.Send(core.MustID(task.Arg(0)), "sum", core.Int(sum)); err != nil {
				t.Errorf("receiver: %v", err)
			}
		})
		vm.Register("relay", func(task *core.Task) {
			m, err := task.AcceptOne("sum")
			if err != nil {
				t.Errorf("relay: %v", err)
				return
			}
			if err := task.Send(core.MustID(task.Arg(0)), "sum", m.Arg(0)); err != nil {
				t.Errorf("relay: %v", err)
			}
		})
	}
	want := oneVM(t, cfg, register)

	var out bytes.Buffer
	s, mesh := simMesh(t, 1, cfg, &out, wireConfig{CreditWindow: 1}, register)
	n0 := mesh.nodes[0]
	toNode1 := n0.tr.peerAt(1)
	spent := func() bool {
		toNode1.mu.Lock()
		defer toNode1.mu.Unlock()
		return toNode1.credits <= 0
	}
	stalledAtRebalance := false
	n0.afterAdopt = func() { stalledAtRebalance = spent() }
	stalls := n0.reg.Counter("node.credit.stalls")
	n0.reg.Enable(obs.Metrics)
	killed := s.NewGate()
	stalling := false
	s.Spawn("watch", func() {
		defer killed.Open()
		if stalling = pollFor(s, func() bool { return stalls.Load() >= msgs/8 }); stalling {
			mesh.Kill(2)
		}
	})
	if _, err := mesh.VMs[0].Run("main", core.OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	killed.Wait()
	mesh.Shutdown()
	if !stalling {
		t.Fatal("main never stalled on credits")
	}
	if !stalledAtRebalance {
		t.Error("main was not stalled on credits when node 0 rebalanced")
	}
	if got := out.String(); got != want {
		t.Errorf("terminal %q; one VM prints %q", got, want)
	}
}

// TestExitRecordsAgeWithoutFramesToAPeer: a node whose tasks keep exiting
// while it sends a peer nothing still ages its exit records.  Node 1's
// tasks start and exit on node 1 alone, so it never sends node 0 a counted
// frame and node 0's checkpoint marks never release anything of node 1's;
// they carry the generation node 0 heard on node 1's heartbeats instead.
// With aging keyed to released frames, node 1 never aged at all.
func TestExitRecordsAgeWithoutFramesToAPeer(t *testing.T) {
	s := sim.New(1)
	mesh, err := NewFaultMesh(config.Simple(2, 1), s, 1, DefaultFaultProfile(), func(int) Options {
		return Options{AcceptTimeout: 30 * time.Second, HA: true, CheckpointInterval: 50 * time.Millisecond}
	})
	if err != nil {
		t.Fatal(err)
	}
	vmB := mesh.VMs[1]
	for _, vm := range mesh.VMs {
		vm.Register("brief", func(*core.Task) {})
	}
	churned := s.NewGate()
	s.Spawn("churn", func() {
		defer churned.Open()
		for i := 0; i < 40; i++ {
			id, err := vmB.Initiate("brief", core.OnCluster(2))
			if err != nil {
				t.Errorf("initiate %d: %v", i, err)
				return
			}
			_ = vmB.WaitTask(id)
			sleep(s, 25*time.Millisecond)
		}
	})
	churned.Wait()
	n1 := mesh.nodes[1]
	sent, gen := n1.tr.sent.Load(), n1.tr.ageGen.Load()
	mesh.Shutdown()
	if sent != 0 {
		t.Fatalf("node 1 sent %d counted frames; the test needs it to send none", sent)
	}
	// One second of virtual time is some twenty checkpoint intervals.
	if gen < 5 {
		t.Errorf("node 1's exit records aged %d times in a second of churn; want at least 4", gen-1)
	}
}

// TestHACheckpointMarksOnlyWhatItsBlobHolds: a checkpoint cut while a data
// frame is on its way from the lane to its task's in-queue must not mark the
// frame delivered.  Main on node 0 starts a receiver on node 1, which waits
// for a "go", and sends it a note.  On node 1's deliver stage, before the
// note's run reaches the VM (the beforeDeliver hook), node 1 cuts a
// checkpoint, its buddy node 2 acks the blob, and node 0 takes the marks;
// then node 1 dies before the receiver takes the note.  Node 2 restores the
// receiver from a blob without the note, so the note must come from node 0's
// retention: a mark that counted it would have released it, and the note
// would vanish with node 1.
func TestHACheckpointMarksOnlyWhatItsBlobHolds(t *testing.T) {
	cfg := config.Simple(3, 2)
	var mainID core.TaskID
	register := func(vm *core.VM) {
		vm.Register("main", func(task *core.Task) {
			mainID = task.ID()
			rcv, err := task.InitiateWait(core.OnCluster(2), "receiver", core.ID(task.ID()))
			if err != nil {
				t.Errorf("main: %v", err)
				return
			}
			if err := task.Send(rcv, "note", core.Int(7)); err != nil {
				t.Errorf("main: %v", err)
				return
			}
			if _, err := task.AcceptOne("killed"); err != nil {
				t.Errorf("main: %v", err)
				return
			}
			if err := task.Send(rcv, "go"); err != nil {
				t.Errorf("main: %v", err)
				return
			}
			m, err := task.AcceptOne("done")
			if err != nil {
				t.Errorf("main: %v", err)
				return
			}
			task.Println("NOTE", core.MustInt(m.Arg(0)))
		})
		vm.Register("receiver", func(task *core.Task) {
			if _, err := task.AcceptOne("go"); err != nil {
				t.Errorf("receiver: %v", err)
				return
			}
			note := int64(-1)
			res, err := task.Accept(core.AcceptSpec{Types: []core.TypeCount{{Type: "note", Count: 1}}, Delay: time.Second})
			if err == nil && !res.TimedOut {
				note = core.MustInt(res.Accepted[0].Arg(0))
			}
			if err := task.Send(core.MustID(task.Arg(0)), "done", core.Int(note)); err != nil {
				t.Errorf("receiver: %v", err)
			}
		})
	}
	var out bytes.Buffer
	s, mesh := simMesh(t, 1, cfg, &out, wireConfig{}, register)
	n0, n1 := mesh.nodes[0], mesh.nodes[1]
	cut := s.NewGate()
	held := false
	n1.beforeDeliver = func(run []core.WireFrame) {
		if held || run[0].Type != "note" {
			return
		}
		held = true
		defer cut.Open()
		marked := n1.tr.recvFrom[0].Load()
		if !n1.cutCheckpoint() {
			t.Error("node 1's checkpoint was not acked")
			return
		}
		toNode1 := n0.tr.peerAt(1)
		if !pollFor(s, func() bool {
			toNode1.mu.Lock()
			defer toNode1.mu.Unlock()
			return toNode1.ret.acked >= marked
		}) {
			t.Error("node 0 never took node 1's marks")
		}
	}
	killed := s.NewGate()
	s.Spawn("kill", func() {
		defer killed.Open()
		cut.Wait()
		mesh.Kill(1)
		if err := mesh.VMs[0].SendFromUser(mainID, "killed"); err != nil {
			t.Error(err)
		}
	})
	if _, err := mesh.VMs[0].Run("main", core.OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	killed.Wait()
	mesh.Shutdown()
	if !held {
		t.Fatal("the note never reached node 1's deliver stage")
	}
	if got, want := out.String(), "NOTE 7\n"; got != want {
		t.Errorf("terminal %q, want %q: the note vanished with node 1", got, want)
	}
}
