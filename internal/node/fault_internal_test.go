package node

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/obs"
	"repro/internal/pfi"
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
	mesh, err := NewFaultMesh(config.Simple(2, 1), s, 2, func(int) Options {
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
				notes[res.Accepted[0].Args[0].Integer()]++
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
	mesh, err := newFaultMesh(config.Simple(2, 4), s, 2, faultProfile{batchWindow: window}, func(int) Options {
		return Options{Out: &out, AcceptTimeout: 30 * time.Second}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Shutdown()
	vm := mesh.VMs[0]

	var sendStart time.Time
	var order []int64
	var arrivals []time.Time

	for _, vm := range mesh.VMs {
		vm.Register("producer", func(task *core.Task) {
			sendStart = s.Now()
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
			order = append(order, core.MustInt(m.Arg(0)))
			arrivals = append(arrivals, s.Now())
		}
	})

	if _, err := vm.Run("sink", core.OnCluster(1)); err != nil {
		t.Fatal(err)
	}

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

// TestDrainCarriesOneFollowerReport: a follower's metric snapshot and spans
// ride only on a drain answer that can end the drain, round 2 or later, so
// node 0 receives them once.  An idle mesh, both nodes with metrics and
// spans on, drains in two rounds; the bytes node 0 takes from node 1 in that
// drain hold one report (node 1's last snapshot and span blob), not one per
// round.
func TestDrainCarriesOneFollowerReport(t *testing.T) {
	mesh, err := NewFaultMesh(config.Simple(2, 4), sim.New(1), 2, func(int) Options {
		reg := obs.New()
		reg.Enable(obs.Metrics | obs.Spans)
		return Options{AcceptTimeout: 30 * time.Second, Metrics: reg}
	})
	if err != nil {
		t.Fatal(err)
	}
	n0 := mesh.nodes[0]
	rx := n0.reg.Counter("node.rx.n1->n0.bytes")
	before := rx.Load()
	mesh.do("drain", func() { err = n0.drainQuiesce() })
	if err != nil {
		t.Fatal(err)
	}
	got := rx.Load() - before
	if err := mesh.Shutdown(); err != nil {
		t.Fatal(err)
	}
	report := int64(len(n0.followerSnap[1].Encode()) + len(obs.EncodeTrace(n0.followerTrace[1])))
	if report == 0 || got < report || got-report > report/2 {
		t.Errorf("node 0 took %d bytes from node 1 in the drain; one report is %d bytes", got, report)
	}
}

// simMesh boots a two-node HA fault mesh on a simulator seeded with seed,
// node 0 writing the terminal to out, every node registering the tasktypes;
// checkpoints are the test's.
func simMesh(t *testing.T, seed int64, cfg *config.Configuration, out *bytes.Buffer, wire wireConfig, register func(*core.VM)) (*sim.Scheduler, *FaultMesh) {
	t.Helper()
	s := sim.New(seed)
	mesh, err := NewFaultMesh(cfg, s, len(cfg.ClusterNumbers()), func(i int) Options {
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
// node 0 once, under that id, and never on node 1: the dead node's
// controller, released at its teardown, refuses the start (LogInit reports
// the kill), so the child runs once on the two VMs together, and the
// terminal reads as on one VM.
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
			// On the killed node the start is refused; the parent restored
			// on node 0 initiates the child again.
			if _, err := task.InitiateWait(core.OnCluster(2), "child", task.Arg(0)); err != nil && !errors.Is(err, core.ErrVMTerminated) {
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
		if !pollFor(s, func() bool { return len(heldInits(mesh.nodes[0], 1)) >= 2 }) {
			return
		}
		logged = heldInits(mesh.nodes[0], 1)[1].ID
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
	if got := ranAs[mesh.VMs[0]]; len(got) != 1 || got[0] != logged || len(ranAs) != 1 {
		t.Errorf("the child ran as %v on node 0 and %v on node 1; want once, on node 0, as its logged id %s", got, ranAs[mesh.VMs[1]], logged)
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
	mesh, err := NewFaultMesh(config.Simple(2, 1), s, 2, func(int) Options {
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
// checkpoint, its buddy node 2 stores the blob, and node 0 takes the mark
// node 2 sends it;
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
		if _, epoch, _ := n1.checkpointTick(); epoch == 0 {
			t.Error("node 1 shipped no checkpoint")
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

// TestHAKillOnceTheBuddyStoredStartsAUserTaskOnce: a node that dies once its
// buddy stored its checkpoint leaves no frame the blob covers to be
// replayed.  The user on node 0 initiates main on node 1's cluster 2, an
// INITIATE that carries no send sequence and sits in node 0's retention
// toward node 1.  Node 1 cuts a checkpoint whose blob holds main and is
// terminated in the task step that sees its buddy, node 2, holding the blob:
// before node 1 could hear from node 2, so whatever node 1 would send after
// the store never leaves it.  Node 2 restores main from the blob, and node 0
// must have released the INITIATE, or its replay starts a second main under
// a new id.  Every life of main has the id the user got, and the terminal
// reads as on one VM.
func TestHAKillOnceTheBuddyStoredStartsAUserTaskOnce(t *testing.T) {
	cfg := config.Simple(3, 2)
	var lives []core.TaskID
	register := func(vm *core.VM) {
		vm.Register("main", func(task *core.Task) {
			lives = append(lives, task.ID())
			_, _ = task.Accept(core.AcceptSpec{Types: []core.TypeCount{{Type: "never", Count: 1}}, Delay: time.Second})
			task.Println("MAIN")
		})
	}
	want := oneVM(t, cfg, register)
	lives = nil

	var out bytes.Buffer
	s, mesh := simMesh(t, 1, cfg, &out, wireConfig{}, register)
	n1, n2 := mesh.nodes[1], mesh.nodes[2]
	var main core.TaskID
	killed := s.NewGate()
	s.Spawn("cut and kill", func() {
		defer killed.Open()
		var err error
		if main, err = mesh.VMs[0].Initiate("main", core.OnCluster(2)); err != nil {
			t.Error(err)
			return
		}
		if _, epoch, _ := n1.checkpointTick(); epoch == 0 {
			t.Error("node 1 shipped no checkpoint")
			return
		}
		if !pollFor(s, func() bool { return n2.store.stored(1) > 0 }) {
			t.Error("node 2 never stored node 1's checkpoint")
			return
		}
		n1.Terminate()
		mesh.Kill(1)
	})
	killed.Wait()
	mesh.Shutdown()
	if len(lives) != 2 || lives[0] != main || lives[1] != main {
		t.Errorf("main lived as %v; want two lives, the second restored, both as %s", lives, main)
	}
	if got := out.String(); got != want {
		t.Errorf("terminal %q; one VM prints %q", got, want)
	}
}

// TestHABlobAfterAdoptionReleasesNothing: a checkpoint blob the buddy reads
// after it adopted the dead node is dropped, and its marks release nothing.
// The user on node 0 initiates main on node 1's cluster 2, and node 1 dies
// with no checkpoint stored.  Between node 2's adoption of the cluster and
// its restore (the afterAdopt hook) a blob of node 1, cut before the kill
// with a mark covering the INITIATE, reaches node 2.  The network cannot
// order it so: a dead node's last writes land before its lanes close, and
// the detector waits out more than the longest delay.  The restore has no
// main, so only node 0's retained INITIATE re-creates it: node 2 must keep
// no blob, every frame retained toward node 1 must be replayed, and the
// terminal must read as on one VM.
func TestHABlobAfterAdoptionReleasesNothing(t *testing.T) {
	cfg := config.Simple(3, 2)
	register := func(vm *core.VM) {
		vm.Register("main", func(task *core.Task) {
			_, _ = task.Accept(core.AcceptSpec{Types: []core.TypeCount{{Type: "never", Count: 1}}, Delay: time.Second})
			task.Println("MAIN")
		})
	}
	want := oneVM(t, cfg, register)

	var out bytes.Buffer
	_, mesh := simMesh(t, 1, cfg, &out, wireConfig{}, register)
	n0, n1, n2 := mesh.nodes[0], mesh.nodes[1], mesh.nodes[2]
	retained := func() (n int) {
		for _, p := range []*peer{n0.tr.peerAt(1), n2.tr.peerAt(1)} {
			p.mu.Lock()
			n += len(p.ret.frames)
			p.mu.Unlock()
		}
		return n
	}
	var late frame
	var before int
	mesh.do("late blob", func() {
		if _, err := mesh.VMs[0].Initiate("main", core.OnCluster(2)); err != nil {
			t.Error(err)
			return
		}
		n1.tr.cutMu.Lock()
		marks := n1.tr.recvSnapshot()
		blob, err := n1.vm.Checkpoint(n1.vm.HostedClusters()...)
		n1.tr.cutMu.Unlock()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := decodeFrame(&late, encodeCkpt(1, 1, n1.tr.logged.Load(), marks, blob)); err != nil {
			t.Error(err)
		}
		before = retained()
	})
	if before == 0 || t.Failed() {
		t.Fatal("node 0 retains no frame toward node 1; the test needs the user's INITIATE there")
	}
	fed := false
	n2.afterAdopt = func() {
		fed = true
		n2.storeCheckpoint(1, &late)
	}
	replayed := mesh.Kill(1)
	mesh.Shutdown()
	if !fed {
		t.Fatal("node 2 did not adopt node 1's cluster")
	}
	if epoch := n2.store.stored(1); epoch != 0 {
		t.Errorf("node 2 stored node 1's checkpoint %d after adopting it", epoch)
	}
	if replayed != before {
		t.Errorf("nodes 0 and 2 replayed %d frames toward node 1; they retained %d", replayed, before)
	}
	if got := out.String(); got != want {
		t.Errorf("terminal %q; one VM prints %q", got, want)
	}
}

// TestHAKillDuringDrainRound: a node that dies while a drain round waits for
// its answer ends the round when its rebalance is done, not at a timeout.
// MAIN on node 0 starts WORK on node 1's cluster 2 and returns; WORK prints
// after three seconds, so the drain FaultMesh.Run starts finds it running
// and node 1 does not answer round 1.  Once node 2 has answered, node 1 is
// killed: node 2, its buddy, adopts cluster 2 and tells node 0,
// whose replay of the retained INITIATE starts WORK again there.  Round 1
// must end at the instant node 0's rebalance finishes, the drain must go on
// to quiesce once WORK is done, and the terminal must read as on one VM.
func TestHAKillDuringDrainRound(t *testing.T) {
	const src = `TASKTYPE MAIN
      ON CLUSTER 2 INITIATE WORK
      PRINT *, 'MAIN'
END TASKTYPE

TASKTYPE WORK
      ACCEPT 1 OF
        NEVER
      DELAY 3 THEN
        PRINT *, 'WORK'
      END ACCEPT
END TASKTYPE
`
	cfg := config.Simple(3, 2)
	prog, err := pfi.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	vm, err := core.NewVM(cfg, core.Options{UserOutput: &ref, Backend: sim.New(1), AcceptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Run(vm, pfi.Options{}); err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
	vm.Shutdown()

	var out bytes.Buffer
	s, mesh := simMesh(t, 1, cfg, &out, wireConfig{}, nil)
	n0 := mesh.nodes[0]
	n0.reg.Enable(obs.Spans)
	killed := s.NewGate()
	waiting := false
	s.Spawn("kill", func() {
		defer killed.Open()
		waiting = pollFor(s, func() bool {
			n0.mu.Lock()
			defer n0.mu.Unlock()
			_, answered := n0.acks[2]
			return n0.ackEpoch == 1 && answered
		})
		if waiting {
			mesh.Kill(1)
		}
	})
	if err := mesh.Run(prog, pfi.Options{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	killed.Wait()
	spans, _ := n0.reg.Spans()
	if err := mesh.Shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if !waiting {
		t.Fatal("round 1 never waited on node 1 alone")
	}
	var round1, rebalance *obs.Span
	for i, sp := range spans {
		switch {
		case sp.Lane == "node/0 drain" && sp.Name == "round 1":
			round1 = &spans[i]
		case sp.Lane == "node/0 ha" && rebalance == nil:
			rebalance = &spans[i]
		}
	}
	if round1 == nil || rebalance == nil {
		t.Fatalf("spans %+v: want drain round 1 and node 0's rebalance", spans)
	}
	if end, rebalanced := round1.Start+round1.Dur, rebalance.Start+rebalance.Dur; end != rebalanced || round1.Dur >= 5*time.Second {
		t.Errorf("round 1 ran %v to %v; node 0's rebalance ended at %v, where the round must end", round1.Start, end, rebalanced)
	}
	if got, want := out.String(), ref.String(); got != want {
		t.Errorf("terminal %q; one VM prints %q", got, want)
	}
}

// heldInits returns the entries of the peer's initiation log the node holds
// as the peer's buddy.
func heldInits(n *Node, from int) []core.LoggedInit {
	n.store.mu.Lock()
	defer n.store.mu.Unlock()
	var out []core.LoggedInit
	for _, h := range n.store.peers[from].inits {
		out = append(out, h.init)
	}
	return out
}

// kidScenario is a program of Go tasktypes whose child is started on a
// follower after a checkpoint the test cuts.  main, on cluster 1, starts four
// short tasks there — so node 0 numbers its tasks ahead of node 1, as the
// nodes of any mesh doing different work do, and a fresh id on node 0 cannot
// repeat one node 1 assigned — and initiates parent on cluster 2; parent
// waits for "start" and initiates kid on its own cluster; kid says hello to
// main, waits for "go" and answers "done".  main prints the hello, waits for
// "proceed", sends "go" to the id the hello came from, prints the kid's
// answer and then any second hello that reaches it.  Its tasks run one at a
// time on a simulator, so its fields need no lock.
type kidScenario struct {
	lives   []core.TaskID // the kid's id, once per life
	hellos  []core.TaskID // the senders of the hellos main accepted
	parent  core.TaskID   // parent's first life
	greeted bool          // main printed the kid's hello
}

func (s *kidScenario) register(vm *core.VM) {
	vm.Register("main", func(task *core.Task) {
		for i := 0; i < 4; i++ {
			_ = task.Initiate(core.OnCluster(1), "short")
		}
		if err := task.Initiate(core.OnCluster(2), "parent"); err != nil {
			task.Printf("INITIATE FAILED: %v\n", err)
			return
		}
		m, err := task.AcceptOne("hello")
		if err != nil {
			return
		}
		kid := m.Sender
		s.hellos = append(s.hellos, kid)
		task.Printf("HELLO FROM THE KID\n")
		s.greeted = true
		if _, err := task.AcceptOne("proceed"); err != nil {
			return
		}
		if err := task.Send(kid, "go"); err != nil {
			task.Printf("GO FAILED: %v\n", err)
			return
		}
		if _, err := task.AcceptOne("done"); err == nil {
			task.Printf("THE KID IS DONE\n")
		}
		res, err := task.Accept(core.AcceptSpec{Types: []core.TypeCount{{Type: "hello", Count: 1}}, Delay: 200 * time.Millisecond})
		if err == nil && !res.TimedOut {
			task.Printf("A SECOND HELLO FROM %s\n", res.Accepted[0].Sender)
		}
	})
	vm.Register("short", func(*core.Task) {})
	vm.Register("parent", func(task *core.Task) {
		if s.parent == core.NilTask {
			s.parent = task.ID() // a restored life keeps the first
		}
		if _, err := task.AcceptOne("start"); err == nil {
			_ = task.Initiate(core.OnCluster(2), "kid", core.ID(task.Parent()))
		}
	})
	vm.Register("kid", func(task *core.Task) {
		s.lives = append(s.lives, task.ID())
		main := core.MustID(task.Arg(0))
		_ = task.Send(main, "hello")
		res, err := task.Accept(core.AcceptSpec{Types: []core.TypeCount{{Type: "go", Count: 1}}, Delay: 10 * time.Second})
		if err == nil && !res.TimedOut {
			_ = task.Send(main, "done")
		}
	})
}

// drive runs the scenario on vm, one VM or node 0's of a mesh, in a task of
// sched: cut runs once parent is running and before it gets "start",
// kill once the kid's hello reached main and before main sends the kid
// "go".  It returns once main is done.
func (s *kidScenario) drive(t *testing.T, sched *sim.Scheduler, vm *core.VM, cut, kill func()) {
	done := sched.NewGate()
	sched.Spawn("drive", func() {
		defer done.Open()
		main, err := vm.Initiate("main", core.OnCluster(1))
		if err != nil {
			t.Error(err)
			return
		}
		if !pollFor(sched, func() bool { return s.parent != core.NilTask }) {
			t.Error("parent did not start")
			return
		}
		cut()
		if err := vm.SendFromUser(s.parent, "start"); err != nil {
			t.Error(err)
			return
		}
		if !pollFor(sched, func() bool { return s.greeted }) {
			t.Error("the kid's hello did not reach main")
			return
		}
		kill()
		if err := vm.SendFromUser(main, "proceed"); err != nil {
			t.Error(err)
			return
		}
		_ = vm.WaitTask(main)
	})
	done.Wait()
}

// TestHALocalChildKeepsItsIDAcrossAKill: node 1 starts a child on its own
// cluster after its last checkpoint, and the child's id reaches node 0 — in
// the child's hello, which node 0 answers with "go" to that id.  Node 1 is
// killed in between, by construction: the test cuts the only checkpoint
// itself.  Node 0, node 1's buddy, holds the child's initiation in node 1's
// log, so when the restored parent initiates the child again it comes back
// under its first id: the "go" finds it, its second hello is dropped as a
// duplicate, and the output is the single-process run's.
func TestHALocalChildKeepsItsIDAcrossAKill(t *testing.T) {
	cfg := config.Simple(2, 4)
	ref := kidScenarioOnOneVM(t, cfg)
	if ref != "HELLO FROM THE KID\nTHE KID IS DONE\n" {
		t.Fatalf("reference output unexpected:\n%s", ref)
	}

	s := &kidScenario{}
	var out bytes.Buffer
	sched, mesh := simMesh(t, 1, cfg, &out, wireConfig{}, s.register)
	s.drive(t, sched, mesh.VMs[0], func() {
		if err := mesh.Checkpoint(1); err != nil {
			t.Error(err)
		}
	}, func() { mesh.Kill(1) })
	if err := mesh.Shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}

	if got := out.String(); got != ref {
		t.Errorf("output after node 1's kill:\n--- got ---\n%s--- want ---\n%s", got, ref)
	}
	if len(s.lives) != 2 || s.lives[0] != s.lives[1] {
		t.Errorf("the kid lived as %v; want two lives under one id", s.lives)
	}
	if len(s.hellos) != 1 {
		t.Errorf("main accepted hellos from %v; want one", s.hellos)
	}
}

// kidScenarioOnOneVM runs the kid scenario on one simulated VM and returns its
// terminal output.
func kidScenarioOnOneVM(t *testing.T, cfg *config.Configuration) string {
	t.Helper()
	s := &kidScenario{}
	var out bytes.Buffer
	sched := sim.New(1)
	vm, err := core.NewVM(cfg, core.Options{UserOutput: &out, Backend: sched, AcceptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.register(vm)
	s.drive(t, sched, vm, func() {}, func() {})
	vm.Shutdown()
	return out.String()
}

// TestHABuddyLogHoldsOnlyEntriesAfterTheCut: a buddy keeps the entries of a
// peer's initiation log that no checkpoint of the peer covers.  Node 1
// starts parent (entry 1) before the checkpoint the test cuts and kid (entry
// 2) after it; once node 0 stored the checkpoint it holds nothing for node
// 1, and then exactly the kid's initiation.
func TestHABuddyLogHoldsOnlyEntriesAfterTheCut(t *testing.T) {
	s := &kidScenario{}
	var out bytes.Buffer
	sched, mesh := simMesh(t, 1, config.Simple(2, 4), &out, wireConfig{}, s.register)
	n0 := mesh.nodes[0]
	s.drive(t, sched, mesh.VMs[0], func() {
		if held := heldInits(n0, 1); len(held) != 1 || held[0].Parent.Cluster != 1 {
			t.Errorf("before the cut node 0 holds %v for node 1; want parent's initiation", held)
		}
		if err := mesh.Checkpoint(1); err != nil {
			t.Error(err)
		}
		if held := heldInits(n0, 1); len(held) != 0 {
			t.Errorf("after the store node 0 holds %v for node 1; want nothing", held)
		}
	}, func() {
		held := heldInits(n0, 1)
		if len(held) != 1 || held[0].ID != s.lives[0] || held[0].Cluster != 2 || held[0].Seq != 1 {
			t.Errorf("after the kid started node 0 holds %v for node 1; want the kid %s's initiation", held, s.lives[0])
		}
	})
	if err := mesh.Shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if out.String() != "HELLO FROM THE KID\nTHE KID IS DONE\n" {
		t.Errorf("output:\n%s", out.String())
	}
}

// TestHAReplayedBroadcastSkipsLateTasks: a broadcast a buddy replays for a
// dead node reaches the dead node's restored tasks and no one else.  A
// caster on node 0's cluster 1 broadcasts after node 1's checkpoint, which a
// listener on node 1's cluster 2 hears; then a late task starts on cluster 1
// and node 1 is killed.  Node 0 restores the listener from the checkpoint and
// replays the broadcast, narrowed to cluster 2, so the listener hears it in
// both of its lives — and the late task, never among its receivers, hears
// nothing, as in a single process.
func TestHAReplayedBroadcastSkipsLateTasks(t *testing.T) {
	heard := map[string]int{}
	register := func(vm *core.VM) {
		vm.Register("caster", func(task *core.Task) {
			if _, err := task.AcceptOne("cast"); err == nil {
				_ = task.Broadcast("news", core.Int(5))
			}
		})
		vm.Register("listener", func(task *core.Task) {
			if _, err := task.AcceptOne("news"); err == nil {
				heard["listener"]++
			}
		})
		vm.Register("late", func(task *core.Task) {
			for {
				res, err := task.Accept(core.AcceptSpec{Total: 1, Types: []core.TypeCount{{Type: "news"}, {Type: "stop"}}})
				if err != nil || res.TimedOut || res.Accepted[0].Type == "stop" {
					return
				}
				heard["late"]++
			}
		})
	}
	sched, mesh := simMesh(t, 1, config.Simple(2, 4), &bytes.Buffer{}, wireConfig{}, register)
	vm := mesh.VMs[0]
	hear := func(life string, times int) bool {
		if !pollFor(sched, func() bool { return heard["listener"] >= times }) {
			t.Errorf("the listener did not hear the broadcast in its %s life", life)
			return false
		}
		return true
	}
	done := sched.NewGate()
	sched.Spawn("drive", func() {
		defer done.Open()
		caster, err1 := vm.Initiate("caster", core.OnCluster(1))
		_, err2 := vm.Initiate("listener", core.OnCluster(2))
		if err1 != nil || err2 != nil {
			t.Error(err1, err2)
			return
		}
		if err := mesh.Checkpoint(1); err != nil {
			t.Error(err)
			return
		}
		if err := vm.SendFromUser(caster, "cast"); err != nil {
			t.Error(err)
			return
		}
		if !hear("first", 1) {
			return
		}
		late, err := vm.Initiate("late", core.OnCluster(1))
		if err != nil {
			t.Error(err)
			return
		}
		mesh.Kill(1)
		if !hear("restored", 2) {
			return
		}
		if err := vm.SendFromUser(late, "stop"); err != nil {
			t.Error(err)
			return
		}
		_ = vm.WaitTask(late)
	})
	done.Wait()
	if err := mesh.Shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if heard["listener"] != 2 || heard["late"] != 0 {
		t.Errorf("heard %v; want the listener in both lives and nothing for the late task", heard)
	}
}
