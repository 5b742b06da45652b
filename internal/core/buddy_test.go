package core_test

import (
	"io"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/node"
	"repro/internal/sim"
)

// TestHARestoredTaskKeepsItsSlot: a buddy restores a checkpointed task into
// the slot its id names, not the first free one.  Cluster 2 has two slots.
// At the checkpoint its slot 1 is free and r waits in slot 2 for a ping;
// after the checkpoint a task on cluster 1 starts x in slot 1, x pings r, r
// answers and both exit.  Then the VM hosting cluster 2 dies, and the
// survivor restores r and re-creates x under its logged id — which needs
// slot 1.  Had r been put in the first free slot, x would wait for r to
// exit and r for x's ping until its ACCEPT timed out, and x would then find
// r gone.
func TestHARestoredTaskKeepsItsSlot(t *testing.T) {
	_, mesh := faultMesh(t, 1, config.Simple(2, 2))
	vmA, vmB := mesh.VMs[0], mesh.VMs[1]
	done := map[string]int{}
	for _, vm := range []*core.VM{vmA, vmB} {
		vm.Register("early", func(task *core.Task) { _, _ = task.AcceptOne("go") })
		vm.Register("r", func(task *core.Task) {
			m, err := task.AcceptOne("ping")
			if err != nil {
				t.Errorf("r: %v", err)
				return
			}
			if err := task.Send(m.Sender, "pong"); err != nil {
				t.Errorf("r: %v", err)
				return
			}
			done["r"]++
		})
		vm.Register("x", func(task *core.Task) {
			if err := task.Send(core.MustID(task.Arg(0)), "ping"); err != nil {
				t.Errorf("x: %v", err)
				return
			}
			if _, err := task.AcceptOne("pong"); err != nil {
				t.Errorf("x: %v", err)
				return
			}
			done["x"]++
		})
		vm.Register("boss", func(task *core.Task) {
			m, err := task.AcceptOne("spawn")
			if err != nil {
				t.Errorf("boss: %v", err)
				return
			}
			if err := task.Initiate(core.OnCluster(2), "x", m.Args[0]); err != nil {
				t.Errorf("boss: %v", err)
			}
		})
	}
	initiate := func(tasktype string, cluster int) core.TaskID {
		id, err := vmA.Initiate(tasktype, core.OnCluster(cluster))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	boss, early, r := initiate("boss", 1), initiate("early", 2), initiate("r", 2)
	if early.Slot != 1 || r.Slot != 2 {
		t.Fatalf("early in slot %d, r in slot %d; want 1 and 2", early.Slot, r.Slot)
	}
	if err := vmA.SendFromUser(early, "go"); err != nil {
		t.Fatal(err)
	}
	_ = vmB.WaitTask(early)
	blob, err := vmB.Checkpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	mesh.MarkEpoch(2)
	if err := vmA.SendFromUser(boss, "spawn", core.ID(r)); err != nil {
		t.Fatal(err)
	}
	vmB.WaitIdle()
	if done["r"] != 1 || done["x"] != 1 {
		t.Fatalf("first lives finished %v; want r and x once each", done)
	}

	if _, err := netKillB(mesh, blob); err != nil {
		t.Fatal(err)
	}
	vmA.WaitIdle()
	vmA.Shutdown()
	if done["r"] != 2 || done["x"] != 2 {
		t.Errorf("restored lives finished %v; want r and x twice each", done)
	}
}

// TestHAPlannedTaskKeepsItsMessages: a task whose re-creation is planned
// owns its id's in-queue from the plan on.  After cluster 2's checkpoint a
// spawner on cluster 1 starts a kid there; the VM hosting cluster 2 then dies,
// and the survivor adopts the cluster, where a blocker takes the kid's slot,
// restores it with the logged initiations, which plans the kid's id, and
// replays the retained frames.  The kid's slot is taken, so the replayed
// request waits; meanwhile the id gets a frame off the wire and a send from a
// task on the survivor's own cluster 1.  Neither may be refused or dropped:
// the re-created kid takes each exactly once.
func TestHAPlannedTaskKeepsItsMessages(t *testing.T) {
	_, mesh := faultMesh(t, 1, config.Simple(2, 1))
	vmA, vmB := mesh.VMs[0], mesh.VMs[1]
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
	blob, err := vmB.Checkpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	mesh.MarkEpoch(2)
	spawner, err := vmA.Initiate("spawner", core.OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	_ = vmA.WaitTask(spawner)

	mesh.Fail(1)
	vmB.Shutdown()
	vmA.AdoptClusters(2)
	blocker, err := vmA.Initiate("blocker", core.OnCluster(2))
	if err != nil || blocker.Slot != kid.Slot {
		t.Fatalf("blocker %s (%v) does not hold the kid's slot %d", blocker, err, kid.Slot)
	}
	if err := vmA.Restore(blob, mesh.LoggedInits(2)); err != nil {
		t.Fatal(err)
	}
	mesh.ReplayRetained(2)
	payload, err := msgcodec.AppendEncode(nil, []core.Value{core.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := vmA.DeliverWire(&core.WireFrame{Kind: core.FrameMessage, Src: 1, Dst: 2, Dest: kid, Type: "note", Sender: spawner, Payload: payload}); err != nil {
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

// faultMesh boots a fault mesh of HA VMs on one simulator seeded with seed:
// VM 0 hosts cluster 1, VM 1 cluster 2.
func faultMesh(t *testing.T, seed int64, cfg *config.Configuration) (*sim.Scheduler, *node.FaultMesh) {
	t.Helper()
	s := sim.New(seed)
	mesh, err := node.NewFaultMesh(cfg, seed, node.DefaultFaultProfile(), func(int) core.Options {
		return core.Options{UserOutput: io.Discard, Backend: s, AcceptTimeout: 30 * time.Second, HA: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, mesh
}

// netKillB is VM 1's death as VM 0 sees it over the fault network: VM 1's
// end fails (everything it sends from now on is dropped) and it stops; VM 0
// adopts cluster 2, restores it from blob, VM 1's last checkpoint of it, and
// replays what the network retained since.  It returns the number of user
// tasks VM 1 was running.
func netKillB(mesh *node.FaultMesh, blob []byte) (int, error) {
	vmA, vmB := mesh.VMs[0], mesh.VMs[1]
	victims := 0
	for _, ti := range vmB.RunningTasks() {
		if !ti.Controller {
			victims++
		}
	}
	mesh.Fail(1)
	vmB.Shutdown()
	vmA.AdoptClusters(2)
	if err := vmA.Restore(blob, mesh.LoggedInits(2)); err != nil {
		return victims, err
	}
	mesh.ReplayRetained(2)
	return victims, nil
}
