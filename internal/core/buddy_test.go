package core_test

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/sim"
)

// TestHARestoredTaskKeepsItsSlot: a buddy restores a checkpointed task into
// the slot its id names, not the first free one.  Cluster 2 has two slots.
// At the checkpoint its slot 1 is free and r waits in slot 2 for a ping;
// after the checkpoint a task on cluster 1 starts x in slot 1, x pings r, r
// answers and both exit.  Then the node hosting cluster 2 dies, and the
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
	if err := mesh.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if err := vmA.SendFromUser(boss, "spawn", core.ID(r)); err != nil {
		t.Fatal(err)
	}
	vmB.WaitIdle()
	if done["r"] != 1 || done["x"] != 1 {
		t.Fatalf("first lives finished %v; want r and x once each", done)
	}

	netKillB(mesh)
	vmA.WaitIdle()
	mesh.Shutdown()
	if done["r"] != 2 || done["x"] != 2 {
		t.Errorf("restored lives finished %v; want r and x twice each", done)
	}
}

// faultMesh boots a fault mesh of HA nodes on one simulator seeded with
// seed: node 0 hosts cluster 1, node 1 cluster 2.  Checkpoints are the
// test's: the periodic one is an hour away.
func faultMesh(t *testing.T, seed int64, cfg *config.Configuration) (*sim.Scheduler, *node.FaultMesh) {
	t.Helper()
	s := sim.New(seed)
	mesh, err := node.NewFaultMesh(cfg, s, len(cfg.ClusterNumbers()), func(int) node.Options {
		return node.Options{AcceptTimeout: 30 * time.Second, HA: true, CheckpointInterval: time.Hour}
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, mesh
}

// netKillB is node 1's death as node 0 sees it (FaultMesh.Kill): node 1
// stops; node 0's detector declares it dead, and as its buddy node 0 adopts
// cluster 2, restores it from node 1's last checkpoint and initiation log,
// and replays what it retained toward node 1.  It returns the number of user
// tasks node 1 was running.
func netKillB(mesh *node.FaultMesh) int {
	victims := 0
	for _, ti := range mesh.VMs[1].RunningTasks() {
		if !ti.Controller {
			victims++
		}
	}
	mesh.Kill(1)
	return victims
}
