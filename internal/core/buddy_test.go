package core_test

import (
	"io"
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
// answers and both exit.  Then the VM hosting cluster 2 dies, and the
// survivor restores r and re-creates x under its logged id — which needs
// slot 1.  Had r been put in the first free slot, x would wait for r to
// exit and r for x's ping until its ACCEPT timed out, and x would then find
// r gone.
func TestHARestoredTaskKeepsItsSlot(t *testing.T) {
	_, ft, endB, vmA, vmB := faultMesh(t, 1, config.Simple(2, 2))
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
	ft.MarkEpoch(2)
	if err := vmA.SendFromUser(boss, "spawn", core.ID(r)); err != nil {
		t.Fatal(err)
	}
	vmB.WaitIdle()
	if done["r"] != 1 || done["x"] != 1 {
		t.Fatalf("first lives finished %v; want r and x once each", done)
	}

	if _, err := netKillB(vmA, vmB, ft, endB, blob); err != nil {
		t.Fatal(err)
	}
	vmA.WaitIdle()
	vmA.Shutdown()
	if done["r"] != 2 || done["x"] != 2 {
		t.Errorf("restored lives finished %v; want r and x twice each", done)
	}
}

// faultMesh boots two HA VMs of one fault network on one simulator seeded
// with seed: A hosts cluster 1, B cluster 2.  endB is B's end of the
// network, the one a kill fails.
func faultMesh(t *testing.T, seed int64, cfg *config.Configuration) (*sim.Scheduler, *node.FaultTransport, *node.End, *core.VM, *core.VM) {
	t.Helper()
	s := sim.New(seed)
	ft := node.NewFaultTransport(seed, node.DefaultFaultProfile())
	endB := ft.Join()
	boot := func(hosted int, remote core.Transport) *core.VM {
		vm, err := core.NewVM(cfg, core.Options{
			UserOutput: io.Discard, Backend: s, AcceptTimeout: 30 * time.Second, HA: true,
			Hosted: []int{hosted}, Remote: remote, InterceptWire: true, NodeID: hosted - 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}
	vmA, vmB := boot(1, ft), boot(2, endB)
	ft.Bind(vmA)
	endB.Bind(vmB)
	return s, ft, endB, vmA, vmB
}

// netKillB is B's death as A sees it over the fault network: B's end fails
// (everything B sends from now on is dropped) and B stops; A adopts cluster
// 2, restores it from blob, B's last checkpoint of it, and replays what the
// network retained since.  It returns the number of user tasks B was
// running.
func netKillB(vmA, vmB *core.VM, ft *node.FaultTransport, endB *node.End, blob []byte) (int, error) {
	victims := 0
	for _, ti := range vmB.RunningTasks() {
		if !ti.Controller {
			victims++
		}
	}
	endB.Fail()
	vmB.Shutdown()
	vmA.AdoptClusters(2)
	if err := vmA.Restore(blob); err != nil {
		return victims, err
	}
	ft.ReplayRetained(2)
	return victims, nil
}
