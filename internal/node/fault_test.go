package node_test

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/sim"
)

// haMesh boots a two-node HA fault mesh on a simulator seeded with seed:
// node 0 hosts cluster 1, node 1 cluster 2.  Checkpoints are the test's:
// the periodic one is an hour away.
func haMesh(t *testing.T, seed int64, cfg *config.Configuration, wire node.WireConfig) (*sim.Scheduler, *node.FaultMesh) {
	t.Helper()
	s := sim.New(seed)
	mesh, err := node.NewFaultMesh(cfg, s, len(cfg.ClusterNumbers()), func(int) node.Options {
		o := node.Options{AcceptTimeout: 30 * time.Second, HA: true, CheckpointInterval: time.Hour}
		node.SetWire(&o, wire)
		return o
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, mesh
}

// TestFaultMeshBroadcastSurvivesKill: a broadcast between the nodes of one
// fault mesh reaches the other node's tasks, and is retained toward that
// node and replayed narrowed to the clusters it hosted.  A listener on
// cluster 2 takes a broadcast sent after cluster 2's checkpoint; the node
// hosting cluster 2 then dies, and the survivor restores the listener and
// replays the retained frames, so the restored listener takes the broadcast
// again.  A task on cluster 1 that started after the broadcast sees nothing
// of the replay: it was never among the broadcast's receivers.
func TestFaultMeshBroadcastSurvivesKill(t *testing.T) {
	_, mesh := haMesh(t, 1, config.Simple(2, 4), node.WireConfig{})
	vmA, vmB := mesh.VMs[0], mesh.VMs[1]
	heard := map[string]int{}
	for _, vm := range []*core.VM{vmA, vmB} {
		vm.Register("caster", func(task *core.Task) {
			if _, err := task.AcceptOne("cast"); err != nil {
				t.Errorf("caster: %v", err)
				return
			}
			if err := task.Broadcast("news", core.Int(5)); err != nil {
				t.Errorf("caster: %v", err)
			}
		})
		listen := func(name string, delay time.Duration) func(*core.Task) {
			return func(task *core.Task) {
				res, err := task.Accept(core.AcceptSpec{Types: []core.TypeCount{{Type: "news", Count: 1}}, Delay: delay})
				if err == nil && !res.TimedOut {
					heard[name]++
				}
			}
		}
		vm.Register("listener", listen("listener", core.Forever))
		vm.Register("late", listen("late", 50*time.Millisecond))
	}
	caster, err1 := vmA.Initiate("caster", core.OnCluster(1))
	_, err2 := vmA.Initiate("listener", core.OnCluster(2))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if err := mesh.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if err := vmA.SendFromUser(caster, "cast"); err != nil {
		t.Fatal(err)
	}
	vmB.WaitIdle()
	if heard["listener"] != 1 {
		t.Fatalf("the listener on the other node heard the broadcast %d times, want once", heard["listener"])
	}
	if _, err := vmA.Initiate("late", core.OnCluster(1)); err != nil {
		t.Fatal(err)
	}

	if n := mesh.Kill(1); n != 1 {
		t.Errorf("replayed %d frames for cluster 2, want the broadcast", n)
	}
	vmA.WaitIdle()
	mesh.Shutdown()
	if heard["listener"] != 2 || heard["late"] != 0 {
		t.Errorf("heard %v; want the listener in both lives and nothing for the late task", heard)
	}
}
