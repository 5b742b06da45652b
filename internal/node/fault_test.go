package node_test

import (
	"io"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/sim"
)

// TestFaultMeshBroadcastSurvivesKill: a broadcast between the VMs of one
// fault network reaches the other VM's tasks, and is retained toward that
// VM and replayed narrowed to the clusters it hosted.  A listener on cluster
// 2 takes a broadcast sent after cluster 2's checkpoint; the VM hosting
// cluster 2 then dies, and the survivor restores the listener and replays
// the retained frames, so the restored listener takes the broadcast again.
// A task on cluster 1 that started after the broadcast sees nothing of the
// replay: it was never among the broadcast's receivers.
func TestFaultMeshBroadcastSurvivesKill(t *testing.T) {
	s := sim.New(1)
	mesh, err := node.NewFaultMesh(config.Simple(2, 4), 1, node.DefaultFaultProfile(), func(int) core.Options {
		return core.Options{UserOutput: io.Discard, Backend: s, AcceptTimeout: 30 * time.Second, HA: true}
	})
	if err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("the listener on the other VM heard the broadcast %d times, want once", heard["listener"])
	}
	if _, err := vmA.Initiate("late", core.OnCluster(1)); err != nil {
		t.Fatal(err)
	}

	if n, err := mesh.Kill(1); err != nil || n != 1 {
		t.Errorf("replayed %d frames for cluster 2 (%v), want the broadcast", n, err)
	}
	vmA.WaitIdle()
	vmA.Shutdown()
	if heard["listener"] != 2 || heard["late"] != 0 {
		t.Errorf("heard %v; want the listener in both lives and nothing for the late task", heard)
	}
}
