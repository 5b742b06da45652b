package node

import (
	"io"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/sim"
)

// TestHAPlannedTaskKeepsItsMessages: a task whose re-creation is planned
// owns its id's in-queue from the plan on.  After cluster 2's checkpoint a
// spawner on cluster 1 starts a kid there; the VM hosting cluster 2 then
// dies, and the survivor adopts the cluster, where a blocker takes the kid's
// slot before the rest of Kill's steps run: the survivor restores the
// cluster with the logged initiations, which plans the kid's id, and replays
// the retained frames.  The kid's slot is taken, so the replayed request
// waits; meanwhile the id gets a frame off the wire and a send from a task on
// the survivor's own cluster 1.  Neither may be refused or dropped: the
// re-created kid takes each exactly once.
func TestHAPlannedTaskKeepsItsMessages(t *testing.T) {
	s := sim.New(1)
	mesh, err := NewFaultMesh(config.Simple(2, 1), 1, DefaultFaultProfile(), func(int) core.Options {
		return core.Options{UserOutput: io.Discard, Backend: s, AcceptTimeout: 30 * time.Second, HA: true}
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

	adopter := mesh.stop(1)
	if adopter == nil || adopter.vm != vmA {
		t.Fatal("VM 0 did not adopt VM 1's cluster")
	}
	blocker, err := vmA.Initiate("blocker", core.OnCluster(2))
	if err != nil || blocker.Slot != kid.Slot {
		t.Fatalf("blocker %s (%v) does not hold the kid's slot %d", blocker, err, kid.Slot)
	}
	if _, err := mesh.restore(adopter, 1); err != nil {
		t.Fatal(err)
	}
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
