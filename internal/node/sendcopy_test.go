package node_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/node"
)

// TestSendCopiesItsArgumentList: SEND is by value wherever the receiver is
// placed, arrays included.  A task that refills one list and one REAL array
// between sends — args[0] = i, buf[0] = i, SEND, for i = 1..3 — must deliver
// 1, 2, 3 and [1 2 3], [2 2 3], [3 2 3] to a receiver on its own cluster, on
// another cluster of its process, on another node, and through each copy of a
// broadcast: the single-process ≡ N-nodes contract covers a program's
// results.  Every receiver reads its messages only once all three of a type
// have been accepted, by which time the sender has written over the list and
// the array.  Before the header owned the list, a same-cluster message kept
// the caller's slice and the receiver there read 3, 3, 3; before it owned the
// arrays too, it kept the caller's array, and read [99 2 3] once the sender
// had written buf[0] = 99.
func TestSendCopiesItsArgumentList(t *testing.T) {
	// Clusters 1 and 2 are node 0's, 3 and 4 node 1's; the sender is on 1.
	places := []struct {
		cluster int
		name    string
	}{{1, "the sender's cluster"}, {2, "another cluster"}, {3, "another node"}}
	types := []string{"sent", "broadcast"}

	reports := make(chan string, len(places)*len(types))
	register := func(vm *core.VM) {
		vm.Register("receiver", func(task *core.Task) {
			where := core.MustStr(task.Arg(0))
			for _, ty := range types {
				res, err := task.AcceptN(3, ty)
				if err != nil || len(res.Accepted) != 3 {
					reports <- fmt.Sprintf("%s: ACCEPT 3 OF %s: %d accepted, %v", where, ty, len(res.Accepted), err)
					return
				}
				var got [3]int64
				for i, m := range res.Accepted {
					got[i] = core.MustInt(m.Arg(0))
				}
				if got != [3]int64{1, 2, 3} {
					reports <- fmt.Sprintf("%s: %s delivered %v, want [1 2 3]", where, ty, got)
					return
				}
				for i, m := range res.Accepted {
					if arr := core.MustReals(m.Arg(1)); !slices.Equal(arr, []float64{float64(i + 1), 2, 3}) {
						reports <- fmt.Sprintf("%s: %s message %d delivered the array %v, want [%d 2 3]", where, ty, i+1, arr, i+1)
						return
					}
				}
			}
			reports <- ""
		})
		vm.Register("sender", func(task *core.Task) {
			var to []core.TaskID
			for _, p := range places {
				id, err := task.InitiateWait(core.OnCluster(p.cluster), "receiver", core.Str(p.name))
				if err != nil {
					reports <- fmt.Sprintf("initiate on cluster %d: %v", p.cluster, err)
					return
				}
				to = append(to, id)
			}
			args := make([]core.Value, 2)
			buf := []float64{0, 2, 3}
			for i := int64(1); i <= 3; i++ {
				buf[0] = float64(i)
				args[0], args[1] = core.Int(i), core.Reals(buf)
				for _, id := range to {
					if err := task.Send(id, types[0], args...); err != nil {
						reports <- fmt.Sprintf("send %d to %s: %v", i, id, err)
						return
					}
				}
			}
			for i := int64(1); i <= 3; i++ {
				buf[0] = float64(i)
				args[0], args[1] = core.Int(i), core.Reals(buf)
				if err := task.Broadcast(types[1], args...); err != nil {
					reports <- fmt.Sprintf("broadcast %d: %v", i, err)
					return
				}
			}
			args[0], buf[0] = core.Int(0), 99
		})
	}
	nodes := startMesh(t, 2, config.Simple(4, 4), "", nil, func(_ int, o *node.Options) { o.Register = register })
	if _, err := nodes[0].VM().Initiate("sender", core.OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	for range places {
		select {
		case problem := <-reports:
			if problem != "" {
				t.Error(problem)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("the receivers did not finish")
		}
	}
}
