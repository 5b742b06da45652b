package core_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/sim"
)

// TestReusedStorageNeverAliasesRetainedArgs: two things outlive a SEND and an
// ACCEPT — the HA consumption log keeps every consumed message's argument
// list (haMsg.Args is the message's own slice), and the fault transport holds
// a frame for milliseconds after Send has returned — while the sender's
// argument list (Task.SendArgs) and the receiver's AcceptResult
// (RecycleAccept) are storage handed out again.  A sender alternating
// between a receiver on its own cluster, whose messages keep the list, and
// one across the delayed wire, whose messages were encoded from it and are
// still in flight when the list is filled again, must leave every retained
// argument list and every delayed frame with the values of its own message.
// The fault transport orders a lane by the backend clock, so the run is on
// the simulator, over eight seeds.
func TestReusedStorageNeverAliasesRetainedArgs(t *testing.T) {
	const msgs = 200
	for seed := int64(1); seed <= 8; seed++ {
		s := sim.New(seed)
		ft := node.NewFaultTransport(seed, node.DefaultFaultProfile())
		vm, err := core.NewVM(config.Simple(2, 4), core.Options{
			UserOutput: io.Discard, Backend: s, AcceptTimeout: 30 * time.Second, HA: true,
			Remote: ft, InterceptWire: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ft.Bind(vm)

		lists := map[*core.Value]bool{} // every retained argument list, by its storage
		problems := make(chan string, 4)
		vm.Register("receiver", func(task *core.Task) {
			one := core.AcceptSpec{Total: 1, Types: []core.TypeCount{{Type: "datum"}}}
			for k := 0; k < msgs; k++ {
				res, err := task.Accept(one)
				if err != nil || len(res.Accepted) != 1 {
					problems <- fmt.Sprintf("receiver %s: ACCEPT %d: %v", task.ID(), k, err)
					return
				}
				if m := res.Accepted[0]; m.Args[0].Integer != int64(k) || m.Args[1].Real != float64(2*k) {
					problems <- fmt.Sprintf("receiver %s: message %d arrived as %+v", task.ID(), k, m.Args)
					return
				}
				task.RecycleAccept(res)
			}
			// Everything consumed, every result refilled many times over: what
			// does the log still hold?
			logged := vm.LoggedArgs(task.ID())
			if len(logged) != msgs {
				problems <- fmt.Sprintf("receiver %s: consumption log retains %d argument lists, want %d", task.ID(), len(logged), msgs)
				return
			}
			for k, args := range logged {
				if len(args) != 2 || args[0].Integer != int64(k) || args[1].Real != float64(2*k) {
					problems <- fmt.Sprintf("receiver %s: logged message %d retains %+v", task.ID(), k, args)
					return
				}
				if lists[&args[0]] {
					problems <- fmt.Sprintf("receiver %s: logged message %d shares its argument list with another message", task.ID(), k)
					return
				}
				lists[&args[0]] = true
			}
		})
		vm.Register("sender", func(task *core.Task) {
			near, err1 := task.InitiateWait(core.OnCluster(1), "receiver")
			far, err2 := task.InitiateWait(core.OnCluster(2), "receiver")
			if err1 != nil || err2 != nil {
				problems <- fmt.Sprintf("initiate: %v, %v", err1, err2)
				return
			}
			for k := 0; k < msgs; k++ {
				for _, to := range []core.TaskID{near, far} {
					args := task.SendArgs(2)
					args[0], args[1] = core.Int(int64(k)), core.Real(float64(2*k))
					if err := task.Send(to, "datum", args...); err != nil {
						problems <- fmt.Sprintf("send %d to %s: %v", k, to, err)
						return
					}
				}
			}
		})
		if _, err := vm.Run("sender", core.OnCluster(1)); err != nil {
			t.Fatal(err)
		}
		vm.WaitIdle()
		vm.Shutdown()
		close(problems)
		for p := range problems {
			t.Errorf("seed %d: %s", seed, p)
		}
		if len(lists) != 2*msgs && !t.Failed() {
			t.Errorf("seed %d: checked %d retained argument lists, want %d", seed, len(lists), 2*msgs)
		}
	}
}

// TestRefilledResultIgnoresStaleTypes: a task that takes one message at a
// time through the wildcard, of a type it has never seen before each time,
// and hands every result back, reads only the current ACCEPT through Count
// and First, and its refilled result never holds more than this statement's
// type and the one before it — not every type the task has ever accepted.
func TestRefilledResultIgnoresStaleTypes(t *testing.T) {
	const types = 64
	vm, err := core.NewVM(config.Simple(1, 2), core.Options{UserOutput: io.Discard, AcceptTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()
	problems := make(chan string, 4)
	vm.Register("main", func(task *core.Task) {
		for k := 0; k < types; k++ {
			if err := task.SendSelf(fmt.Sprintf("t%d", k), core.Int(int64(k))); err != nil {
				problems <- err.Error()
				return
			}
		}
		any := core.AcceptSpec{Total: 1, Types: []core.TypeCount{{Type: core.AnyMessage}}}
		var first *core.AcceptResult
		for k := 0; k < types; k++ {
			res, err := task.Accept(any)
			if err != nil {
				problems <- err.Error()
				return
			}
			if first == nil {
				first = res
			} else if res != first {
				problems <- fmt.Sprintf("ACCEPT %d built a new result though the last one was handed back", k)
				return
			}
			cur := fmt.Sprintf("t%d", k)
			if m := res.First(cur); res.Count(cur) != 1 || m == nil || m.Args[0].Integer != int64(k) || len(res.Accepted) != 1 {
				problems <- fmt.Sprintf("ACCEPT %d: Count(%s) = %d, First = %v, %d accepted", k, cur, res.Count(cur), m, len(res.Accepted))
				return
			}
			for old := 0; old < k; old++ {
				if ty := fmt.Sprintf("t%d", old); res.Count(ty) != 0 || res.First(ty) != nil {
					problems <- fmt.Sprintf("ACCEPT %d still reports type %s of an earlier ACCEPT", k, ty)
					return
				}
			}
			if len(res.ByType) > 2 {
				problems <- fmt.Sprintf("ACCEPT %d: refilled result holds %d types, want at most 2", k, len(res.ByType))
				return
			}
			task.RecycleAccept(res)
		}
	})
	if _, err := vm.Run("main", core.OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
	close(problems)
	for p := range problems {
		t.Error(p)
	}
}

// TestSendArgsDroppedOnlyWhenKept: the task gives up its argument scratch
// when a same-cluster message keeps exactly that list, and not when the
// message kept a list of the caller's own.
func TestSendArgsDroppedOnlyWhenKept(t *testing.T) {
	vm, err := core.NewVM(config.Simple(1, 2), core.Options{UserOutput: io.Discard, AcceptTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()
	problems := make(chan string, 4)
	vm.Register("main", func(task *core.Task) {
		lent := task.SendArgs(2)
		if err := task.SendSelf("own", core.Int(1)); err != nil {
			problems <- err.Error()
			return
		}
		again := task.SendArgs(2)
		if &again[0] != &lent[0] {
			problems <- "a message that kept its caller's own list cost the task its scratch"
		}
		again[0], again[1] = core.Int(7), core.Int(8)
		if err := task.SendSelf("lent", again...); err != nil {
			problems <- err.Error()
			return
		}
		if next := task.SendArgs(2); &next[0] == &again[0] {
			problems <- "the list a queued message keeps was lent a second time"
		}
		m, err := task.AcceptOne("lent")
		if err != nil || m.Args[0].Integer != 7 || m.Args[1].Integer != 8 {
			problems <- fmt.Sprintf("the kept list arrived as %+v (%v)", m, err)
		}
	})
	if _, err := vm.Run("main", core.OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
	close(problems)
	for p := range problems {
		t.Error(p)
	}
}
