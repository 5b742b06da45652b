package core_test

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
)

// TestReusedStorageNeverAliasesRetainedArgs: several things outlive a SEND and
// an ACCEPT — the HA consumption log keeps every consumed message's argument
// list (haMsg.Args is the message's own slice), a checkpoint's queue snapshot
// keeps the lists of the messages waiting in the ring and in the replay pen,
// and the fault network holds a frame for milliseconds after Send has
// returned — while the sender's argument list (Task.SendArgs), the
// receiver's AcceptResult and the accepted messages, header and argument
// store (RecycleAccept), are storage handed out again.  A sender alternates
// between a receiver on its own cluster, whose messages are copied from the
// list, and one across the delayed wire, whose messages were encoded from it
// and are still in flight when the list is filled again.  Each receiver
// captures its checkpoint state before every ACCEPT, so the snapshot's
// messages are accepted and recycled after it was taken.  The far cluster is
// hosted by a second node on the same simulator: a quarter of the way
// through it is checkpointed, and half way through the node dies and the
// first node adopts the cluster, restores it and replays the retained
// frames, so the far receiver runs again from its log, the snapshot's tail
// and a pen the live and re-delivered frames collect in.
// Every retained argument list and every delayed frame must be left with the
// values of its own message.  The fault network orders a connection by the
// backend clock, so the run is on the simulator, over eight seeds.
func TestReusedStorageNeverAliasesRetainedArgs(t *testing.T) {
	const (
		msgs = 200
		far  = 2 // the cluster across the wire, the one that fails
	)
	snapshots, penned := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		s, mesh := faultMesh(t, seed, config.Simple(2, 4))
		vm, vmB := mesh.VMs[0], mesh.VMs[1]

		lists := map[*core.Value]bool{} // every list a finished receiver's log retains, by its storage
		var captured [][][]core.Value   // every queue snapshot taken, read once the run is over
		problems := make(chan string, 4)
		receiver := func(task *core.Task) {
			one := core.AcceptSpec{Total: 1, Types: []core.TypeCount{{Type: "datum"}}}
			for k := 0; k < msgs; k++ {
				queued, pen := task.VM().CheckpointedArgs(task.ID())
				captured = append(captured, queued)
				penned += pen
				res, err := task.Accept(one)
				if err != nil || len(res.Accepted) != 1 {
					problems <- fmt.Sprintf("receiver %s: ACCEPT %d: %v", task.ID(), k, err)
					return
				}
				if m := res.Accepted[0]; m.Args[0].Integer() != int64(k) || m.Args[1].Real() != float64(2*k) {
					problems <- fmt.Sprintf("receiver %s: message %d arrived as %+v", task.ID(), k, m.Args)
					return
				}
				task.RecycleAccept(res)
			}
			// Everything consumed, every result refilled many times over: what
			// does the log still hold?
			logged := task.VM().LoggedArgs(task.ID())
			if len(logged) != msgs {
				problems <- fmt.Sprintf("receiver %s: consumption log retains %d argument lists, want %d", task.ID(), len(logged), msgs)
				return
			}
			for k, args := range logged {
				if len(args) != 2 || args[0].Integer() != int64(k) || args[1].Real() != float64(2*k) {
					problems <- fmt.Sprintf("receiver %s: logged message %d retains %+v", task.ID(), k, args)
					return
				}
				if lists[&args[0]] {
					problems <- fmt.Sprintf("receiver %s: logged message %d shares its argument list with another message", task.ID(), k)
					return
				}
				lists[&args[0]] = true
			}
		}
		vm.Register("receiver", receiver)
		vmB.Register("receiver", receiver)
		victims, killed := 0, s.NewGate()
		checkpoint := func() {
			if err := mesh.Checkpoint(1); err != nil {
				problems <- fmt.Sprintf("checkpoint: %v", err)
			}
		}
		kill := func() {
			victims = netKillB(mesh)
			killed.Open()
		}

		vm.Register("sender", func(task *core.Task) {
			near, err1 := task.InitiateWait(core.OnCluster(1), "receiver")
			far, err2 := task.InitiateWait(core.OnCluster(far), "receiver")
			if err1 != nil || err2 != nil {
				problems <- fmt.Sprintf("initiate: %v, %v", err1, err2)
				return
			}
			pause := core.AcceptSpec{Types: []core.TypeCount{{Type: "never", Count: 1}}, Delay: 5 * time.Millisecond}
			for k := 0; k < msgs; k++ {
				switch k {
				case msgs / 4:
					s.Spawn("checkpoint", checkpoint)
				case msgs / 2:
					s.Spawn("kill", kill)
				}
				if k%10 == 0 {
					// Let the virtual clock run: frames land, the receivers
					// take some of what is queued, the tasks above run.
					if _, err := task.Accept(pause); err != nil {
						problems <- err.Error()
						return
					}
				}
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
		killed.Wait()
		mesh.Shutdown()
		close(problems)
		for p := range problems {
			t.Errorf("seed %d: %s", seed, p)
		}
		if victims != 1 {
			t.Errorf("seed %d: the dead VM was running %d user tasks, want the far receiver", seed, victims)
		}
		if len(lists) != 2*msgs && !t.Failed() {
			t.Errorf("seed %d: checked %d retained argument lists, want %d", seed, len(lists), 2*msgs)
		}
		// A snapshot holds a stretch of a receiver's messages in order, each
		// still as it was sent though all of them have been accepted since.
		for _, queued := range captured {
			for j, args := range queued {
				if len(args) != 2 || args[1].Real() != 2*float64(args[0].Integer()) || args[0].Integer() != queued[0][0].Integer()+int64(j) {
					t.Errorf("seed %d: a queue snapshot starting at message %+v holds %+v in place %d", seed, queued[0], args, j)
					break
				}
				snapshots++
			}
		}
	}
	if (snapshots == 0 || penned == 0) && !t.Failed() {
		t.Errorf("the snapshots held %d argument lists and saw %d messages in a replay pen; both must be exercised", snapshots, penned)
	}
	t.Logf("%d snapshot argument lists checked, %d messages seen in a replay pen", snapshots, penned)
}

// TestRefilledResultIgnoresStaleTypes: a task that takes one message at a
// time through the wildcard, of a type it has never seen before each time,
// and hands every result back, reads only the current ACCEPT through Count
// and First, and its refilled result lists exactly the types this ACCEPT took
// — not the one before it, nor every type the task has ever accepted.
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
			if ms := res.ByType(cur); res.Count(cur) != 1 || len(ms) != 1 || ms[0].Args[0].Integer() != int64(k) || len(res.Accepted) != 1 {
				problems <- fmt.Sprintf("ACCEPT %d: Count(%s) = %d, ByType = %v, %d accepted", k, cur, res.Count(cur), ms, len(res.Accepted))
				return
			}
			for old := 0; old < k; old++ {
				if ty := fmt.Sprintf("t%d", old); res.Count(ty) != 0 || len(res.ByType(ty)) != 0 {
					problems <- fmt.Sprintf("ACCEPT %d still reports type %s of an earlier ACCEPT", k, ty)
					return
				}
			}
			if got := res.Types(); len(got) != 1 || got[0] != cur {
				problems <- fmt.Sprintf("ACCEPT %d: refilled result lists types %v, want exactly [%s]", k, got, cur)
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

// TestSendArgsDroppedOnlyWhenKept keeps the name of the contract it used to
// hold — a same-cluster message kept the list it was sent with, so the task
// dropped its scratch when, and only when, that list was the scratch — and
// holds its replacement: no message keeps a list.  The lent list is lent
// again straight after a same-cluster send, zeroed, and what the next caller
// writes into it leaves the message still queued as it was sent.
func TestSendArgsDroppedOnlyWhenKept(t *testing.T) {
	vm, err := core.NewVM(config.Simple(1, 2), core.Options{UserOutput: io.Discard, AcceptTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()
	problems := make(chan string, 4)
	vm.Register("main", func(task *core.Task) {
		lent := task.SendArgs(2)
		lent[0], lent[1] = core.Int(7), core.Str("seven")
		if err := task.SendSelf("lent", lent...); err != nil {
			problems <- err.Error()
			return
		}
		again := task.SendArgs(2)
		if &again[0] != &lent[0] {
			problems <- "a same-cluster send cost the task its argument scratch"
		}
		if !reflect.ValueOf(again[0]).IsZero() || !reflect.ValueOf(again[1]).IsZero() {
			problems <- fmt.Sprintf("the list was lent again holding %+v", again)
		}
		again[0], again[1] = core.Int(8), core.Str("eight")
		if err := task.SendSelf("lent", again...); err != nil {
			problems <- err.Error()
			return
		}
		clear(again)
		for _, want := range []struct {
			n    int64
			name string
		}{{7, "seven"}, {8, "eight"}} {
			m, err := task.AcceptOne("lent")
			if err != nil || len(m.Args) != 2 || m.Args[0].Integer() != want.n || m.Args[1].Character() != want.name {
				problems <- fmt.Sprintf("the message sent as (%d, %s) arrived as %+v (%v)", want.n, want.name, m, err)
				return
			}
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

// TestInitiateArgsSurviveControllerRecycle: the task controller hands every
// initiate request back to the message pool (RecycleAccept) once its handler
// has run, while the request's arguments go on to be the new task's — for as
// long as it runs, and before that for as long as the request waits for a
// slot.  64 INITIATEs with distinct arguments go through one controller, whose
// cluster has 4 slots, so most of them wait while later requests pass through
// the same recycled headers; no child looks at its arguments until all 64
// have been issued, and each must then find its own.  Once with the
// controller on the initiator's cluster (the list is copied into the header)
// and once on another (it is decoded into it).
func TestInitiateArgsSurviveControllerRecycle(t *testing.T) {
	const children = 64
	for _, cluster := range []int{1, 2} {
		vm, err := core.NewVM(config.Simple(2, 4), core.Options{UserOutput: io.Discard, AcceptTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		problems := make(chan string, children+1)
		seen := make(chan int64, children)
		vm.Register("child", func(task *core.Task) {
			if err := task.SendParent("ready"); err != nil {
				problems <- err.Error()
				return
			}
			if _, err := task.AcceptOne("go"); err != nil {
				problems <- err.Error()
				return
			}
			args := task.Args()
			if len(args) != 3 {
				problems <- fmt.Sprintf("a child started with %d arguments: %+v", len(args), args)
				return
			}
			i := args[0].Integer()
			if name, vals := args[1].Character(), args[2].RealArray; name != fmt.Sprintf("child-%d", i) ||
				len(vals) != 2 || vals[0] != float64(i) || vals[1] != float64(2*i) {
				problems <- fmt.Sprintf("child %d started with %+v", i, args)
				return
			}
			seen <- i
		})
		vm.Register("main", func(task *core.Task) {
			for i := 0; i < children; i++ {
				err := task.Initiate(core.OnCluster(cluster), "child",
					core.Int(int64(i)), core.Str(fmt.Sprintf("child-%d", i)), core.Reals([]float64{float64(i), float64(2 * i)}))
				if err != nil {
					problems <- fmt.Sprintf("initiate %d: %v", i, err)
					return
				}
			}
			for i := 0; i < children; i++ {
				if _, err := task.AcceptOne("ready"); err != nil {
					problems <- err.Error()
					return
				}
				if err := task.SendSender("go"); err != nil {
					problems <- err.Error()
					return
				}
			}
		})
		if _, err := vm.Run("main", core.OnCluster(1)); err != nil {
			t.Fatal(err)
		}
		vm.WaitIdle()
		vm.Shutdown()
		close(problems)
		for p := range problems {
			t.Errorf("controller of cluster %d: %s", cluster, p)
		}
		close(seen)
		started := map[int64]bool{}
		for i := range seen {
			started[i] = true
		}
		if len(started) != children && !t.Failed() {
			t.Errorf("controller of cluster %d: %d distinct children read their arguments, want %d", cluster, len(started), children)
		}
	}
}

// TestByTypeAgreesWithAccepted: a result's grouping is its Accepted list read
// by type.  Over seeded statements — a shared total, per-type counts, ALL, and
// the wildcard draining up to 64 distinct types at once — on results that are
// new, refilled (RecycleAccept) and refilled after a wider statement,
// ByType(t) is exactly Accepted filtered by t, in order, for every type there
// is; Count and First say the same; and the result lists no type it did not
// take.
func TestByTypeAgreesWithAccepted(t *testing.T) {
	const (
		types      = 64
		statements = 400
	)
	names := make([]string, types)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	vm, err := core.NewVM(config.Simple(1, 2), core.Options{UserOutput: io.Discard, AcceptTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()
	problems := make(chan string, 4)
	vm.Register("main", func(task *core.Task) {
		rng := rand.New(rand.NewSource(22))
		queued := map[string]int{} // what the in-queue holds, by type
		serial := int64(0)
		for k := 0; k < statements; k++ {
			// Refill the queue: a few types or all of them.
			spread := 1 + rng.Intn(4)
			if k%8 == 7 {
				spread = types
			}
			for n := 8 + rng.Intn(64); n > 0; n-- {
				ty := names[rng.Intn(spread)]
				serial++
				if err := task.SendSelf(ty, core.Int(serial)); err != nil {
					problems <- err.Error()
					return
				}
				queued[ty]++
			}
			// A statement the queue can satisfy, so that none waits.
			var spec core.AcceptSpec
			switch kind := rng.Intn(4); {
			case k%8 == 7 || kind == 0:
				spec.Types = []core.TypeCount{{Type: core.AnyMessage, Count: core.All}}
			case kind == 1:
				for _, ty := range names[:spread] {
					spec.Types = append(spec.Types, core.TypeCount{Type: ty, Count: core.All})
				}
			case kind == 2:
				for _, ty := range names[:spread] {
					if queued[ty] > 0 {
						spec.Types = append(spec.Types, core.TypeCount{Type: ty, Count: 1 + rng.Intn(queued[ty])})
					}
				}
			default:
				have := 0
				for _, ty := range names[:spread] {
					spec.Types = append(spec.Types, core.TypeCount{Type: ty})
					have += queued[ty]
				}
				spec.Total = 1 + rng.Intn(have)
			}
			res, err := task.Accept(spec)
			if err != nil || res.TimedOut {
				problems <- fmt.Sprintf("statement %d (%+v): %v, timed out %v", k, spec, err, res != nil && res.TimedOut)
				return
			}
			want := map[string][]*core.Message{}
			for _, m := range res.Accepted {
				want[m.Type] = append(want[m.Type], m)
				queued[m.Type]--
			}
			for _, ty := range append(names, "never-sent", core.AnyMessage) {
				got := res.ByType(ty)
				if !slices.Equal(got, want[ty]) {
					problems <- fmt.Sprintf("statement %d: ByType(%s) lists %d messages, Accepted holds %d of that type (or in another order)", k, ty, len(got), len(want[ty]))
					return
				}
				if res.Count(ty) != len(got) {
					problems <- fmt.Sprintf("statement %d: Count(%s) = %d, ByType has %d", k, ty, res.Count(ty), len(got))
					return
				}
			}
			if listed := res.Types(); len(listed) != len(want) {
				problems <- fmt.Sprintf("statement %d took %d types, its result lists %v", k, len(want), listed)
				return
			}
			if rng.Intn(4) > 0 {
				task.RecycleAccept(res)
			}
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
