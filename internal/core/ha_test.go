package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
)

// haTestProgram registers a boss on cluster 1 driving ping/pong rounds with
// workers on cluster 2.  Every print is deterministic in content; line order
// between workers may legitimately differ between schedules, so assertions
// compare sorted lines.
const (
	haWorkers = 4
	haRounds  = 6
)

func registerHAProgram(t *testing.T, vm *VM) {
	t.Helper()
	vm.Register("worker", func(task *Task) {
		boss := MustID(task.Arg(0))
		idx := MustInt(task.Arg(1))
		sum := int64(0)
		for r := 0; r < haRounds; r++ {
			res, err := task.Accept(AcceptSpec{Types: []TypeCount{{Type: "ping", Count: 1}}, Delay: Forever})
			if err != nil {
				return
			}
			v := MustInt(res.Accepted[0].Arg(0))
			sum += v
			if err := task.Send(boss, "pong", Int(idx), Int(2*v)); err != nil {
				return
			}
		}
		task.Printf("worker %d sum %d\n", idx, sum)
		_ = task.Send(boss, "bye", Int(idx))
	})
	vm.Register("boss", func(task *Task) {
		ids := make([]TaskID, haWorkers)
		for i := range ids {
			id, err := task.InitiateWait(OnCluster(2), "worker", ID(task.ID()), Int(int64(i)))
			if err != nil {
				t.Errorf("initiate worker %d: %v", i, err)
				return
			}
			ids[i] = id
		}
		total := int64(0)
		for r := 0; r < haRounds; r++ {
			for i, id := range ids {
				if err := task.Send(id, "ping", Int(int64(r*10+i))); err != nil {
					t.Errorf("round %d ping %d: %v", r, i, err)
					return
				}
			}
			res, err := task.Accept(AcceptSpec{Types: []TypeCount{{Type: "pong", Count: haWorkers}}, Delay: Forever})
			if err != nil {
				t.Errorf("round %d accept: %v", r, err)
				return
			}
			for _, m := range res.Accepted {
				total += MustInt(m.Arg(1))
			}
			// Virtual pause: advances the sim clock between rounds so a kill
			// timer lands at a well-defined point in the schedule.
			task.Accept(AcceptSpec{Types: []TypeCount{{Type: "never", Count: 1}}, Delay: time.Millisecond})
		}
		res, err := task.Accept(AcceptSpec{Types: []TypeCount{{Type: "bye", Count: haWorkers}}, Delay: Forever})
		if err != nil || res.TimedOut {
			t.Errorf("bye accept: %v timedOut=%v", err, res.TimedOut)
			return
		}
		task.Printf("boss total %d\n", total)
	})
}

// haExpectedLines computes the program's print output from its semantics.
func haExpectedLines() []string {
	var lines []string
	total := int64(0)
	for i := 0; i < haWorkers; i++ {
		sum := int64(0)
		for r := 0; r < haRounds; r++ {
			v := int64(r*10 + i)
			sum += v
			total += 2 * v
		}
		lines = append(lines, fmt.Sprintf("worker %d sum %d", i, sum))
	}
	lines = append(lines, fmt.Sprintf("boss total %d", total))
	sort.Strings(lines)
	return lines
}

// runHA runs the boss/worker program on two sim-backed HA VMs joined by
// pipes, one scheduler under both: A hosts cluster 1 and the boss, B hosts
// cluster 2 and the workers.  When killAt >= 0, a timer at that virtual time
// kills B the way a node dies: B checkpoints cluster 2 and then sends nothing
// more, A adopts the cluster and restores it from the checkpoint, and B is
// stopped.  Returns A's raw output and the number of user tasks B was running
// at the kill.
func runHA(t *testing.T, seed int64, killAt time.Duration) (string, int) {
	t.Helper()
	var out bytes.Buffer
	s := sim.New(seed)
	vmA, vmB, pipeB := haPair(t, s, &out)
	registerHAProgram(t, vmA)
	registerHAProgram(t, vmB)

	victims := -1
	if killAt >= 0 {
		s.AfterFunc(killAt, func() {
			blob, err := vmB.Checkpoint(2)
			if err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			victims = killB(t, vmA, vmB, pipeB, blob)
		})
	}

	if _, err := vmA.Initiate("boss", OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	vmA.WaitIdle()
	vmB.WaitIdle()
	vmB.Shutdown()
	vmA.Shutdown()
	return out.String(), victims
}

// haPair boots two HA VMs over one 2-cluster configuration on one scheduler:
// A hosts cluster 1 and writes the terminal to out, B hosts cluster 2, with
// pipes between them.  It returns B's pipe, whose drop switch a kill throws.
func haPair(t *testing.T, s *sim.Scheduler, out *bytes.Buffer) (*VM, *VM, *pipeTransport) {
	t.Helper()
	trA, trB := &pipeTransport{}, &pipeTransport{}
	boot := func(hosted int, w io.Writer, tr *pipeTransport) *VM {
		vm, err := NewVM(config.Simple(2, 8), Options{
			UserOutput: w, AcceptTimeout: 30 * time.Second, Backend: s, HA: true,
			Hosted: []int{hosted}, Remote: tr, NodeID: hosted - 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}
	vmA, vmB := boot(1, out, trA), boot(2, io.Discard, trB)
	trA.peer, trB.peer = vmB, vmA
	return vmA, vmB, trB
}

// killB is B's death as A sees it, in one instant of the schedule: B's pipe
// drops everything B sends from here on, A adopts cluster 2 and restores it
// from blob, B's last checkpoint of it, and B is stopped.  The pipes deliver
// synchronously, so nothing is in flight to retain and replay.  It returns
// the number of user tasks B was running.
func killB(t *testing.T, vmA, vmB *VM, pipeB *pipeTransport, blob []byte) int {
	victims := 0
	for _, ti := range vmB.RunningTasks() {
		if !ti.Controller {
			victims++
		}
	}
	pipeB.mu.Lock()
	pipeB.drop = true
	pipeB.mu.Unlock()
	vmA.AdoptClusters(2)
	if err := vmA.Restore(blob, nil); err != nil {
		t.Errorf("restore: %v", err)
	}
	vmB.Shutdown()
	return victims
}

func sortedLines(s string) []string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return lines
}

// TestHACheckpointRestoreRoundTrip kills the VM hosting cluster 2 at several
// virtual times and checks the program's output is the same multiset of lines as the
// fault-free run (and as the semantics predict), with no duplicated or lost
// prints: replayed sends must be deduplicated by the receiver floors and the
// user controller's floor.
func TestHACheckpointRestoreRoundTrip(t *testing.T) {
	baseline, _ := runHA(t, 1, -1)
	want := haExpectedLines()
	if got := sortedLines(baseline); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("fault-free output = %q, want lines %q", baseline, want)
	}

	for _, killAt := range []time.Duration{0, 500 * time.Microsecond, 2500 * time.Microsecond, 4700 * time.Microsecond} {
		killAt := killAt
		t.Run(fmt.Sprintf("killAt=%v", killAt), func(t *testing.T) {
			out, victims := runHA(t, 1, killAt)
			if victims <= 0 {
				t.Fatalf("B was running %d user tasks at the kill; it did not land mid-run", victims)
			}
			if got := sortedLines(out); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("killAt=%v output lines = %q, want %q", killAt, got, want)
			}
		})
	}
}

// TestHAKillDeterminism repeats one kill schedule and demands byte-identical
// output: recovery itself must be deterministic under the sim backend.
func TestHAKillDeterminism(t *testing.T) {
	first, v1 := runHA(t, 7, 2500*time.Microsecond)
	second, v2 := runHA(t, 7, 2500*time.Microsecond)
	if first != second {
		t.Fatalf("same seed and kill time, different output:\n--- run1\n%s\n--- run2\n%s", first, second)
	}
	if v1 != v2 {
		t.Fatalf("victim counts differ: %d vs %d", v1, v2)
	}
}

// TestHARestoredResendOnBuddy: a task restored on the VM that adopted its
// cluster re-executes the sends it made after the checkpoint, and the
// adopter, which never saw the first life, answers a re-send to a task that
// has exited since from that task's exit record.  A message the receiver
// admitted is a send that happened and succeeds silently; one that never
// reached it — its receiver was gone before the first life sent it — fails
// again, because the record means "admitted", not "recently dead".
func TestHARestoredResendOnBuddy(t *testing.T) {
	var out bytes.Buffer
	s := sim.New(1)
	vmA, vmB, pipeB := haPair(t, s, &out)
	type sends struct {
		restored        bool
		toTaker, toGone error
	}
	var lives []sends
	for _, vm := range []*VM{vmA, vmB} {
		vm.Register("taker", func(task *Task) { _, _ = task.AcceptOne("datum") })
		vm.Register("gone", func(task *Task) {})
		vm.Register("src", func(task *Task) {
			if _, err := task.AcceptOne("go"); err != nil {
				t.Errorf("src %s: %v", task.ID(), err)
				return
			}
			life := sends{restored: task.VM() == vmA}
			life.toTaker = task.Send(MustID(task.Arg(0)), "datum", Int(1))
			life.toGone = task.Send(MustID(task.Arg(1)), "datum", Int(2))
			lives = append(lives, life)
		})
	}
	taker, err1 := vmA.Initiate("taker", OnCluster(1))
	gone, err2 := vmA.Initiate("gone", OnCluster(1))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	_ = vmA.WaitTask(gone)
	src, err := vmA.Initiate("src", OnCluster(2), ID(taker), ID(gone))
	if err != nil {
		t.Fatal(err)
	}
	// "go" reaches src, and B cuts its checkpoint in the same instant: the
	// restored src replays no ACCEPT and takes "go" from the queue tail, so
	// its sends are live re-sends, not replay.
	if err := vmA.SendFromUser(src, "go"); err != nil {
		t.Fatal(err)
	}
	blob, err := vmB.Checkpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	_ = vmA.WaitTask(taker) // src's first life sends; taker admits its datum and exits
	killB(t, vmA, vmB, pipeB, blob)
	vmA.WaitIdle()
	vmA.Shutdown()

	if len(lives) != 2 || lives[0].restored || !lives[1].restored {
		t.Fatalf("src lived %+v; want a first life on B and a restored one on A", lives)
	}
	if first := lives[0]; first.toTaker != nil || first.toGone != nil {
		t.Fatalf("first life's sends crossed the wire and cannot fail there, got %v, %v", first.toTaker, first.toGone)
	}
	if err := lives[1].toTaker; err != nil {
		t.Errorf("restored re-send of a message the exited taker admitted: %v, want success", err)
	}
	if err := lives[1].toGone; !errors.Is(err, ErrNoSuchTask) {
		t.Errorf("restored send to a task that exited before the first life sent: %v, want ErrNoSuchTask", err)
	}
}

// TestHAOffOverheadPaths checks a non-HA VM still runs the same program
// (the HA hooks must be inert when Options.HA is false).
func TestHAOffOverheadPaths(t *testing.T) {
	var out bytes.Buffer
	s := sim.New(3)
	vm, err := NewVM(config.Simple(2, 8), Options{UserOutput: &out, AcceptTimeout: 30 * time.Second, Backend: s})
	if err != nil {
		t.Fatal(err)
	}
	registerHAProgram(t, vm)
	if _, err := vm.Initiate("boss", OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
	vm.Shutdown()
	want := haExpectedLines()
	if got := sortedLines(out.String()); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("non-HA output lines = %q, want %q", got, want)
	}
}

// TestHASequencedPlacementIgnoresLoad: in HA mode an ANY or OTHER INITIATE
// takes the clusters in turn by the initiator's send sequence number,
// starting after its own cluster — whatever the loads, which a restored
// initiator on another VM sees differently.  Cluster 2 is the busiest here,
// and an unsequenced ANY (the execution environment's) avoids it; the
// sequenced ones still go 2, 3, 1, 2, and OTHER 2, 3.
func TestHASequencedPlacementIgnoresLoad(t *testing.T) {
	vm, err := NewVM(config.Simple(3, 8), Options{HA: true, AcceptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()
	vm.Register("sleeper", func(task *Task) { _, _ = task.AcceptOne("stop") })
	for i := 0; i < 4; i++ {
		if _, err := vm.Initiate("sleeper", OnCluster(2)); err != nil {
			t.Fatal(err)
		}
	}
	if id, err := vm.Initiate("sleeper", Any()); err != nil || id.Cluster == 2 {
		t.Fatalf("an unsequenced ANY went to cluster %d (%v); want a less loaded one", id.Cluster, err)
	}
	var got []int
	vm.Register("placer", func(task *Task) {
		for _, p := range []Placement{Any(), Any(), Any(), Any(), Other(), Other()} {
			id, err := task.InitiateWait(p, "sleeper")
			if err != nil {
				t.Errorf("placer: %v", err)
				return
			}
			got = append(got, id.Cluster)
		}
	})
	if _, err := vm.Run("placer", OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 3, 1, 2, 2, 3}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("sequenced placements went to clusters %v, want %v", got, want)
	}
}

// TestHAPlannedTaskOwnsItsSlot: a planned re-creation holds its id's slot
// from the plan on — at once when the slot is free, else from the moment its
// holder exits — so a request that comes in before the planned one waits
// for another slot instead of taking the one the re-created task needs.
// Cluster 2 has one slot; a rival's fire-and-forget request reaches it
// between the plan and the parent's request, and must start after the kid.
func TestHAPlannedTaskOwnsItsSlot(t *testing.T) {
	for _, held := range []bool{false, true} {
		t.Run(fmt.Sprintf("held=%v", held), func(t *testing.T) {
			cfg := config.Simple(2, 4)
			cfg.Cluster(2).Slots = 1
			vm, err := NewVM(cfg, Options{HA: true, Backend: sim.New(1), AcceptTimeout: 30 * time.Second, UserOutput: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			defer vm.Shutdown()
			var order []string
			vm.Register("holder", func(task *Task) { _, _ = task.AcceptOne("release") })
			vm.Register("kid", func(task *Task) { order = append(order, "kid "+task.ID().String()) })
			vm.Register("other", func(task *Task) { order = append(order, "other") })
			vm.Register("rival", func(task *Task) { _ = task.Initiate(OnCluster(2), "other") })
			vm.Register("parent", func(task *Task) {
				if _, err := task.AcceptOne("go"); err == nil {
					_ = task.Initiate(OnCluster(2), "kid") // its send number 1
				}
			})
			parent, err := vm.Initiate("parent", OnCluster(1))
			if err != nil {
				t.Fatal(err)
			}
			var holder TaskID
			if held {
				if holder, err = vm.Initiate("holder", OnCluster(2)); err != nil {
					t.Fatal(err)
				}
			}
			kid := TaskID{Cluster: 2, Slot: 1, Unique: 1000}
			if err := vm.Restore(nil, []LoggedInit{{Cluster: 2, Parent: parent, Seq: 1, ID: kid}}); err != nil {
				t.Fatal(err)
			}
			if held {
				_ = vm.SendFromUser(holder, "release")
				_ = vm.WaitTask(holder)
			}
			rival, err := vm.Initiate("rival", OnCluster(1))
			if err != nil {
				t.Fatal(err)
			}
			_ = vm.WaitTask(rival)
			_ = vm.SendFromUser(parent, "go")
			vm.WaitIdle()
			if want := []string{"kid " + kid.String(), "other"}; fmt.Sprint(order) != fmt.Sprint(want) {
				t.Errorf("tasks ran %v, want %v", order, want)
			}
		})
	}
}
