package node_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/node"
	"repro/internal/obs"
)

// haKillSource spreads timed workers over all three clusters so a mid-run
// node kill lands while tasks hold live state on the dying node.  Each
// STEPPER grinds through 12 timed steps (a never-satisfied ACCEPT whose
// DELAY paces the loop at 50ms), so the run lasts long enough for a
// checkpoint to cut and for the failure detector to fire mid-flight.  The
// printed total is a pure function of the worker ids — arrival order,
// scheduling, and recovery cannot change it.
const haKillSource = `
TASKTYPE MAIN
      INTEGER W, NW
      INTEGER TOTAL
      SIGNAL RES
      NW = 6
      ON CLUSTER 3 INITIATE STEPPER(1)
      ON CLUSTER 3 INITIATE STEPPER(2)
      ON CLUSTER 2 INITIATE STEPPER(3)
      ON CLUSTER 2 INITIATE STEPPER(4)
      ON CLUSTER 1 INITIATE STEPPER(5)
      ON CLUSTER 3 INITIATE STEPPER(6)
      ACCEPT NW OF RES
      TOTAL = 0
      DO 20 W = 1, NW
        TOTAL = TOTAL + MSGI('RES', W, 1)
20    CONTINUE
      PRINT *, 'TOTAL', TOTAL
END TASKTYPE

TASKTYPE STEPPER(ME)
      INTEGER ME
      INTEGER I, ACC
      SIGNAL TICK
      ACC = 0
      DO 10 I = 1, 12
        ACC = ACC + ME * I
        ACCEPT 1 OF
          TICK
        DELAY 0.05 THEN
          ACC = ACC + 0
        END ACCEPT
10    CONTINUE
      TO PARENT SEND RES(ACC)
END TASKTYPE
`

// TestHAKillNodeMatchesSingleProcess is the tentpole acceptance: a 3-node HA
// mesh whose node 2 is killed mid-run (abrupt teardown, no drain) produces
// byte-identical user output to the single-process run.  Node 2's workers die
// with it; node 0 — its checkpoint buddy — detects the death, adopts cluster
// 3, restores the last blob, and the restored workers finish the job.
func TestHAKillNodeMatchesSingleProcess(t *testing.T) {
	cfg := config.Simple(3, 4)
	want := singleProcessOutput(t, cfg, haKillSource)
	if !strings.Contains(want, "TOTAL") {
		t.Fatalf("reference output unexpected:\n%s", want)
	}

	reg := obs.New()
	reg.Enable(obs.Metrics | obs.Spans)
	var out bytes.Buffer
	var logs [3]bytes.Buffer
	nodes := startMesh(t, 3, cfg, haKillSource, &out, func(i int, o *node.Options) {
		o.HA = true
		o.CheckpointInterval = 50 * time.Millisecond
		o.Log = &logs[i]
		if i == 0 {
			o.Metrics = reg
		}
	})

	var wg sync.WaitGroup
	for _, f := range nodes[1:] {
		wg.Add(1)
		go func(f *node.Node) {
			defer wg.Done()
			_ = f.ServeUntilShutdown() // node 2 is terminated underneath this
		}(f)
	}
	// Kill node 2 a few checkpoints in, while its steppers are mid-loop.
	kill := time.AfterFunc(250*time.Millisecond, nodes[2].Terminate)
	defer kill.Stop()

	if err := nodes[0].RunMain(); err != nil {
		t.Errorf("run: %v", err)
	}
	if err := nodes[0].Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	wg.Wait()

	if got := out.String(); got != want {
		t.Fatalf("output diverges after node kill:\n--- got ---\n%s--- want ---\n%s--- node logs ---\n0:\n%s1:\n%s2:\n%s",
			got, want, logs[0].String(), logs[1].String(), logs[2].String())
	}
	// The run must actually have recovered, or the kill landed after the work
	// was done and the test pinned nothing.
	counterOf := func(s *obs.Snapshot, name string) int64 {
		for _, c := range s.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		return -1
	}
	snap := reg.Snapshot()
	if v := counterOf(snap, "node.ha.deaths"); v < 1 {
		t.Errorf("node.ha.deaths = %d, want >= 1; node 0 log:\n%s", v, logs[0].String())
	}
	if v := counterOf(snap, "node.ha.ckpt.rx"); v < 1 {
		t.Errorf("node.ha.ckpt.rx = %d, want >= 1 (node 0 is node 2's buddy)", v)
	}
	if !strings.Contains(logs[0].String(), "rerouted node 2's clusters to node 0") {
		t.Errorf("node 0 never completed the rebalance; log:\n%s", logs[0].String())
	}
	// The rebalance is a span on the survivor's HA lane.
	spans, _ := reg.Spans()
	rebalanced := false
	for _, s := range spans {
		rebalanced = rebalanced || s.Lane == "node/0 ha" && s.Name == "rebalance n2->n0"
	}
	if !rebalanced {
		t.Errorf("node 0 captured no rebalance n2->n0 span on lane node/0 ha (%d spans)", len(spans))
	}
	// Failure forensics: the survivor's flight recorder must hold the dead
	// node's story — the checkpoints it stored as node 2's buddy (proving
	// which epoch the restore came from) and the death declaration itself.
	dump, err := nodes[0].BlackboxDump()
	if err != nil {
		t.Fatalf("blackbox dump: %v", err)
	}
	_, _, events, err := msgcodec.DecodeBlackbox(dump)
	if err != nil {
		t.Fatalf("blackbox decode: %v", err)
	}
	lastEpoch, death := int64(-1), false
	for _, ev := range events {
		switch ev.Kind {
		case msgcodec.EvCheckpoint:
			if ev.A == 2 && ev.B > lastEpoch {
				lastEpoch = ev.B
			}
		case msgcodec.EvHeartbeatMiss:
			if ev.A == 2 {
				death = true
			}
		}
	}
	if lastEpoch < 1 {
		t.Errorf("survivor's dump holds no checkpoint of node 2 (last epoch %d, %d events)", lastEpoch, len(events))
	}
	if !death {
		t.Errorf("survivor's dump holds no heartbeat-miss for node 2 (%d events)", len(events))
	}
}

// TestHAMeshSurvivesWithoutFailure pins that HA mode is inert when nothing
// dies: the heartbeats, checkpoints, and retention accounting must not change
// the program's output or wedge the shutdown drain.
func TestHAMeshSurvivesWithoutFailure(t *testing.T) {
	src := corpusSource(t, "crosscluster.pf")
	cfg := config.Simple(2, 4)
	want := singleProcessOutput(t, cfg, src)

	var out bytes.Buffer
	nodes := startMesh(t, 2, cfg, src, &out, func(i int, o *node.Options) {
		o.HA = true
		o.CheckpointInterval = 20 * time.Millisecond
	})
	runDistributed(t, nodes)
	if got := out.String(); got != want {
		t.Fatalf("HA-mode output differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// kidScenario is a program of Go tasktypes whose child is started on a
// follower after a checkpoint the test cuts.  main, on cluster 1, starts four
// short tasks there — so node 0 numbers its tasks ahead of node 1, as the
// nodes of any mesh doing different work do, and a fresh id on node 0 cannot
// repeat one node 1 assigned — and initiates parent on cluster 2; parent
// waits for "start" and initiates kid on its own cluster; kid says hello to
// main, waits for "go" and answers "done".  main prints the hello, waits for
// "proceed", sends "go" to the id the hello came from, prints the kid's
// answer and then any second hello that reaches it.
type kidScenario struct {
	mu      sync.Mutex
	lives   []core.TaskID // the kid's id, once per life
	hellos  []core.TaskID // the senders of the hellos main accepted
	parent  chan core.TaskID
	greeted chan struct{}
}

func newKidScenario() *kidScenario {
	return &kidScenario{parent: make(chan core.TaskID, 1), greeted: make(chan struct{}, 1)}
}

func (s *kidScenario) register(vm *core.VM) {
	vm.Register("main", func(task *core.Task) {
		for i := 0; i < 4; i++ {
			_ = task.Initiate(core.OnCluster(1), "short")
		}
		if err := task.Initiate(core.OnCluster(2), "parent"); err != nil {
			task.Printf("INITIATE FAILED: %v\n", err)
			return
		}
		m, err := task.AcceptOne("hello")
		if err != nil {
			return
		}
		kid := m.Sender
		s.mu.Lock()
		s.hellos = append(s.hellos, kid)
		s.mu.Unlock()
		task.Printf("HELLO FROM THE KID\n")
		s.greeted <- struct{}{}
		if _, err := task.AcceptOne("proceed"); err != nil {
			return
		}
		if err := task.Send(kid, "go"); err != nil {
			task.Printf("GO FAILED: %v\n", err)
			return
		}
		if _, err := task.AcceptOne("done"); err == nil {
			task.Printf("THE KID IS DONE\n")
		}
		res, err := task.Accept(core.AcceptSpec{Types: []core.TypeCount{{Type: "hello", Count: 1}}, Delay: 200 * time.Millisecond})
		if err == nil && !res.TimedOut {
			task.Printf("A SECOND HELLO FROM %s\n", res.Accepted[0].Sender)
		}
	})
	vm.Register("short", func(*core.Task) {})
	vm.Register("parent", func(task *core.Task) {
		select {
		case s.parent <- task.ID():
		default: // a restored life
		}
		if _, err := task.AcceptOne("start"); err == nil {
			_ = task.Initiate(core.OnCluster(2), "kid", core.ID(task.Parent()))
		}
	})
	vm.Register("kid", func(task *core.Task) {
		s.mu.Lock()
		s.lives = append(s.lives, task.ID())
		s.mu.Unlock()
		main := core.MustID(task.Arg(0))
		_ = task.Send(main, "hello")
		res, err := task.Accept(core.AcceptSpec{Types: []core.TypeCount{{Type: "go", Count: 1}}, Delay: 10 * time.Second})
		if err == nil && !res.TimedOut {
			_ = task.Send(main, "done")
		}
	})
}

// drive runs the scenario on vm, node 0's VM on a mesh: cut runs once parent
// is running and before it gets "start", kill once the kid's hello reached
// main and before main sends the kid "go".  It returns main's id.
func (s *kidScenario) drive(t *testing.T, vm *core.VM, cut, kill func()) core.TaskID {
	t.Helper()
	main, err := vm.Initiate("main", core.OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	var parent core.TaskID
	select {
	case parent = <-s.parent:
	case <-time.After(10 * time.Second):
		t.Fatal("parent did not start")
	}
	cut()
	if err := vm.SendFromUser(parent, "start"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.greeted:
	case <-time.After(10 * time.Second):
		t.Fatal("the kid's hello did not reach main")
	}
	kill()
	if err := vm.SendFromUser(main, "proceed"); err != nil {
		t.Fatal(err)
	}
	return main
}

// lockedBuffer is a log a test reads while nodes write it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestHALocalChildKeepsItsIDAcrossAKill: node 1 starts a child on its own
// cluster after its last checkpoint, and the child's id reaches node 0 — in
// the child's hello, which node 0 answers with "go" to that id.  Node 1 is
// killed in between, by construction: the test cuts the only checkpoint
// itself.  Node 0, node 1's buddy, holds the child's initiation in node 1's
// log, so when the restored parent initiates the child again it comes back
// under its first id: the "go" finds it, its second hello is dropped as a
// duplicate, and the output is the single-process run's.
func TestHALocalChildKeepsItsIDAcrossAKill(t *testing.T) {
	cfg := config.Simple(2, 4)
	ref := newKidScenario()
	var want bytes.Buffer
	vm, err := core.NewVM(cfg, core.Options{UserOutput: &want, AcceptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ref.register(vm)
	_ = vm.WaitTask(ref.drive(t, vm, func() {}, func() {}))
	vm.Shutdown()
	if want.String() != "HELLO FROM THE KID\nTHE KID IS DONE\n" {
		t.Fatalf("reference output unexpected:\n%s", want.String())
	}

	s := newKidScenario()
	var out bytes.Buffer
	var log0 lockedBuffer
	nodes := startMesh(t, 2, cfg, "", &out, func(i int, o *node.Options) {
		o.HA = true
		o.CheckpointInterval = time.Hour // the test cuts the one checkpoint
		o.Register = s.register
		if i == 0 {
			o.Log = &log0
		}
	})
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = nodes[1].ServeUntilShutdown() // terminated underneath this
	}()
	main := s.drive(t, nodes[0].VM(), func() {
		if !nodes[1].CutCheckpoint() {
			t.Fatal("node 0 did not ack node 1's checkpoint")
		}
	}, func() {
		nodes[1].Terminate()
		for deadline := time.Now().Add(20 * time.Second); !strings.Contains(log0.String(), "rerouted node 1's clusters to node 0"); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("node 0 never rerouted node 1's clusters; log:\n%s", log0.String())
			}
		}
	})
	_ = nodes[0].VM().WaitTask(main)
	if err := nodes[0].Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	<-served

	if got := out.String(); got != want.String() {
		t.Errorf("output after node 1's kill:\n--- got ---\n%s--- want ---\n%s--- node 0 log ---\n%s", got, want.String(), log0.String())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.lives) != 2 || s.lives[0] != s.lives[1] {
		t.Errorf("the kid lived as %v; want two lives under one id", s.lives)
	}
	if len(s.hellos) != 1 {
		t.Errorf("main accepted hellos from %v; want one", s.hellos)
	}
}

// TestHABuddyLogHoldsOnlyEntriesAfterTheCut: a buddy keeps the entries of a
// peer's initiation log that no checkpoint of the peer covers.  Node 1
// starts parent (entry 1) before the checkpoint the test cuts and kid (entry
// 2) after it; once node 0 acked the checkpoint it holds nothing for node 1,
// and then exactly the kid's initiation.
func TestHABuddyLogHoldsOnlyEntriesAfterTheCut(t *testing.T) {
	s := newKidScenario()
	var out bytes.Buffer
	nodes := startMesh(t, 2, config.Simple(2, 4), "", &out, func(_ int, o *node.Options) {
		o.HA = true
		o.CheckpointInterval = time.Hour
		o.Register = s.register
	})
	served := make(chan error, 1)
	go func() { served <- nodes[1].ServeUntilShutdown() }()
	main := s.drive(t, nodes[0].VM(), func() {
		if held := nodes[0].HeldInits(1); len(held) != 1 || held[0].Parent.Cluster != 1 {
			t.Errorf("before the cut node 0 holds %v for node 1; want parent's initiation", held)
		}
		if !nodes[1].CutCheckpoint() {
			t.Fatal("node 0 did not ack node 1's checkpoint")
		}
		if held := nodes[0].HeldInits(1); len(held) != 0 {
			t.Errorf("after the ack node 0 holds %v for node 1; want nothing", held)
		}
	}, func() {
		s.mu.Lock()
		kid := s.lives[0]
		s.mu.Unlock()
		held := nodes[0].HeldInits(1)
		if len(held) != 1 || held[0].ID != kid || held[0].Cluster != 2 || held[0].Seq != 1 {
			t.Errorf("after the kid started node 0 holds %v for node 1; want the kid %s's initiation", held, kid)
		}
	})
	_ = nodes[0].VM().WaitTask(main)
	if err := nodes[0].Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := <-served; err != nil {
		t.Errorf("follower: %v", err)
	}
	if out.String() != "HELLO FROM THE KID\nTHE KID IS DONE\n" {
		t.Errorf("output:\n%s", out.String())
	}
}

// TestHAReplayedBroadcastSkipsLateTasks: a broadcast a buddy replays for a
// dead node reaches the dead node's restored tasks and no one else.  A
// caster on node 0's cluster 1 broadcasts after node 1's checkpoint, which a
// listener on node 1's cluster 2 hears; then a late task starts on cluster 1
// and node 1 is killed.  Node 0 restores the listener from the checkpoint and
// replays the broadcast, narrowed to cluster 2, so the listener hears it in
// both of its lives — and the late task, never among its receivers, hears
// nothing, as in a single process.
func TestHAReplayedBroadcastSkipsLateTasks(t *testing.T) {
	var mu sync.Mutex
	heard := map[string]int{}
	listened := make(chan struct{}, 2)
	register := func(vm *core.VM) {
		vm.Register("caster", func(task *core.Task) {
			if _, err := task.AcceptOne("cast"); err == nil {
				_ = task.Broadcast("news", core.Int(5))
			}
		})
		vm.Register("listener", func(task *core.Task) {
			if _, err := task.AcceptOne("news"); err == nil {
				mu.Lock()
				heard["listener"]++
				mu.Unlock()
				listened <- struct{}{}
			}
		})
		vm.Register("late", func(task *core.Task) {
			for {
				res, err := task.Accept(core.AcceptSpec{Total: 1, Types: []core.TypeCount{{Type: "news"}, {Type: "stop"}}})
				if err != nil || res.TimedOut || res.Accepted[0].Type == "stop" {
					return
				}
				mu.Lock()
				heard["late"]++
				mu.Unlock()
			}
		})
	}
	hear := func(life string) {
		t.Helper()
		select {
		case <-listened:
		case <-time.After(10 * time.Second):
			t.Fatalf("the listener did not hear the broadcast in its %s life", life)
		}
	}

	var log0 lockedBuffer
	nodes := startMesh(t, 2, config.Simple(2, 4), "", nil, func(i int, o *node.Options) {
		o.HA = true
		o.CheckpointInterval = time.Hour // the test cuts the one checkpoint
		o.Register = register
		if i == 0 {
			o.Log = &log0
		}
	})
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = nodes[1].ServeUntilShutdown() // terminated underneath this
	}()
	vm := nodes[0].VM()
	caster, err1 := vm.Initiate("caster", core.OnCluster(1))
	_, err2 := vm.Initiate("listener", core.OnCluster(2))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !nodes[1].CutCheckpoint() {
		t.Fatal("node 0 did not ack node 1's checkpoint")
	}
	if err := vm.SendFromUser(caster, "cast"); err != nil {
		t.Fatal(err)
	}
	hear("first")
	late, err := vm.Initiate("late", core.OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	nodes[1].Terminate()
	for deadline := time.Now().Add(20 * time.Second); !strings.Contains(log0.String(), "rerouted node 1's clusters to node 0"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("node 0 never rerouted node 1's clusters; log:\n%s", log0.String())
		}
	}
	hear("restored")
	if err := vm.SendFromUser(late, "stop"); err != nil {
		t.Fatal(err)
	}
	_ = vm.WaitTask(late)
	if err := nodes[0].Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	<-served

	mu.Lock()
	defer mu.Unlock()
	if heard["listener"] != 2 || heard["late"] != 0 {
		t.Errorf("heard %v; want the listener in both lives and nothing for the late task", heard)
	}
}
