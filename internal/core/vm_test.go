package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/trace"
)

// syncBuffer is a goroutine-safe buffer for capturing user-controller output
// in tests.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newTestVM boots a VM on a simple n-cluster configuration and registers a
// cleanup that shuts it down.
func newTestVM(t testing.TB, cfg *config.Configuration, opts Options) *VM {
	t.Helper()
	if opts.AcceptTimeout == 0 {
		opts.AcceptTimeout = 3 * time.Second
	}
	vm, err := NewVM(cfg, opts)
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	t.Cleanup(vm.Shutdown)
	return vm
}

func TestBootControllers(t *testing.T) {
	vm := newTestVM(t, config.Simple(3, 2), Options{})

	tasks := vm.RunningTasks()
	var taskCtrls, userCtrls, fileCtrls int
	for _, ti := range tasks {
		if !ti.Controller {
			t.Errorf("unexpected non-controller task at boot: %+v", ti)
		}
		switch ti.TaskType {
		case TaskControllerType:
			taskCtrls++
		case UserControllerType:
			userCtrls++
		case FileControllerType:
			fileCtrls++
		}
	}
	if taskCtrls != 3 {
		t.Errorf("task controllers = %d, want 3 (one per cluster)", taskCtrls)
	}
	if userCtrls != 1 || fileCtrls != 1 {
		t.Errorf("user controllers = %d, file controllers = %d, want 1 each", userCtrls, fileCtrls)
	}
	if vm.userCtrl.IsNil() || vm.fileCtrl.IsNil() {
		t.Error("controller ids not recorded")
	}

	// Controllers occupy reserved slots: user slots remain fully free.
	for _, ci := range vm.Clusters() {
		if ci.FreeSlots != 2 {
			t.Errorf("cluster %d free user slots = %d, want 2", ci.Number, ci.FreeSlots)
		}
	}
}

func TestBootRejectsInvalidConfiguration(t *testing.T) {
	bad := config.Simple(2, 2)
	bad.Clusters[0].PrimaryPE = 1 // Unix PE
	if _, err := NewVM(bad, Options{}); err == nil {
		t.Fatal("expected boot to fail for an invalid configuration")
	}
}

func TestRunSimpleTask(t *testing.T) {
	var out syncBuffer
	vm := newTestVM(t, config.Simple(2, 2), Options{UserOutput: &out})
	ran := make(chan TaskID, 1)
	vm.Register("hello", func(t *Task) {
		ran <- t.ID()
		t.Printf("hello from %s in cluster %d\n", t.ID(), t.Cluster())
	})

	id, err := vm.Run("hello", OnCluster(2))
	if err != nil {
		t.Fatal(err)
	}
	got := <-ran
	if got != id {
		t.Fatalf("task saw id %s, Run returned %s", got, id)
	}
	if id.Cluster != 2 {
		t.Fatalf("task placed on cluster %d, want 2", id.Cluster)
	}
	// The message to USER is delivered asynchronously; wait briefly.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !strings.Contains(out.String(), "hello from") {
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "hello from") {
		t.Fatalf("user output missing task print: %q", out.String())
	}
	st := vm.Stats()
	if st.TasksInitiated != 1 || st.TasksCompleted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRunUnknownTaskType(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 1), Options{})
	if _, err := vm.Run("nope", Any()); err == nil {
		t.Fatal("expected unknown tasktype error")
	}
}

func TestPlacementKinds(t *testing.T) {
	vm := newTestVM(t, config.Simple(3, 2), Options{})
	clusterSeen := make(chan int, 8)
	vm.Register("where", func(t *Task) { clusterSeen <- t.Cluster() })

	// CLUSTER <n>
	if _, err := vm.Run("where", OnCluster(3)); err != nil {
		t.Fatal(err)
	}
	if got := <-clusterSeen; got != 3 {
		t.Fatalf("OnCluster(3) placed on %d", got)
	}
	// ANY goes somewhere valid.
	if _, err := vm.Run("where", Any()); err != nil {
		t.Fatal(err)
	}
	if got := <-clusterSeen; got < 1 || got > 3 {
		t.Fatalf("Any() placed on %d", got)
	}
	// Unknown cluster is rejected.
	if _, err := vm.Run("where", OnCluster(9)); err == nil {
		t.Fatal("expected error for unknown cluster")
	}
	if p := OnCluster(4).String(); p != "CLUSTER 4" {
		t.Fatalf("Placement.String = %q", p)
	}
	if Any().String() != "ANY" || Other().String() != "OTHER" || Same().String() != "SAME" {
		t.Fatal("placement names wrong")
	}
}

func TestTaskInitiatesChildren(t *testing.T) {
	vm := newTestVM(t, config.Simple(3, 3), Options{})

	childClusters := make(chan int, 16)
	vm.Register("child", func(t *Task) {
		childClusters <- t.Cluster()
		// Report back to the parent so it learns our taskid (the idiomatic
		// PISCES pattern).
		if err := t.SendParent("done", Int(int64(t.Cluster()))); err != nil {
			t.Printf("child send failed: %v\n", err)
		}
	})
	vm.Register("parent", func(t *Task) {
		// SAME placement.
		if err := t.Initiate(Same(), "child"); err != nil {
			panic(err)
		}
		// OTHER placement.
		if err := t.Initiate(Other(), "child"); err != nil {
			panic(err)
		}
		// Specific cluster, with the convenience wait form.
		id, err := t.InitiateWait(OnCluster(3), "child")
		if err != nil {
			panic(err)
		}
		if id.Cluster != 3 {
			panic("InitiateWait placed child on wrong cluster")
		}
		res, err := t.AcceptN(3, "done")
		if err != nil {
			panic(err)
		}
		if res.Count("done") != 3 {
			panic("parent did not hear from all three children")
		}
	})

	id, err := vm.Run("parent", OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
	close(childClusters)
	var same, other bool
	for c := range childClusters {
		if c == id.Cluster {
			same = true
		} else {
			other = true
		}
	}
	if !same || !other {
		t.Fatal("SAME and OTHER placements did not both occur")
	}
	st := vm.Stats()
	if st.TasksInitiated != 4 || st.TasksCompleted != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOtherPlacementNeedsTwoClusters(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 2), Options{})
	errCh := make(chan error, 1)
	vm.Register("lonely", func(t *Task) {
		errCh <- t.Initiate(Other(), "lonely")
	})
	if _, err := vm.Run("lonely", OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("OTHER placement with a single cluster should fail")
	}
}

func TestSlotLimitHoldsInitiateRequests(t *testing.T) {
	// One cluster with a single user slot: the second initiate request must
	// wait until the first task terminates ("If no slots are available in the
	// cluster, the task controller will hold the initiate request until
	// another task terminates").
	vm := newTestVM(t, config.Simple(1, 1), Options{})
	started := make(chan string, 4)
	vm.Register("first", func(t *Task) {
		started <- "first"
		// Block in an ACCEPT that only ends when the test sends "release".
		if _, err := t.Accept(AcceptSpec{Total: 1, Types: []TypeCount{{Type: "release"}}, Delay: Forever}); err != nil {
			panic(err)
		}
	})
	vm.Register("second", func(t *Task) {
		started <- "second"
	})

	firstID, err := vm.Initiate("first", OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Request the second task: no slot is free, so it must be held pending.
	done := make(chan TaskID, 1)
	go func() {
		id, err := vm.Initiate("second", OnCluster(1))
		if err != nil {
			t.Errorf("second initiate failed: %v", err)
		}
		done <- id
	}()

	// Give the controller a moment; the second task must NOT have started.
	time.Sleep(100 * time.Millisecond)
	select {
	case s := <-started:
		t.Fatalf("task %q started while no slot was free", s)
	default:
	}
	cls := vm.Clusters()
	if cls[0].Pending != 1 {
		t.Fatalf("pending requests = %d, want 1", cls[0].Pending)
	}

	if err := vm.SendFromUser(firstID, "release"); err != nil {
		t.Fatal(err)
	}
	if err := vm.WaitTask(firstID); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-started:
		if s != "second" {
			t.Fatalf("unexpected start %q", s)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("held initiate request never started after the slot freed")
	}
	<-done
	vm.WaitIdle()
}

func TestKillTask(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 2), Options{})
	entered := make(chan TaskID, 1)
	finishedNormally := make(chan bool, 1)
	vm.Register("victim", func(t *Task) {
		entered <- t.ID()
		// Wait for a message that never comes; the kill must interrupt it.
		_, err := t.Accept(AcceptSpec{Total: 1, Types: []TypeCount{{Type: "never"}}, Delay: Forever})
		finishedNormally <- (err == nil)
	})
	id, err := vm.Initiate("victim", OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := vm.Kill(id); err != nil {
		t.Fatal(err)
	}
	if err := vm.WaitTask(id); err != nil {
		t.Fatal(err)
	}
	select {
	case <-finishedNormally:
		t.Fatal("killed task ran to completion")
	default:
	}
	// Killing an unknown task and a controller both fail.
	if err := vm.Kill(TaskID{Cluster: 9, Slot: 9, Unique: 9}); err == nil {
		t.Fatal("killing unknown task should fail")
	}
	ctrl := vm.RunningTasks()[0]
	if !ctrl.Controller {
		t.Fatalf("expected a controller first, got %+v", ctrl)
	}
	if err := vm.Kill(ctrl.ID); err == nil {
		t.Fatal("killing a controller should fail")
	}
}

func TestTimeLimitKillsTasks(t *testing.T) {
	cfg := config.Simple(1, 2)
	cfg.TimeLimit = 150 * time.Millisecond
	vm := newTestVM(t, cfg, Options{})
	vm.Register("runaway", func(t *Task) {
		_, _ = t.Accept(AcceptSpec{Total: 1, Types: []TypeCount{{Type: "never"}}, Delay: Forever})
	})
	id, err := vm.Initiate("runaway", OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { vm.WaitTask(id); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("time limit did not terminate the runaway task")
	}
}

func TestShutdownStopsEverything(t *testing.T) {
	vm, err := NewVM(config.Simple(2, 2), Options{AcceptTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	vm.Register("sleeper", func(t *Task) {
		_, _ = t.Accept(AcceptSpec{Total: 1, Types: []TypeCount{{Type: "never"}}, Delay: Forever})
	})
	if _, err := vm.Initiate("sleeper", Any()); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	if got := len(vm.RunningTasks()); got != 0 {
		t.Fatalf("%d tasks still registered after shutdown", got)
	}
	if _, err := vm.Initiate("sleeper", Any()); err == nil {
		t.Fatal("initiate after shutdown should fail")
	}
	// Shutdown must be idempotent.
	vm.Shutdown()
	// System tables must have been released.
	if u := vm.Machine().Shared().Usage(); u.TableUsed != 0 {
		t.Fatalf("system tables not released: %d bytes", u.TableUsed)
	}
	// Every live kernel process is bound to a PE until it exits.
	for _, pl := range vm.PELoading() {
		if pl.BoundProcs != 0 {
			t.Fatalf("%d kernel processes still bound to PE %d after shutdown", pl.BoundProcs, pl.PE)
		}
	}
}

func TestViewsAndFigure1(t *testing.T) {
	vm := newTestVM(t, config.Section9Example(), Options{})
	vm.Register("worker", func(t *Task) {
		_, _ = t.Accept(AcceptSpec{Total: 1, Types: []TypeCount{{Type: "go"}}, Delay: 500 * time.Millisecond})
	})
	id, err := vm.Initiate("worker", OnCluster(3))
	if err != nil {
		t.Fatal(err)
	}

	var fig bytes.Buffer
	vm.RenderFigure1(&fig)
	figStr := fig.String()
	for _, want := range []string{
		"PISCES 2 VIRTUAL MACHINE ORGANIZATION",
		"CLUSTER 1 (primary PE 3)",
		"CLUSTER 4 (primary PE 6)",
		"Task controller",
		"User controller",
		"<not in use>",
		"Message-passing network",
	} {
		if !strings.Contains(figStr, want) {
			t.Errorf("figure 1 rendering missing %q", want)
		}
	}

	var dump bytes.Buffer
	vm.DumpState(&dump)
	dumpStr := dump.String()
	for _, want := range []string{"system state dump", "clusters:", "running tasks:", "PE loading:", "shared memory:", "worker"} {
		if !strings.Contains(dumpStr, want) {
			t.Errorf("state dump missing %q", want)
		}
	}

	loads := vm.PELoading()
	if len(loads) != 20 {
		t.Fatalf("PE loading rows = %d, want 20", len(loads))
	}
	if !loads[0].Unix || loads[2].Unix {
		t.Error("Unix flags wrong in PE loading")
	}
	if loads[6].MaxMultiprog != 8 {
		t.Errorf("PE 7 max multiprogramming = %d, want 8", loads[6].MaxMultiprog)
	}

	if err := vm.WaitTask(id); err != nil {
		t.Fatal(err)
	}
}

func TestSystemStorageMatchesSection13(t *testing.T) {
	vm := newTestVM(t, config.Section9Example(), Options{})
	s := vm.SystemStorage()
	if s.LocalPercent >= 2.5 {
		t.Errorf("system local memory share = %.2f%%, paper reports < 2.5%%", s.LocalPercent)
	}
	if s.TablePercent >= 0.3 {
		t.Errorf("system table share = %.3f%%, paper reports < 0.3%%", s.TablePercent)
	}
	if s.TableBytes <= 0 {
		t.Error("table bytes not accounted")
	}
	// The used PEs really carry the local-memory charge.
	for _, pe := range vm.Configuration().UsedPEs() {
		used, _, _ := vm.Machine().PE(pe).LocalStats()
		if used < s.SystemLocalBytesPerPE {
			t.Errorf("PE %d local used = %d, want >= %d", pe, used, s.SystemLocalBytesPerPE)
		}
	}
}

func TestTraceEventsFromConfiguration(t *testing.T) {
	sink := &trace.MemorySink{}
	cfg := config.Simple(1, 2)
	cfg.TraceEvents = []string{"TASK-INIT", "TASK-TERM", "MSG-SEND", "MSG-ACCEPT"}
	vm := newTestVM(t, cfg, Options{TraceSinks: []trace.Sink{sink}})
	vm.Register("traced", func(t *Task) {
		_ = t.SendSelf("note", Int(1))
		_, _ = t.AcceptOne("note")
	})
	if _, err := vm.Run("traced", OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	a := trace.Analyze(sink.Events())
	if a.CountByKind[trace.TaskInit] == 0 || a.CountByKind[trace.TaskTerm] == 0 {
		t.Errorf("task lifecycle events missing: %+v", a.CountByKind)
	}
	if a.MessagesSent == 0 || a.MessagesAccepted == 0 {
		t.Errorf("message events missing: %+v", a.CountByKind)
	}
	if a.CountByKind[trace.Lock] != 0 {
		t.Error("lock events should not appear; they were not enabled")
	}
}

func TestSendFromUserAndQueueViews(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 2), Options{})
	entered := make(chan TaskID, 1)
	proceed := make(chan struct{})
	got := make(chan int64, 1)
	vm.Register("receiver", func(t *Task) {
		entered <- t.ID()
		<-proceed
		m, err := t.AcceptOne("poke")
		if err != nil {
			panic(err)
		}
		v, _ := AsInt(m.Arg(0))
		got <- v
	})
	id, err := vm.Initiate("receiver", OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := vm.SendFromUser(id, "poke", Int(42)); err != nil {
		t.Fatal(err)
	}
	if err := vm.SendFromUser(id, "stale", Int(1)); err != nil {
		t.Fatal(err)
	}

	q, err := vm.MessageQueue(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 2 || q[0].Type != "poke" || q[1].Type != "stale" {
		t.Fatalf("queue view = %+v", q)
	}
	if q[0].Sender != vm.userCtrl {
		t.Fatalf("queued sender = %s, want user controller", q[0].Sender)
	}
	if n, err := vm.DeleteMessages(id, "stale"); err != nil || n != 1 {
		t.Fatalf("DeleteMessages = %d, %v", n, err)
	}
	close(proceed)
	if v := <-got; v != 42 {
		t.Fatalf("receiver got %d, want 42", v)
	}
	vm.WaitIdle()
	if _, err := vm.MessageQueue(TaskID{Cluster: 5}); err == nil {
		t.Fatal("MessageQueue of unknown task should fail")
	}
	if _, err := vm.DeleteMessages(TaskID{Cluster: 5}, ""); err == nil {
		t.Fatal("DeleteMessages of unknown task should fail")
	}
}
