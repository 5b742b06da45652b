package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/config"
)

// runTaskBody runs body as a single top-level task on a small VM and waits
// for it; body failures propagate as test failures through the errs channel.
func runTaskBody(t *testing.T, body func(*Task) error) {
	t.Helper()
	vm := newTestVM(t, config.Simple(2, 4), Options{})
	runTaskBodyOn(t, vm, body)
}

func runTaskBodyOn(t *testing.T, vm *VM, body func(*Task) error) {
	t.Helper()
	errs := make(chan error, 1)
	vm.Register("test-body", func(task *Task) { errs <- body(task) })
	if _, err := vm.Run("test-body", OnCluster(1)); err != nil {
		t.Fatalf("running test body: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func TestAcceptSignalAndSenderTracking(t *testing.T) {
	runTaskBody(t, func(task *Task) error {
		task.Signal("ping")
		if err := task.SendSelf("ping", Int(7), Str("x")); err != nil {
			return err
		}
		m, err := task.AcceptOne("ping")
		if err != nil {
			return err
		}
		if m.Type != "ping" || m.NumArgs() != 2 {
			t.Errorf("message = %+v", m)
		}
		if v := MustInt(m.Arg(0)); v != 7 {
			t.Errorf("arg 0 = %d", v)
		}
		if task.Sender() != task.ID() {
			t.Errorf("SENDER = %s, want self %s", task.Sender(), task.ID())
		}
		// Out-of-range arg is the zero Value.
		if m.Arg(5).Kind != 0 || m.Arg(-1).Kind != 0 {
			t.Error("out-of-range Arg should be zero Value")
		}
		return nil
	})
}

// TestDeclarationsLastOneWins: a message type's HANDLER or SIGNAL
// declaration is the task's last one for that type, however often it is
// re-declared, and a type the task never declared is accepted as a signal.
func TestDeclarationsLastOneWins(t *testing.T) {
	runTaskBody(t, func(task *Task) error {
		var ran []string
		handler := func(name string) Handler {
			return func(*Task, *Message) { ran = append(ran, name) }
		}
		accept := func(step, want string) error {
			ran = ran[:0]
			if err := task.SendSelf("T", Int(1)); err != nil {
				return err
			}
			if _, err := task.AcceptOne("T"); err != nil {
				return err
			}
			got := "signal"
			if len(ran) > 0 {
				got = strings.Join(ran, ",")
			}
			if got != want {
				t.Errorf("%s: T was accepted by %s, want %s", step, got, want)
			}
			return nil
		}
		steps := []struct {
			step    string
			declare func()
			want    string
		}{
			{"undeclared", func() {}, "signal"},
			{"SIGNAL", func() { task.Signal("T") }, "signal"},
			{"SIGNAL then HANDLER h1", func() { task.OnMessage("T", handler("h1")) }, "h1"},
			{"HANDLER h1 then SIGNAL", func() { task.Signal("T") }, "signal"},
			{"SIGNAL then HANDLER h2", func() { task.OnMessage("T", handler("h2")) }, "h2"},
			{"HANDLER h2 then HANDLER h3", func() { task.OnMessage("T", handler("h3")) }, "h3"},
		}
		for _, s := range steps {
			s.declare()
			if err := accept(s.step, s.want); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestAcceptHandlersReceiveArguments(t *testing.T) {
	runTaskBody(t, func(task *Task) error {
		var handled []int64
		task.OnMessage("work", func(tk *Task, m *Message) {
			handled = append(handled, MustInt(m.Arg(0)))
		})
		for i := int64(1); i <= 3; i++ {
			if err := task.SendSelf("work", Int(i)); err != nil {
				return err
			}
		}
		res, err := task.AcceptN(3, "work")
		if err != nil {
			return err
		}
		if res.Count("work") != 3 {
			t.Errorf("accepted %d, want 3", res.Count("work"))
		}
		if len(handled) != 3 || handled[0] != 1 || handled[2] != 3 {
			t.Errorf("handler saw %v", handled)
		}
		return nil
	})
}

func TestAcceptPerTypeCounts(t *testing.T) {
	runTaskBody(t, func(task *Task) error {
		// Queue 2 "a", 3 "b", 1 "c"; accept 2 a and 1 b: the remaining two b
		// and the c must stay queued.
		for i := 0; i < 2; i++ {
			task.SendSelf("a", Int(int64(i)))
		}
		for i := 0; i < 3; i++ {
			task.SendSelf("b", Int(int64(i)))
		}
		task.SendSelf("c")
		res, err := task.Accept(AcceptSpec{Types: []TypeCount{{Type: "a", Count: 2}, {Type: "b", Count: 1}}})
		if err != nil {
			return err
		}
		if res.Count("a") != 2 || res.Count("b") != 1 || res.Count("c") != 0 {
			t.Errorf("counts: a=%d b=%d c=%d", res.Count("a"), res.Count("b"), res.Count("c"))
		}
		if task.QueueLength() != 3 {
			t.Errorf("queue length = %d, want 3", task.QueueLength())
		}
		return nil
	})
}

func TestAcceptTotalAcrossTypes(t *testing.T) {
	runTaskBody(t, func(task *Task) error {
		task.SendSelf("x")
		task.SendSelf("y")
		task.SendSelf("x")
		// ACCEPT 2 OF x, y: exactly two messages total, in arrival order.
		res, err := task.Accept(AcceptSpec{Total: 2, Types: []TypeCount{{Type: "x"}, {Type: "y"}}})
		if err != nil {
			return err
		}
		if len(res.Accepted) != 2 {
			t.Fatalf("accepted %d messages, want 2", len(res.Accepted))
		}
		if res.Accepted[0].Type != "x" || res.Accepted[1].Type != "y" {
			t.Errorf("acceptance order wrong: %s then %s", res.Accepted[0].Type, res.Accepted[1].Type)
		}
		if task.QueueLength() != 1 {
			t.Errorf("queue length = %d, want 1", task.QueueLength())
		}
		return nil
	})
}

func TestAcceptAllDrainsWithoutWaiting(t *testing.T) {
	runTaskBody(t, func(task *Task) error {
		for i := 0; i < 4; i++ {
			task.SendSelf("burst", Int(int64(i)))
		}
		start := time.Now()
		res, err := task.Accept(AcceptSpec{Types: []TypeCount{{Type: "burst", Count: All}}})
		if err != nil {
			return err
		}
		if res.Count("burst") != 4 {
			t.Errorf("ALL accepted %d, want 4", res.Count("burst"))
		}
		if res.TimedOut {
			t.Error("ALL accept should not time out")
		}
		if time.Since(start) > time.Second {
			t.Error("ALL accept waited instead of draining")
		}
		// ALL with nothing queued also returns immediately.
		res, err = task.Accept(AcceptSpec{Types: []TypeCount{{Type: "burst", Count: All}}})
		if err != nil {
			return err
		}
		if res.Count("burst") != 0 || res.TimedOut {
			t.Errorf("empty ALL accept = %+v", res)
		}
		return nil
	})
}

func TestAcceptAnyMessageWildcard(t *testing.T) {
	runTaskBody(t, func(task *Task) error {
		task.SendSelf("alpha", Int(1))
		task.SendSelf("beta", Int(2))
		task.SendSelf("alpha", Int(3))
		// An explicit type takes precedence over the wildcard; the wildcard
		// picks up everything else.
		res, err := task.Accept(AcceptSpec{Types: []TypeCount{
			{Type: "beta", Count: 1},
			{Type: AnyMessage, Count: 2},
		}})
		if err != nil {
			return err
		}
		if res.Count("beta") != 1 || res.Count("alpha") != 2 {
			t.Errorf("wildcard accept counts: beta=%d alpha=%d", res.Count("beta"), res.Count("alpha"))
		}
		if task.QueueLength() != 0 {
			t.Errorf("queue length = %d, want 0", task.QueueLength())
		}
		return nil
	})
}

func TestAcceptDelayTimeout(t *testing.T) {
	runTaskBody(t, func(task *Task) error {
		timedOut := false
		start := time.Now()
		res, err := task.Accept(AcceptSpec{
			Total: 1,
			Types: []TypeCount{{Type: "never"}},
			Delay: 100 * time.Millisecond,
			OnTimeout: func(*Task) {
				timedOut = true
			},
		})
		if err != nil {
			return err
		}
		if !res.TimedOut || !timedOut {
			t.Error("DELAY clause did not fire")
		}
		if elapsed := time.Since(start); elapsed < 80*time.Millisecond || elapsed > 2*time.Second {
			t.Errorf("timeout fired after %v", elapsed)
		}
		return nil
	})
}

func TestAcceptPartialThenTimeout(t *testing.T) {
	runTaskBody(t, func(task *Task) error {
		task.SendSelf("r")
		res, err := task.Accept(AcceptSpec{
			Types: []TypeCount{{Type: "r", Count: 3}},
			Delay: 100 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		if res.Count("r") != 1 || !res.TimedOut {
			t.Errorf("partial accept: count=%d timedOut=%v", res.Count("r"), res.TimedOut)
		}
		return nil
	})
}

func TestAcceptValidation(t *testing.T) {
	runTaskBody(t, func(task *Task) error {
		if _, err := task.Accept(AcceptSpec{}); err == nil {
			t.Error("empty ACCEPT accepted")
		}
		if _, err := task.Accept(AcceptSpec{Types: []TypeCount{{Type: "a"}, {Type: "a"}}}); err == nil {
			t.Error("duplicate type accepted")
		}
		return nil
	})
}

func TestAcceptWaitsForLateMessages(t *testing.T) {
	vm := newTestVM(t, config.Simple(2, 4), Options{})
	recvID := make(chan TaskID, 1)
	sum := make(chan int64, 1)
	vm.Register("receiver", func(task *Task) {
		recvID <- task.ID()
		res, err := task.AcceptN(3, "add")
		if err != nil {
			panic(err)
		}
		var s int64
		for _, m := range res.ByType("add") {
			s += MustInt(m.Arg(0))
		}
		sum <- s
	})
	vm.Register("sender", func(task *Task) {
		to := MustID(task.Arg(0))
		for i := int64(1); i <= 3; i++ {
			task.Charge(50)
			if err := task.Send(to, "add", Int(i)); err != nil {
				panic(err)
			}
		}
	})
	rid, err := vm.Initiate("receiver", OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	to := <-recvID
	if to != rid {
		t.Fatalf("receiver id mismatch")
	}
	if _, err := vm.Initiate("sender", OnCluster(2), ID(rid)); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-sum:
		if s != 6 {
			t.Fatalf("sum = %d, want 6", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver never accepted the three messages")
	}
	vm.WaitIdle()
}

func TestSendErrors(t *testing.T) {
	runTaskBody(t, func(task *Task) error {
		if err := task.Send(TaskID{Cluster: 9, Slot: 9, Unique: 9}, "m"); err == nil {
			t.Error("send to unknown task accepted")
		}
		if err := task.SendSender("m"); err == nil {
			t.Error("SENDER before any accept should be an error")
		}
		if err := task.SendTaskController(99, "m"); err == nil {
			t.Error("TCONTR of unknown cluster accepted")
		}
		if err := task.BroadcastCluster(99, "m"); err == nil {
			t.Error("broadcast to unknown cluster accepted")
		}
		return nil
	})
}

func TestSendToTaskController(t *testing.T) {
	runTaskBody(t, func(task *Task) error {
		// The task controller ignores unknown message types, but the send
		// itself must succeed and be deliverable.
		return task.SendTaskController(task.Cluster(), "status-request")
	})
}

func TestBroadcast(t *testing.T) {
	vm := newTestVM(t, config.Simple(3, 2), Options{})
	const workers = 4
	readyIDs := make(chan TaskID, workers)
	got := make(chan string, workers)
	vm.Register("listener", func(task *Task) {
		readyIDs <- task.ID()
		m, err := task.AcceptOne("announce")
		if err != nil {
			panic(err)
		}
		got <- MustStr(m.Arg(0))
	})
	for i := 0; i < workers; i++ {
		if _, err := vm.Initiate("listener", Any()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < workers; i++ {
		<-readyIDs
	}
	vm.Register("announcer", func(task *Task) {
		if err := task.Broadcast("announce", Str("hello all")); err != nil {
			panic(err)
		}
	})
	// ANY placement: the listeners may have filled some clusters, so let the
	// system pick one with a free slot.
	if _, err := vm.Run("announcer", Any()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		select {
		case s := <-got:
			if s != "hello all" {
				t.Fatalf("listener got %q", s)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d listeners heard the broadcast", i, workers)
		}
	}
	vm.WaitIdle()
}

func TestBroadcastCluster(t *testing.T) {
	vm := newTestVM(t, config.Simple(2, 3), Options{})
	type report struct {
		cluster int
		heard   bool
	}
	reports := make(chan report, 4)
	ready := make(chan struct{}, 4)
	vm.Register("listener", func(task *Task) {
		ready <- struct{}{}
		res, err := task.Accept(AcceptSpec{
			Total: 1,
			Types: []TypeCount{{Type: "targeted"}},
			Delay: 400 * time.Millisecond,
		})
		if err != nil {
			panic(err)
		}
		reports <- report{cluster: task.Cluster(), heard: res.Count("targeted") == 1}
	})
	for _, cl := range []int{1, 1, 2, 2} {
		if _, err := vm.Initiate("listener", OnCluster(cl)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		<-ready
	}
	vm.Register("announcer", func(task *Task) {
		if err := task.BroadcastCluster(2, "targeted"); err != nil {
			panic(err)
		}
	})
	if _, err := vm.Run("announcer", OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
	close(reports)
	for r := range reports {
		want := r.cluster == 2
		if r.heard != want {
			t.Errorf("cluster %d listener heard=%v, want %v", r.cluster, r.heard, want)
		}
	}
}
