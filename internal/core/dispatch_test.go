package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/flex"
	"repro/internal/memory"
	"repro/internal/obs"
)

// The send head's contract, over every way in: a message enters the run-time
// through one of six calls, leaves its sender by one of three routes, and may
// find its receiver in one of five states.
// TestRouteAfterShutdownAndCorruptFrameBalance samples this table;
// TestSendHeadContract is the cross-product.

// headEntry is one way into VM.dispatch.
type headEntry struct {
	name string
	init bool // an initiate request (receiver: a task controller), else a message
	wait bool // the caller waits for the initiate reply
	env  bool // issued by the execution environment, not a task
	call func(vm *VM, task *Task, dest TaskID) (TaskID, error)
}

var headEntries = []headEntry{
	{name: "Task.Send", call: func(_ *VM, task *Task, dest TaskID) (TaskID, error) {
		return NilTask, task.Send(dest, "ping", Int(1))
	}},
	{name: "Task.Initiate", init: true, call: func(_ *VM, task *Task, dest TaskID) (TaskID, error) {
		return NilTask, task.Initiate(OnCluster(dest.Cluster), "leaf")
	}},
	{name: "Task.InitiateWait", init: true, wait: true, call: func(_ *VM, task *Task, dest TaskID) (TaskID, error) {
		return task.InitiateWait(OnCluster(dest.Cluster), "leaf")
	}},
	{name: "VM.Initiate", init: true, wait: true, env: true, call: func(vm *VM, _ *Task, dest TaskID) (TaskID, error) {
		return vm.Initiate("leaf", OnCluster(dest.Cluster))
	}},
	{name: "VM.SendFromUser", env: true, call: func(vm *VM, _ *Task, dest TaskID) (TaskID, error) {
		return NilTask, vm.SendFromUser(dest, "ping", Int(1))
	}},
	// The sink is the only other user task, so the broadcast is one copy.
	{name: "broadcast copy", call: func(_ *VM, task *Task, dest TaskID) (TaskID, error) {
		return NilTask, task.BroadcastCluster(dest.Cluster, "ping", Int(1))
	}},
}

type headRoute int

const (
	routeSame  headRoute = iota // receiver on the caller's cluster
	routeCross                  // receiver on another cluster of this VM
	routeStub                   // receiver's cluster hosted elsewhere
)

var headRoutes = [...]string{routeSame: "same cluster", routeCross: "cross-cluster", routeStub: "remote stub"}

type headCond int

const (
	condRunning    headCond = iota
	condGone                // not in the task table
	condClosed              // terminated between the sender's lookup and the enqueue
	condExhausted           // the destination shard cannot hold one more header
	condSenderFull          // the sender's shard cannot hold the outbound copy
	condShutdown            // the VM has shut down
	condOneCopy             // the tenant budget holds one copy of the message, not two
)

var headConds = [...]string{condRunning: "receiver running", condGone: "receiver gone", condClosed: "queue closed mid-send", condExhausted: "shard exhausted", condSenderFull: "sender's shard exhausted", condShutdown: "after Shutdown", condOneCopy: "budget for one copy"}

// stubTransport stands in for the node hosting cluster 2: it keeps the frames
// it is handed and answers a routed initiate at once — with a made-up taskid,
// or with NilTask when told to behave like a node that could not deliver.
type stubTransport struct {
	mu     sync.Mutex
	vm     *VM
	refuse bool
	frames []WireFrame
}

func (s *stubTransport) Send(f *WireFrame) error {
	s.mu.Lock()
	g := *f
	g.Payload = nil // borrowed
	s.frames = append(s.frames, g)
	vm, refuse := s.vm, s.refuse
	s.mu.Unlock()
	if f.ReplyID != 0 {
		id := TaskID{Cluster: f.Dst, Slot: 2, Unique: 77}
		if refuse {
			id = NilTask
		}
		vm.DeliverWireReply(f.ReplyID, id)
	}
	return nil
}
func (s *stubTransport) SendReply(int, uint64, TaskID) error { return nil }
func (s *stubTransport) Flush()                              {}
func (s *stubTransport) Close() error                        { return nil }

// wantHeadErr is the contract: the error identity a caller sees.  A route
// that defers delivery (a remote node) cannot fail the sender
// for what the receiving side finds — the send has happened; a caller waiting
// on the initiate reply then hears NilTask, which it reports as
// ErrVMTerminated.  The in-process cross-cluster route charges the
// destination shard inside the send, so only a receiver that terminates
// inside the send escapes its sender there.  Every route out of another
// cluster asks the sender's shard for the outbound copy first, and fails
// when it cannot hold it — but a broadcast frame to another node is not
// staged there.  No route holds two copies at once, so a tenant budget with
// room for one lets every send through.
func wantHeadErr(e headEntry, r headRoute, c headCond) error {
	direct := r == routeSame || r == routeCross && e.env
	deferred := error(nil)
	if e.wait {
		deferred = ErrVMTerminated
	}
	switch c {
	case condGone:
		if r == routeStub {
			return deferred
		}
		if e.name == "broadcast copy" {
			return nil // a broadcast is for whoever is running
		}
		return ErrNoSuchTask
	case condClosed:
		if direct {
			return ErrNoSuchTask
		}
		return deferred
	case condExhausted:
		if direct || r == routeCross {
			return ErrHeapExhausted
		}
		return deferred
	case condSenderFull:
		if r == routeStub && e.name == "broadcast copy" {
			return nil
		}
		return ErrHeapExhausted
	case condShutdown:
		return ErrVMTerminated
	}
	return nil // condRunning, condOneCopy
}

// exhaust fills a heap shard until not even a message header fits and
// returns the undo.
func exhaust(h *memory.Allocator) func() {
	var charges []int
	for n := h.Size(); n >= 8; {
		if c, err := h.Alloc(n); err == nil {
			charges = append(charges, c)
		} else {
			n /= 2
		}
	}
	return func() {
		for _, c := range charges {
			_ = h.Free(c)
		}
	}
}

func TestSendHeadContract(t *testing.T) {
	for _, e := range headEntries {
		for r, rname := range headRoutes {
			for c, cname := range headConds {
				if headCond(c) == condShutdown && !e.env {
					continue // Shutdown kills every user task: none is left to send
				}
				if headCond(c) == condSenderFull && (e.env || headRoute(r) == routeSame) {
					continue // no shard of its own, or the destination's
				}
				e, r, c := e, headRoute(r), headCond(c)
				t.Run(fmt.Sprintf("%s/%s/%s", e.name, rname, cname), func(t *testing.T) { runHeadCell(t, e, r, c) })
			}
		}
	}
}

func runHeadCell(t *testing.T, e headEntry, r headRoute, c headCond) {
	reg := obs.New()
	reg.Enable(obs.Metrics)
	var out bytes.Buffer
	opts := Options{AcceptTimeout: 30 * time.Second, Metrics: reg, UserOutput: &out}
	var stub *stubTransport
	if r == routeStub {
		stub = &stubTransport{refuse: c != condRunning && c != condOneCopy}
		opts.Remote, opts.Hosted = stub, []int{1}
	}
	if c == condOneCopy {
		opts.Limits.HeapBytes = 32 << 10
	}
	vm, err := NewVM(config.Simple(2, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	shutdown := sync.OnceFunc(vm.Shutdown)
	defer shutdown()
	if stub != nil {
		stub.vm = vm
	}

	destCluster := 2
	if r == routeSame {
		destCluster = 1
	}
	var leafRan atomic.Int32
	vm.Register("leaf", func(*Task) { leafRan.Add(1) })
	vm.Register("sink", func(task *Task) { _, _ = task.AcceptOne("stop") })

	// The receiver: a parked user task for a message, the destination's task
	// controller for an initiate request.  On the stub route it lives on the
	// other node and all this VM has of it is a taskid.
	dest := TaskID{Cluster: destCluster, Slot: 1, Unique: 99}
	var rec *taskRec
	if r != routeStub {
		if e.init {
			cl, _ := vm.cluster(destCluster)
			dest = cl.controllerID
		} else if dest, err = vm.Initiate("sink", OnCluster(destCluster)); err != nil {
			t.Fatal(err)
		}
		rec, _ = vm.lookupTask(dest)
	}

	// The caller: a task on cluster 1 that waits, off its PE, until the
	// receiver is in the state under test.
	type result struct {
		id  TaskID
		err error
	}
	armed, done := make(chan struct{}), make(chan result, 1)
	if !e.env {
		vm.Register("caller", func(task *Task) {
			task.blockFn(func() { <-armed })
			id, err := e.call(vm, task, dest)
			done <- result{id, err}
		})
		if _, err := vm.Initiate("caller", OnCluster(1)); err != nil {
			t.Fatal(err)
		}
	}

	undo := func() {}
	sender, _ := vm.cluster(1)
	if c == condSenderFull {
		undo = exhaust(sender.heap)
	}
	if c == condOneCopy {
		undo = fillBudgetToOneCopy(t, vm, sender.heap, e)
	}
	failures := sender.heap.Stats().Failures
	if rec != nil {
		switch c {
		case condGone:
			vm.unregisterTask(rec.id)
			undo = func() { vm.registerTask(rec) }
		case condClosed:
			setClosed := func(v bool) {
				rec.queue.mu.Lock()
				rec.queue.closed = v
				rec.queue.mu.Unlock()
			}
			setClosed(true)
			undo = func() { setClosed(false) }
		case condExhausted:
			undo = exhaust(rec.cluster.heap)
		}
	}
	if c == condShutdown {
		shutdown()
	}

	var got result
	if e.env {
		got.id, got.err = e.call(vm, nil, dest)
	} else {
		close(armed)
		select {
		case got = <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("the caller never returned")
		}
	}
	want := wantHeadErr(e, r, c)
	if want == nil && got.err != nil || want != nil && !errors.Is(got.err, want) {
		t.Errorf("err = %v, want %v", got.err, want)
	}
	if c == condSenderFull {
		refused := uint64(0)
		if want != nil {
			refused = 1
		}
		if n := sender.heap.Stats().Failures - failures; n != refused {
			t.Errorf("the sender's shard counted %d failures, want %d", n, refused)
		}
	}
	if e.wait && want == nil && (got.id.IsNil() || got.id.Cluster != destCluster) {
		t.Errorf("the initiator was answered %s, want a task on cluster %d", got.id, destCluster)
	}
	if c == condExhausted && r == routeCross && e.init && !e.env {
		// The refusal is the delivery's: it fails the initiate's reply, once,
		// and the sender hears ErrHeapExhausted.
		var answers []TaskID
		reply := &initReply{fn: func(id TaskID) { answers = append(answers, id) }}
		_, _, err := vm.dispatch(sender, dest, msgInitRequest, vm.userCtrl, initRequestArgs("leaf", vm.userCtrl, nil), 0, reply)
		if !errors.Is(err, ErrHeapExhausted) || len(answers) != 1 || !answers[0].IsNil() {
			t.Errorf("a refused routed initiate: err %v, reply answered %v; want ErrHeapExhausted and one NilTask", err, answers)
		}
	}

	// Delivered exactly when the contract says the receiver took it.
	queued, sink := 0, rec != nil && !e.init && c != condShutdown
	if sink {
		queued = rec.queue.len()
	}
	undo()
	if sink {
		if err := vm.Kill(dest); err != nil {
			t.Fatal(err)
		}
	}
	idle := make(chan struct{})
	go func() { vm.WaitIdle(); close(idle) }()
	select {
	case <-idle:
	case <-time.After(20 * time.Second):
		t.Fatal("WaitIdle never returned: a hold was left outstanding")
	}
	delivered := 0
	if c == condRunning || c == condOneCopy {
		delivered = 1
	}
	switch {
	case r == routeStub:
		// Handed to the transport whatever the far side will make of it.
		handed := 1
		if c == condShutdown || c == condSenderFull && want != nil {
			handed = 0
		}
		if len(stub.frames) != handed {
			t.Errorf("the transport was handed %d frames, want %d", len(stub.frames), handed)
		}
	case e.init:
		if n := int(leafRan.Load()); n != delivered {
			t.Errorf("the initiated task ran %d times, want %d", n, delivered)
		}
	default:
		if queued != delivered {
			t.Errorf("%d messages reached the receiver's in-queue, want %d", queued, delivered)
		}
	}
	vm.pendMu.Lock()
	pending := len(vm.pendingReplies)
	vm.pendMu.Unlock()
	if pending != 0 {
		t.Errorf("%d initiate replies still pending", pending)
	}

	shutdown()
	for i, shard := range vm.Machine().Shared().HeapShards() {
		if in := shard.InUse(); in != 0 {
			t.Errorf("heap shard %d holds %d bytes after shutdown", i, in)
		}
	}
	if used := vm.heapBudget.Used(); used != 0 {
		t.Errorf("the tenant budget holds %d bytes after shutdown", used)
	}
	counters := make(map[string]int64)
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if c, r := counters["core.heap.charge"], counters["core.heap.recover"]; c != r {
		t.Errorf("core.heap.charge = %d, core.heap.recover = %d; want equal", c, r)
	}
}

// fillBudgetToOneCopy charges one filler to shard so that the tenant
// budget has room for one copy of the message entry e sends, and not for two,
// and returns the undo.
func fillBudgetToOneCopy(t *testing.T, vm *VM, shard *memory.Allocator, e headEntry) func() {
	t.Helper()
	args := []Value{Int(1)}
	if e.init {
		args = initRequestArgs("leaf", vm.userCtrl, nil)
	}
	size, err := encodedSize(args)
	if err != nil {
		t.Fatal(err)
	}
	const header = 8 // memory's per-charge header
	copyBytes := int64(size + header)
	filler := vm.heapBudget.Max() - vm.heapBudget.Used() - copyBytes - header
	c, err := shard.Alloc(int(filler))
	if err != nil {
		t.Fatal(err)
	}
	if room := vm.heapBudget.Max() - vm.heapBudget.Used(); room < copyBytes || room >= 2*copyBytes {
		t.Fatalf("the budget has room for %d bytes; one copy takes %d", room, copyBytes)
	}
	return func() { _ = shard.Free(c) }
}

// TestTrailingInitiate: a task whose last statement is a fire-and-forget
// INITIATE leaves a child behind, not an idle machine.  WaitIdle used to
// count a task from the moment its controller started it, so between the
// parent's exit and the controller's ACCEPT the VM read idle — a true race
// on this backend, hence the repeats (and -race -count=20 in CI).
func TestTrailingInitiate(t *testing.T) {
	for i := 0; i < 50; i++ {
		vm, err := NewVM(config.Simple(2, 4), Options{AcceptTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		var ran atomic.Int32
		vm.Register("leaf", func(*Task) { ran.Add(1) })
		vm.Register("child", func(task *Task) {
			ran.Add(1)
			if err := task.Initiate(Same(), "leaf"); err != nil {
				t.Errorf("child: %v", err)
			}
		})
		vm.Register("main", func(task *Task) {
			if err := task.Initiate(Other(), "child"); err != nil {
				t.Errorf("main: %v", err)
			}
		})
		if _, err := vm.Run("main", OnCluster(1)); err != nil {
			t.Fatal(err)
		}
		vm.WaitIdle()
		n := ran.Load()
		vm.Shutdown()
		if n != 2 {
			t.Fatalf("round %d: WaitIdle returned with %d of 2 descendants run", i, n)
		}
	}
}

// TestShutdownRefusesParkedInitiates: requests waiting for a slot hold the
// user-task count like running tasks do, and at Shutdown there may be more of
// them than exiting tasks to pick them up one by one — the first refusal
// refuses them all, or Shutdown would wait on them for ever.
func TestShutdownRefusesParkedInitiates(t *testing.T) {
	vm, err := NewVM(config.Simple(2, 1), Options{AcceptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	vm.Register("sleeper", func(task *Task) { _, _ = task.AcceptOne("never") })
	vm.Register("spawner", func(task *Task) {
		for i := 0; i < 4; i++ {
			if err := task.Initiate(OnCluster(2), "sleeper"); err != nil {
				t.Errorf("initiate %d: %v", i, err)
			}
		}
	})
	if _, err := vm.Run("spawner", OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	cl, _ := vm.cluster(2)
	for deadline := time.Now().Add(10 * time.Second); cl.pendingCount() != 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests parked on the one-slot cluster, want 3", cl.pendingCount())
		}
	}
	stopped := make(chan struct{})
	go func() { vm.Shutdown(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(20 * time.Second):
		t.Fatal("Shutdown is waiting on initiate requests that will never get a slot")
	}
}

// BenchmarkCrossClusterArraySend is a ping-pong of one REAL array from a task
// on cluster 1 to one on cluster 2 and a one-integer ack back, at array sizes
// either side of the pooled frame's 8 KiB payload buffer: a larger list is
// encoded into a one-off buffer of its own.
func BenchmarkCrossClusterArraySend(b *testing.B) {
	for _, reals := range []int{256, 8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKiB", reals*8>>10), func(b *testing.B) {
			machineCfg := flex.DefaultConfig()
			machineCfg.SharedBytes = 8 << 20 // room for the array on both shards
			vm, err := NewVMOn(flex.MustNewMachine(machineCfg), config.Simple(2, 2), Options{AcceptTimeout: 30 * time.Second})
			if err != nil {
				b.Fatal(err)
			}
			defer vm.Shutdown()
			vm.Register("sink", func(task *Task) {
				for {
					m, err := task.AcceptOne("bulk")
					if err != nil || len(m.Args) == 0 {
						return
					}
					if err := task.SendSender("ack", Int(0)); err != nil {
						return
					}
				}
			})
			done := make(chan struct{})
			vm.Register("source", func(task *Task) {
				defer close(done)
				to, array := MustID(task.Arg(0)), Reals(make([]float64, reals))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := task.Send(to, "bulk", array); err != nil {
						b.Error(err)
						return
					}
					if _, err := task.AcceptOne("ack"); err != nil {
						b.Error(err)
						return
					}
				}
				b.StopTimer()
				_ = task.Send(to, "bulk")
			})
			sink, err := vm.Initiate("sink", OnCluster(2))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := vm.Initiate("source", OnCluster(1), ID(sink)); err != nil {
				b.Fatal(err)
			}
			<-done
		})
	}
}
