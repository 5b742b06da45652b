package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/flex"
	"repro/internal/msgcodec"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestCrossClusterCodecRoundTrip sends every argument kind across a cluster
// boundary and back.  The arguments pass through msgcodec.Encode on the
// sender's shard and Decode on the destination's — twice — so any codec
// asymmetry shows up as a value mismatch here.
func TestCrossClusterCodecRoundTrip(t *testing.T) {
	vm, err := NewVM(config.Simple(2, 2), Options{AcceptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	win := Win(Window{Owner: TaskID{Cluster: 1, Slot: 3, Unique: 9}, ArrayID: 4})
	sent := []Value{
		Int(-42),
		Real(3.25),
		Bool(true),
		Str("across the wire"),
		ID(TaskID{Cluster: 2, Slot: 1, Unique: 77}),
		win,
		Ints([]int64{1, -2, 3}),
		Reals([]float64{0.5, -0.25}),
	}

	vm.Register("echo", func(task *Task) {
		m, err := task.AcceptOne("probe")
		if err != nil {
			task.Printf("echo: %v\n", err)
			return
		}
		if err := task.SendSender("reply", m.Args...); err != nil {
			task.Printf("echo: %v\n", err)
		}
	})
	result := make(chan []Value, 1)
	vm.Register("prober", func(task *Task) {
		to := MustID(task.Arg(0))
		if err := task.Send(to, "probe", sent...); err != nil {
			t.Errorf("cross-cluster send: %v", err)
			result <- nil
			return
		}
		m, err := task.AcceptOne("reply")
		if err != nil {
			t.Errorf("reply: %v", err)
			result <- nil
			return
		}
		result <- append([]Value(nil), m.Args...)
	})

	echoID, err := vm.Initiate("echo", OnCluster(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Initiate("prober", OnCluster(1), ID(echoID)); err != nil {
		t.Fatal(err)
	}
	got := <-result
	vm.WaitIdle()
	vm.Shutdown()

	if len(got) != len(sent) {
		t.Fatalf("round trip returned %d args, want %d", len(got), len(sent))
	}
	for i := range sent {
		if !msgcodec.Equal(sent[i], got[i]) {
			t.Errorf("arg %d changed across the wire: sent %+v, got %+v", i, sent[i], got[i])
		}
	}
	for i, shard := range vm.Machine().Shared().HeapShards() {
		if in := heapInUse(shard); in != 0 {
			t.Errorf("heap shard %d still holds %d bytes after shutdown", i, in)
		}
	}
}

// TestIntraClusterSendsStayOnOwnShard pins the tentpole property: message
// traffic wholly inside one cluster performs no allocation on any other
// cluster's heap shard.
func TestIntraClusterSendsStayOnOwnShard(t *testing.T) {
	vm, err := NewVM(config.Simple(2, 4), Options{AcceptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()

	shared := vm.Machine().Shared()
	if n := len(shared.HeapShards()); n != 2 {
		t.Fatalf("%d heap shards, want one per cluster (2)", n)
	}
	// Cluster numbers ascend with shard index: shard 0 belongs to cluster 1.
	// It is filled first, so a charge to it is refused and fails a send.
	refill := exhaust(shared.HeapShard(0))

	done := make(chan struct{})
	vm.Register("pong2", func(task *Task) {
		for {
			m, err := task.AcceptOne("ping", "stop")
			if err != nil || m.Type == "stop" {
				return
			}
			if err := task.SendSender("pong"); err != nil {
				return
			}
		}
	})
	vm.Register("ping2", func(task *Task) {
		defer close(done)
		to := MustID(task.Arg(0))
		for i := 0; i < 50; i++ {
			if err := task.Send(to, "ping", Int(int64(i)), Str("payload")); err != nil {
				t.Error(err)
				return
			}
			if _, err := task.AcceptOne("pong"); err != nil {
				t.Error(err)
				return
			}
		}
		_ = task.Send(to, "stop")
	})

	pongID, err := vm.Initiate("pong2", OnCluster(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Initiate("ping2", OnCluster(2), ID(pongID)); err != nil {
		t.Fatal(err)
	}
	<-done
	vm.WaitIdle()

	refill()
	// The initiate requests from the driver are charged to cluster 2's shard;
	// nothing in this workload may touch cluster 1's.
	if _, high := shared.HeapShard(1).Usage(); high == 0 {
		t.Error("cluster 2's shard was never charged; traffic went somewhere unexpected")
	}
}

// TestCrossClusterInitiateCarriesArrays covers the routed initiate path: an
// INITIATE aimed at another cluster moves its argument list (including
// arrays) through the wire codec to the destination's task controller.
func TestCrossClusterInitiateCarriesArrays(t *testing.T) {
	vm, err := NewVM(config.Simple(2, 2), Options{AcceptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()

	sum := make(chan int64, 1)
	vm.Register("summer", func(task *Task) {
		vals, err := AsInts(task.Arg(0))
		if err != nil {
			t.Errorf("summer: %v", err)
			sum <- 0
			return
		}
		var s int64
		for _, v := range vals {
			s += v
		}
		sum <- s
	})
	vm.Register("starter", func(task *Task) {
		if err := task.Initiate(OnCluster(2), "summer", Ints([]int64{3, 5, 7, 11})); err != nil {
			t.Errorf("starter: %v", err)
			sum <- 0
		}
	})
	if _, err := vm.Initiate("starter", OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	if got := <-sum; got != 26 {
		t.Errorf("array arrived as sum %d, want 26", got)
	}
	vm.WaitIdle()
}

// TestCrossClusterSendHeapExhaustion pins the error contract of the routed
// path: a cross-cluster send the destination cluster's shard cannot hold
// fails at the sender with ErrHeapExhausted (the destination storage is
// reserved at send time), exactly like the pre-shard global heap did — it
// must not vanish in flight.
func TestCrossClusterSendHeapExhaustion(t *testing.T) {
	machineCfg := flex.DefaultConfig()
	machineCfg.SharedBytes = 160 * 1024
	machineCfg.TableBytes = 32 * 1024
	machineCfg.CommonBytes = 32 * 1024 // ~48 KiB of heap per cluster shard
	machine := flex.MustNewMachine(machineCfg)
	vm, err := NewVMOn(machine, config.Simple(2, 2), Options{AcceptTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()

	ready := make(chan TaskID, 1)
	release := make(chan struct{})
	vm.Register("hoarder", func(task *Task) {
		ready <- task.ID()
		<-release
		_, _ = task.Accept(AcceptSpec{Types: []TypeCount{{Type: "blob", Count: All}}})
	})
	result := make(chan error, 1)
	vm.Register("flooder", func(task *Task) {
		to := MustID(task.Arg(0))
		payload := make([]float64, 1000)
		var sendErr error
		for i := 0; i < 16; i++ {
			if err := task.Send(to, "blob", Reals(payload)); err != nil {
				sendErr = err
				break
			}
		}
		close(release)
		if sendErr == nil {
			result <- errors.New("destination shard never exhausted")
			return
		}
		if !errors.Is(sendErr, ErrHeapExhausted) {
			result <- sendErr
			return
		}
		result <- nil
	})

	hoarderID, err := vm.Initiate("hoarder", OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	<-ready
	if _, err := vm.Initiate("flooder", OnCluster(2), ID(hoarderID)); err != nil {
		t.Fatal(err)
	}
	if err := <-result; err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
}

// streamPerSender runs the ordering workload on the given backend: two source
// tasks on cluster 1 and two on cluster 2 each stream numbered messages to
// one sink on cluster 3.  With no routing task between them, per-sender order
// rests on two facts only — a task is serial and the in-queue is FIFO — so
// the sink must see every sender's numbers strictly ascending, whatever the
// interleaving between senders.
func streamPerSender(t *testing.T, b backend.Backend) {
	t.Helper()
	const perSender, senders = 150, 4
	vm, err := NewVM(config.Simple(3, 4), Options{AcceptTimeout: 30 * time.Second, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	// Results travel through a mutex, not a channel: under the sim backend a
	// task blocked on a Go channel is invisible to the scheduler.
	var mu sync.Mutex
	var problems []string
	next := make(map[TaskID]int64)
	vm.Register("sink", func(task *Task) {
		for i := 0; i < perSender*senders; i++ {
			m, err := task.AcceptOne("num")
			if err != nil {
				mu.Lock()
				problems = append(problems, err.Error())
				mu.Unlock()
				return
			}
			mu.Lock()
			if got := MustInt(m.Args[0]); got != next[m.Sender] {
				problems = append(problems, fmt.Sprintf("sender %s: got %d, want %d", m.Sender, got, next[m.Sender]))
			}
			next[m.Sender]++
			mu.Unlock()
		}
	})
	vm.Register("source", func(task *Task) {
		to := MustID(task.Arg(0))
		for i := 0; i < perSender; i++ {
			if err := task.Send(to, "num", Int(int64(i))); err != nil {
				mu.Lock()
				problems = append(problems, err.Error())
				mu.Unlock()
				return
			}
		}
	})
	sink, err := vm.Initiate("sink", OnCluster(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range []int{1, 2, 1, 2} {
		if _, err := vm.Initiate("source", OnCluster(cl), ID(sink)); err != nil {
			t.Fatal(err)
		}
	}
	vm.WaitIdle()
	vm.Shutdown()

	mu.Lock()
	defer mu.Unlock()
	for _, p := range problems {
		t.Error(p)
	}
	if len(next) != senders {
		t.Fatalf("sink heard from %d senders, want %d", len(next), senders)
	}
	for id, n := range next {
		if n != perSender {
			t.Errorf("sender %s delivered %d messages, want %d", id, n, perSender)
		}
	}
}

// TestCrossClusterPerSenderOrder pins per-sender FIFO across clusters on the
// goroutine backend (run it under -race) and across 32 simulator seeds.
func TestCrossClusterPerSenderOrder(t *testing.T) {
	t.Run("goroutines", func(t *testing.T) { streamPerSender(t, backend.Default()) })
	t.Run("sim", func(t *testing.T) {
		for seed := int64(1); seed <= 32; seed++ {
			streamPerSender(t, sim.New(seed))
		}
	})
}

// TestCrossClusterPrintLandsBeforeFlushReturns: terminal output sent from
// another cluster is delivered by the printing task itself, so once the task
// has returned from its prints, FlushUserOutput has only the user controller's
// own in-queue to wait for — the text is in the writer when it returns.
func TestCrossClusterPrintLandsBeforeFlushReturns(t *testing.T) {
	var out bytes.Buffer
	vm, err := NewVM(config.Simple(2, 2), Options{AcceptTimeout: 30 * time.Second, UserOutput: &out})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()
	const lines = 50
	printed := make(chan struct{})
	vm.Register("chatty", func(task *Task) {
		for i := 0; i < lines; i++ {
			task.Printf("line %d\n", i)
		}
		close(printed)
		_, _ = task.AcceptOne("quit") // stay alive: the flush must not depend on task exit
	})
	id, err := vm.Initiate("chatty", OnCluster(2)) // the user controller lives on cluster 1
	if err != nil {
		t.Fatal(err)
	}
	<-printed
	vm.FlushUserOutput()
	var want strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&want, "line %d\n", i)
	}
	if out.String() != want.String() {
		t.Errorf("after FlushUserOutput the writer holds %q, want all %d lines in order", out.String(), lines)
	}
	if err := vm.SendFromUser(id, "quit"); err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
}

// TestRouteAfterShutdownAndCorruptFrameBalance covers the two paths on which
// a cross-cluster message is refused after storage was (or could have been)
// set aside for it: a send issued once Shutdown has closed routing fails with
// ErrVMTerminated and fails its initiate reply, a corrupt inbound frame is
// dropped with an error — and in both cases no shard holds a byte afterwards
// and every counted heap charge has its recover.
func TestRouteAfterShutdownAndCorruptFrameBalance(t *testing.T) {
	reg := obs.New()
	reg.Enable(obs.Metrics)
	vm, err := NewVM(config.Simple(2, 2), Options{AcceptTimeout: 30 * time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	vm.Register("parked", func(task *Task) { _, _ = task.AcceptOne("never") })
	id, err := vm.Initiate("parked", OnCluster(2))
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := vm.lookupTask(id)
	if !ok {
		t.Fatalf("task %s not registered after Initiate returned", id)
	}
	from, _ := vm.cluster(1)

	bad := WireFrame{Kind: FrameMessage, Src: 1, Dst: 2, Dest: id, Type: "junk", Payload: []byte{0xff, 0xff, 0xff, 0xff, 0xff}}
	if err := vm.DeliverWire([]WireFrame{bad}, nil); err == nil {
		t.Error("DeliverWire accepted a corrupt payload")
	}

	vm.Shutdown()

	reply := newInitReply(vm.backend)
	_, err = vm.routeMessage(from, rec, "late", vm.userCtrl, []Value{Int(1), Str("too late")}, 0, reply)
	if !errors.Is(err, ErrVMTerminated) {
		t.Errorf("send after Shutdown: err = %v, want ErrVMTerminated", err)
	}
	if got := reply.wait(); !got.IsNil() {
		t.Errorf("refused send delivered reply %s, want NilTask", got)
	}
	for i, shard := range vm.Machine().Shared().HeapShards() {
		if in := heapInUse(shard); in != 0 {
			t.Errorf("heap shard %d holds %d bytes after shutdown", i, in)
		}
	}
	counters := make(map[string]int64)
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if c, r := counters["core.heap.charge"], counters["core.heap.recover"]; c == 0 || c != r {
		t.Errorf("core.heap.charge = %d, core.heap.recover = %d; want equal and non-zero", c, r)
	}
}
