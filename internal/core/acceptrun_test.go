package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// acceptRun has a sender on cluster 2 queue one message of each listed type
// on a receiver on cluster 1 — routed, so the recorder keeps every accept —
// and the receiver take them all in one ACCEPT, with a handler declared for
// type "h".  Every clock read the VM's registry and its recorder make is
// counted; it returns the reads the ACCEPT made and the accept events the
// recorder holds, if the VM was booted with one.
func acceptRun(t *testing.T, recorder bool, types []string) (reads int64, accepts []msgcodec.BlackboxEvent) {
	t.Helper()
	var opts Options
	if recorder {
		opts.FlightRecorder = obs.NewRecorder(0, 0, 0)
	}
	vm := newTestVM(t, config.Simple(2, 2), opts)
	var clock atomic.Int64
	vm.Obs().SetClock(func() time.Time { return time.Unix(0, clock.Add(1)) })

	queued, measured := make(chan struct{}), make(chan struct{})
	got := make(chan int64, 1)
	vm.Register("sender", func(task *Task) {
		to := MustID(task.Arg(0))
		for _, ty := range types {
			if err := task.Send(to, ty, Int(1)); err != nil {
				t.Errorf("send %s: %v", ty, err)
			}
		}
		close(queued)
		<-measured // nothing else runs while the receiver counts
	})
	vm.Register("receiver", func(task *Task) {
		defer close(measured)
		task.OnMessage("h", func(*Task, *Message) {})
		<-queued
		clock.Store(0)
		res, err := task.Accept(AcceptSpec{Total: len(types), Types: []TypeCount{{Type: "s"}, {Type: "h"}}})
		got <- clock.Load()
		if err != nil || len(res.Accepted) != len(types) {
			t.Errorf("ACCEPT took %v, %v; want %d messages", res, err, len(types))
		}
	})
	recv, err := vm.Initiate("receiver", OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Initiate("sender", OnCluster(2), ID(recv)); err != nil {
		t.Fatal(err)
	}
	reads = <-got
	vm.WaitIdle()
	for _, e := range vm.FlightRecorder().Events() {
		if e.Kind == msgcodec.EvAccept {
			accepts = append(accepts, e)
		}
	}
	return reads, accepts
}

// TestAcceptRunSharesOneStamp: the messages one ACCEPT takes are recorded
// with one reading of the recorder clock, taken when the run is — k
// consecutive events, one stamp, one read.  A handler ends a run, so the
// messages after it are stamped by a second read; and a VM without a
// recorder reads no clock for its ACCEPTs at all.
func TestAcceptRunSharesOneStamp(t *testing.T) {
	sameStamp := func(evs []msgcodec.BlackboxEvent) bool {
		for i := 1; i < len(evs); i++ {
			if evs[i].TS != evs[0].TS || evs[i].Seq != evs[i-1].Seq+1 {
				return false
			}
		}
		return true
	}

	const k = 8
	run := make([]string, k)
	for i := range run {
		run[i] = "s"
	}
	reads, accepts := acceptRun(t, true, run)
	if reads != 1 || len(accepts) != k || !sameStamp(accepts) {
		t.Errorf("a handler-free run of %d: %d clock reads and events %+v; want 1 read, %d consecutive events of one stamp", k, reads, accepts, k)
	}

	reads, accepts = acceptRun(t, true, []string{"s", "s", "h", "s", "s"})
	if reads != 2 || len(accepts) != 5 || !sameStamp(accepts[:3]) || !sameStamp(accepts[3:]) || accepts[3].TS == accepts[2].TS {
		t.Errorf("a handler third of five: %d clock reads and events %+v; want 2 reads, the handler's message stamped with the two before it", reads, accepts)
	}

	if reads, _ := acceptRun(t, false, run); reads != 0 {
		t.Errorf("without a recorder a run of %d read the clock %d times, want 0", k, reads)
	}
}

// TestAcceptRunReleasesBeforeHandlers: a run is released in one shard round
// before any of it is processed, but it ends at the message a handler sees,
// so the handler finds the heap as if each message before it had been
// released on its own: its own storage and its predecessors' recovered, the
// message after it still held.
func TestAcceptRunReleasesBeforeHandlers(t *testing.T) {
	vm := newTestVM(t, config.Simple(2, 2), Options{})
	start, queued, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	vm.Register("sender", func(task *Task) {
		to := MustID(task.Arg(0))
		<-start
		for _, ty := range []string{"s", "s", "h", "s"} {
			if err := task.Send(to, ty, Str("payload")); err != nil {
				t.Errorf("send %s: %v", ty, err)
			}
		}
		close(queued)
		<-done
	})
	vm.Register("receiver", func(task *Task) {
		defer close(done)
		heap := task.rec.cluster.heap
		base := heapInUse(heap)
		close(start)
		<-queued
		queue := task.rec.queue.snapshot()
		full := heapInUse(heap)
		each := (full - base) / len(queue)

		inHandler := -1
		task.OnMessage("h", func(task *Task, _ *Message) {
			inHandler = heapInUse(heap)
			if err := task.Send(task.ID(), "self", Str("payload")); err != nil {
				t.Errorf("send to self: %v", err)
			}
		})
		if _, err := task.Accept(AcceptSpec{Total: 4, Types: []TypeCount{{Type: "s"}, {Type: "h"}}}); err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		if want := full - 3*each; inHandler != want {
			t.Errorf("the handler of the third of four messages saw %d bytes in use, want %d (one %d-byte message still held)", inHandler, want, each)
		}
		if _, err := task.AcceptOne("self"); err != nil {
			t.Errorf("accept self: %v", err)
		}
		if got := heapInUse(heap); got != base {
			t.Errorf("shard holds %d bytes after every message was accepted, want %d", got, base)
		}
	})
	recv, err := vm.Initiate("receiver", OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Initiate("sender", OnCluster(2), ID(recv)); err != nil {
		t.Fatal(err)
	}
	<-done
	vm.WaitIdle()
}
