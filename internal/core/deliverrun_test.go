package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/memory"
	"repro/internal/msgcodec"
	"repro/internal/sim"
)

// pulseCounter is a backend whose events count the pulses they are given.
type pulseCounter struct {
	backend.Backend
	pulses atomic.Int64
}

func (b *pulseCounter) NewEvent() backend.Event {
	return &countedEvent{Event: b.Backend.NewEvent(), pulses: &b.pulses}
}

type countedEvent struct {
	backend.Event
	pulses *atomic.Int64
}

func (e *countedEvent) Pulse() {
	e.pulses.Add(1)
	e.Event.Pulse()
}

// deliverRig is one simulated VM for a delivery test: on cluster 2 two
// receivers that never accept what they are sent, and the id of a third
// that has terminated.  The simulator runs no task while the test delivers,
// so what a delivery did can be read off the VM as it left it.
type deliverRig struct {
	vm         *VM
	be         *pulseCounter
	out        *bytes.Buffer
	heap       *memory.Allocator
	a, b, gone TaskID
	ctrl       TaskID
}

func newDeliverRig(t *testing.T) *deliverRig {
	t.Helper()
	r := &deliverRig{be: &pulseCounter{Backend: sim.New(1)}, out: &bytes.Buffer{}}
	vm, err := NewVM(config.Simple(3, 4), Options{UserOutput: r.out, Backend: r.be, AcceptTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(vm.Shutdown)
	vm.Register("parked", func(task *Task) { _, _ = task.AcceptOne("never") })
	vm.Register("brief", func(*Task) {})
	r.vm = vm
	for _, id := range []*TaskID{&r.a, &r.b, &r.gone} {
		tasktype := "parked"
		if id == &r.gone {
			tasktype = "brief"
		}
		if *id, err = vm.Initiate(tasktype, OnCluster(2)); err != nil {
			t.Fatal(err)
		}
	}
	_ = vm.WaitTask(r.gone)
	cl, _ := vm.cluster(2)
	r.heap, r.ctrl = cl.heap, cl.controllerID
	return r
}

// leave fills the receivers' shard until room bytes are left.
func (r *deliverRig) leave(t *testing.T, room int) {
	t.Helper()
	if _, err := r.heap.Alloc(r.heap.Size() - heapInUse(r.heap) - room - 8); err != nil {
		t.Fatal(err)
	}
}

// ticks is the receivers' primary PE clock.
func (r *deliverRig) ticks() int64 {
	cl, _ := r.vm.cluster(2)
	return cl.primary.Ticks()
}

// queued lists what each task's in-queue holds, in order.
func (r *deliverRig) queued() map[string][]string {
	out := map[string][]string{}
	for name, id := range map[string]TaskID{"a": r.a, "b": r.b, "ctrl": r.ctrl} {
		rec, ok := r.vm.lookupTask(id)
		if !ok {
			continue
		}
		for _, m := range rec.queue.snapshot() {
			wire, err := msgcodec.Encode(m.Args)
			out[name] = append(out[name], fmt.Sprintf("%s from %s edge %d: %x %v (%d bytes, charge %d)", m.Type, m.Sender, m.edge, wire, err, m.heapBytes, m.heapCharge))
		}
	}
	return out
}

// wireFrame is a data frame for dest carrying args, stamped with edge.
func wireFrame(t *testing.T, dest, sender TaskID, typ string, edge uint64, args ...Value) WireFrame {
	t.Helper()
	payload, err := msgcodec.AppendEncode(nil, args)
	if err != nil {
		t.Fatal(err)
	}
	return WireFrame{Kind: FrameMessage, Src: sender.Cluster, Dst: dest.Cluster, Dest: dest, Type: typ, Sender: sender, Edge: edge, Payload: payload}
}

// TestDeliverRunMatchesFrameByFrame feeds one batch through DeliverWire and
// the same frames one DeliverWire call each into a second VM built the same
// way: runs for two tasks from two senders, a run for a task that has
// terminated, a routed INITIATE that carries a reply id, a broadcast, and a
// run the shard can hold only the front of.  The two VMs must end with the
// same in-queues in the same order, the same drop lines, the same shard
// Stats and the same PE ticks, and rx must hear every frame once, in order.
func TestDeliverRunMatchesFrameByFrame(t *testing.T) {
	batched, single := newDeliverRig(t), newDeliverRig(t)
	s1, s2 := TaskID{Cluster: 1, Slot: 5, Unique: 91}, TaskID{Cluster: 3, Slot: 6, Unique: 92}
	big := make([]float64, 64)
	for i := range big {
		big[i] = float64(i)
	}
	frames := func(r *deliverRig) []WireFrame {
		var fs []WireFrame
		add := func(dest, sender TaskID, typ string, args ...Value) {
			fs = append(fs, wireFrame(t, dest, sender, typ, uint64(len(fs)+1), args...))
		}
		for i := 0; i < 3; i++ {
			add(r.a, s1, "datum", Int(int64(i)))
		}
		add(r.b, s1, "datum", Int(10))
		add(r.b, s2, "other", Str("x"))
		add(r.gone, s1, "datum", Int(20))
		add(r.gone, s2, "datum", Int(21))
		add(r.a, s2, "other", Int(30))
		init := wireFrame(t, r.ctrl, s1, msgInitRequest, uint64(len(fs)+1), initRequestArgs("brief", s1, nil)...)
		init.ReplyID = 99
		fs = append(fs, init)
		bcast := wireFrame(t, NilTask, s2, "all", uint64(len(fs)+1), Int(40))
		bcast.Kind, bcast.Dst = FrameBroadcast, 0
		fs = append(fs, bcast)
		for i := 0; i < 6; i++ {
			add(r.a, s1, "bulk", Int(int64(50+i)), Reals(big))
		}
		add(r.b, s2, "datum", Int(60))
		return fs
	}
	// Room for the frames before the bulk run, and for half of that run.
	charge := func(payload []byte) int {
		args, err := msgcodec.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := encodedSize(args)
		c, _ := memory.Charge(n)
		return c
	}
	fs := frames(batched)
	bulk := charge(fs[10].Payload)
	room := 3*bulk + bulk/2
	for _, f := range fs[:10] {
		switch {
		case f.Dest == batched.gone:
		case f.Kind == FrameBroadcast:
			room += 2 * charge(f.Payload) // a copy for a and one for b
		default:
			room += charge(f.Payload)
		}
	}

	var heard []int
	ticks := map[*deliverRig]int64{}
	for _, r := range []*deliverRig{batched, single} {
		r.leave(t, room)
		in := frames(r)
		t0 := r.ticks()
		if r == batched {
			_ = r.vm.DeliverWire(in, func(i int) { heard = append(heard, i) })
		} else {
			for i := range in {
				_ = r.vm.DeliverWire(in[i:i+1], nil)
			}
		}
		ticks[r] = r.ticks() - t0
	}
	if ticks[batched] != ticks[single] || ticks[batched] == 0 {
		t.Errorf("the batch charged the receivers' PE %d ticks, the frames one by one %d", ticks[batched], ticks[single])
	}
	if len(heard) != len(fs) {
		t.Fatalf("rx heard %d frames of %d", len(heard), len(fs))
	}
	for i, k := range heard {
		if i != k {
			t.Fatalf("rx heard frame %d in place %d: %v", k, i, heard)
		}
	}
	if got, want := batched.queued(), single.queued(); !reflect.DeepEqual(got, want) {
		t.Errorf("in-queues after the batch:\n%v\nframe by frame:\n%v", got, want)
	}
	if got, want := batched.out.String(), single.out.String(); got != want || strings.Count(got, "dropping bulk") != 3 {
		t.Errorf("drop lines after the batch:\n%sframe by frame:\n%s(want three bulk drops)", got, want)
	}
	gotIn, gotHigh := batched.heap.Usage()
	wantIn, wantHigh := single.heap.Usage()
	if gotIn != wantIn || gotHigh != wantHigh {
		t.Errorf("shard after the batch %d in use (high %d), frame by frame %d (high %d)", gotIn, gotHigh, wantIn, wantHigh)
	}
}

// TestDeliverRunWakesItsTaskOnce: a run of 64 data frames for one task is
// one in-queue lock round and one pulse of the task's wake, where 64 frames
// delivered one at a time pulse it 64 times.
func TestDeliverRunWakesItsTaskOnce(t *testing.T) {
	for _, batch := range []bool{true, false} {
		r := newDeliverRig(t)
		fs := make([]WireFrame, 64)
		for i := range fs {
			fs[i] = wireFrame(t, r.a, TaskID{Cluster: 1, Slot: 5, Unique: 91}, "datum", uint64(i+1), Int(int64(i)))
		}
		p0 := r.be.pulses.Load()
		if batch {
			_ = r.vm.DeliverWire(fs, nil)
		} else {
			for i := range fs {
				_ = r.vm.DeliverWire(fs[i:i+1], nil)
			}
		}
		want := int64(64)
		if batch {
			want = 1
		}
		if got := r.be.pulses.Load() - p0; got != want {
			t.Errorf("batch %v: 64 frames pulsed %d wakes, want %d", batch, got, want)
		}
		if got := len(r.queued()["a"]); got != 64 {
			t.Errorf("batch %v: %d of 64 messages queued", batch, got)
		}
	}
}
