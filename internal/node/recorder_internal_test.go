package node

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/sim"
)

// batchCountingConn counts the writes a lane's writer makes that carry at
// least one data frame: the lane batches that carried one.
type batchCountingConn struct {
	net.Conn
	dataBatches *int
}

func (c batchCountingConn) Write(b []byte) (int, error) {
	for rest := b; len(rest) > 0; {
		payload, next, err := msgcodec.NextFrame(rest, 0)
		if err != nil {
			break
		}
		if len(payload) > 0 && payload[0] == fMsg {
			*c.dataBatches++
			break
		}
		rest = next
	}
	return c.Conn.Write(b)
}

// TestRecorderReadsItsClockPerBatch counts what the flight recorder costs a
// cross-node fan-in in clock reads.  On a two-node fault mesh, senders on
// node 1 send the collector on node 0 a window of data messages each, then
// "done"; the collector takes the dones one ACCEPT at a time — so the whole
// window is queued behind them — and then the window in one ACCEPT, and
// answers each sender "go" for the next window.  That is S+1 ACCEPT runs of
// the collector's and S of the senders' per window.  Once every task is in
// place the recorders' clocks count their reads, and the writes of each lane
// are counted too: the reads may not exceed the lane batches that carried a
// data frame, plus the ACCEPT runs, plus the other events the recorders
// kept.  A recorder that read its clock once a send would read it at least
// once a message; and the sends carry one stamp a batch, so a batch that
// kept its predecessor's stamp would show too.  The dumps must still hold one msg-send and one msg-accept
// per message, sharing the message's edge.
func TestRecorderReadsItsClockPerBatch(t *testing.T) {
	const senders, perWindow, windows = 4, 16, 8
	s := sim.New(7)
	mesh, err := NewFaultMesh(config.Simple(2, senders+1), s, 2, func(int) Options {
		return Options{AcceptTimeout: 30 * time.Second}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Shutdown()

	var reads atomic.Int64
	dataBatches := 0
	count := func() {
		clock := func() time.Time { return time.Unix(0, reads.Add(1)) }
		for _, n := range mesh.nodes {
			n.VM().FlightRecorder().SetClock(clock)
			for _, p := range n.tr.allPeers() {
				p.conn = batchCountingConn{Conn: p.conn, dataBatches: &dataBatches}
			}
		}
	}
	for _, vm := range mesh.VMs {
		vm.Register("sender", func(task *core.Task) {
			for w := 0; w < windows; w++ {
				m, err := task.AcceptOne("go")
				if err != nil {
					t.Errorf("sender: %v", err)
					return
				}
				to := m.Sender
				for i := 0; i < perWindow; i++ {
					if err := task.Send(to, "data", core.Int(int64(i))); err != nil {
						t.Errorf("sender: %v", err)
						return
					}
				}
				if err := task.Send(to, "done"); err != nil {
					t.Errorf("sender: %v", err)
					return
				}
			}
		})
		vm.Register("collector", func(task *core.Task) {
			count() // every task is in place: from here on, count
			for w := 0; w < windows; w++ {
				for i := 0; i < senders; i++ {
					if err := task.Send(core.MustID(task.Arg(i)), "go"); err != nil {
						t.Errorf("collector: %v", err)
						return
					}
				}
				for i := 0; i < senders; i++ {
					if _, err := task.AcceptOne("done"); err != nil {
						t.Errorf("collector: %v", err)
						return
					}
				}
				res, err := task.Accept(core.AcceptSpec{Total: senders * perWindow, Types: []core.TypeCount{{Type: "data"}}})
				if err != nil || len(res.Accepted) != senders*perWindow {
					t.Errorf("collector: window %d took %v, %v", w, res, err)
					return
				}
			}
		})
	}
	var args []core.Value
	var ids []core.TaskID
	for i := 0; i < senders; i++ {
		id, err := mesh.VMs[1].Initiate("sender", core.OnCluster(2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		args = append(args, core.ID(id))
	}
	collector, err := mesh.VMs[0].Initiate("collector", core.OnCluster(1), args...)
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.VMs[0].WaitTask(collector); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := mesh.VMs[1].WaitTask(id); err != nil {
			t.Fatal(err)
		}
	}
	got := reads.Load()

	// The counted events are the ones the counting clock stamped: its
	// readings are tiny next to the virtual clock's.
	const counted = int64(1) << 40
	sends, accepts := map[uint64]int{}, map[uint64]int{}
	stamps, sendStamps := map[int64]bool{}, map[int64]bool{}
	others := int64(0)
	for _, vm := range mesh.VMs {
		for _, e := range vm.FlightRecorder().Events() {
			if e.TS >= counted {
				continue
			}
			stamps[e.TS] = true
			switch e.Kind {
			case msgcodec.EvSend:
				sends[e.Edge]++
				sendStamps[e.TS] = true
			case msgcodec.EvAccept:
				accepts[e.Edge]++
			default:
				others++
			}
		}
	}
	messages := windows * senders * (perWindow + 2)
	runs := int64(windows * (2*senders + 1))
	if len(sends) != messages || len(accepts) != messages {
		t.Errorf("the recorders hold %d send edges and %d accept edges, want %d of each", len(sends), len(accepts), messages)
	}
	for edge, n := range sends {
		if n != 1 || accepts[edge] != 1 {
			t.Errorf("edge %#x: %d sends and %d accepts, want one of each", edge, n, accepts[edge])
		}
	}
	if int64(len(stamps)) != got {
		t.Errorf("%d clock reads but %d distinct stamps in the rings: a read stamped nothing", got, len(stamps))
	}
	if len(sendStamps) != dataBatches {
		t.Errorf("the sends carry %d distinct stamps, want one for each of the %d lane batches that carried them", len(sendStamps), dataBatches)
	}
	bound := int64(dataBatches) + runs + others
	t.Logf("%d messages: %d recorder clock reads; %d lane batches with data, %d ACCEPT runs, %d other events", messages, got, dataBatches, runs, others)
	if got > bound {
		t.Errorf("the recorders read their clocks %d times for %d messages, more than %d lane batches with data + %d ACCEPT runs + %d other events",
			got, messages, dataBatches, runs, others)
	}
}

// TestFailedRemoteSendIsRecorded: a routed send records its msg-send once
// the transport has taken or refused the frame, and a refused frame joined
// no lane batch: the send is still in the ring, on a reading of its own.
func TestFailedRemoteSendIsRecorded(t *testing.T) {
	s := sim.New(3)
	mesh, err := NewFaultMesh(config.Simple(2, 1), s, 2, func(int) Options {
		return Options{AcceptTimeout: 30 * time.Second}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Shutdown()
	lane := mesh.nodes[0].tr.peerAt(1)
	setClosed := func(closed bool) {
		lane.mu.Lock()
		lane.closed = closed
		lane.mu.Unlock()
	}
	var sendErr error
	for _, vm := range mesh.VMs {
		vm.Register("sender", func(task *core.Task) {
			sendErr = task.Send(core.TaskID{Cluster: 2, Slot: 1, Unique: 99}, "note", core.Int(1))
		})
	}
	rec := mesh.VMs[0].FlightRecorder()
	before := len(rec.Events())
	setClosed(true)
	id, err := mesh.VMs[0].Initiate("sender", core.OnCluster(1))
	if err == nil {
		err = mesh.VMs[0].WaitTask(id)
	}
	setClosed(false)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sendErr, net.ErrClosed) {
		t.Fatalf("a send on the closed lane returned %v, want %v", sendErr, net.ErrClosed)
	}
	var sends []msgcodec.BlackboxEvent
	for _, e := range rec.Events()[before:] {
		if e.Kind == msgcodec.EvSend && e.A == 1 && e.B == 2 {
			sends = append(sends, e)
		}
	}
	if len(sends) != 1 || sends[0].Edge == 0 || sends[0].TS == 0 {
		t.Fatalf("the ring holds %+v after the failed send, want its one msg-send, edged and stamped", sends)
	}
}
