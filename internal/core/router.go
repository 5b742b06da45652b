package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/memory"
	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// Message routing: the one way a message leaves its sender.
//
// A send is a run-time call made by the sending task (Section 6), and every
// form of it — SEND and its TO PARENT/SELF/SENDER/USER/TCONTR variants, each
// copy of a TO ALL broadcast, INITIATE's request to a task controller, and
// the execution environment's SEND A MESSAGE and INITIATE A TASK — goes
// through dispatch, which makes the one routing decision: the remote
// Transport, the in-process cross-cluster move, or the destination's own
// shard.  All three end in one admission to an in-queue
// (inQueue.admitLocked): through enqueue for a message that stayed on its
// shard, through admitRun for one that crossed clusters.
//
// The message heap is sharded per cluster (see clusterRT.heap), so an
// inter-cluster send moves the argument bytes from the sender to the
// receiver's shard.  That move is the wire path of the FLEX/32 run-time —
// "messages consist of a header and a list of packets containing the
// arguments" (Section 11) — and, as there, it is done by the sending task,
// not a process of its own.  It is one path whether the receiver is in this
// process or on another node: the sender's shard answers for the outbound
// copy and msgcodec encodes the list into a pooled frame (stageOut); then
// either the remote Transport carries the frame, or the sender hands the
// bytes straight to deliverInbound, which decodes them into a pooled message
// and, through the delivery tail every cross-cluster message takes
// (admitRun), charges the destination shard and queues it on the receiver.
// Header fields that never leave the run-time (type, sender, the
// initiate-reply linkage) travel alongside the packet bytes, the way the
// original header carried queue linkage next to the packets.
//
// Per-sender order needs no machinery: a task is serial, so its next send
// cannot start before its previous one has been queued on the receiver, and
// the receiver's in-queue is FIFO.  Sends by different tasks are unordered
// with respect to each other, as concurrent direct sends always were.  The
// copy does not occupy the destination PE's CPU — on the FLEX/32 it was the
// shared-memory bus at work, not a process competing for the receiver's
// processor — but its cost is charged to the destination cluster's primary
// PE clock so simulated-time experiments see the transfer.

// dispatch sends one message: from is the sending task's cluster (nil when
// the sender is the execution environment), to the destination task, reply
// the initiate-reply linkage of a run-time initiate request.  It returns the
// message's charged byte size, for the caller's send ticks, and whether it
// left through the remote Transport.  SEND is by value on every route: the
// queued message's argument list and its arrays are the header's own
// (Message.store), so the list the caller passed, and every array in it, is
// the caller's again when dispatch returns.  The route is the destination
// cluster's host alone: a cluster hosted here is reached in place, any other
// through the Transport.  A destination that is hosted here and not running
// fails with ErrNoSuchTask, and a destination shard that cannot hold the
// message with ErrHeapExhausted, on every route but the remote one, whose
// receiver looks the task up and charges its shard at delivery.
func (vm *VM) dispatch(from *clusterRT, to TaskID, msgType string, sender TaskID, args []Value, sendSeq uint64, reply *initReply) (size int, remote bool, err error) {
	remote = !vm.hosts(to.Cluster)
	var rec *taskRec
	if !remote {
		var ok bool
		if rec, ok = vm.lookupTask(to); !ok {
			return 0, remote, fmt.Errorf("%w: %s", ErrNoSuchTask, to)
		}
	}
	switch {
	case remote:
		size, err = vm.routeRemote(from, to, msgType, sender, args, sendSeq, reply)
	case from != nil && rec.cluster != from:
		size, err = vm.routeMessage(from, rec, msgType, sender, args, sendSeq, reply)
	default:
		// Same cluster, or a message from the execution environment: nothing
		// is encoded, the list is copied into the header, and only the
		// destination's shard is touched.
		if size, err = encodedSize(args); err != nil {
			return 0, false, err
		}
		msg := newMessage(msgType, sender)
		msg.setArgs(args)
		msg.sendSeq, msg.reply = sendSeq, reply
		if err = vm.chargeMessageOn(rec.cluster.heap, msg, size); err != nil {
			recycleMessage(msg)
			return 0, false, err
		}
		err = vm.enqueue(rec, msg)
	}
	return size, remote, err
}

// enqueue admits a charged message to rec's in-queue and owns the three
// outcomes.  A message the queue does not take — an HA duplicate of one
// admitted in a previous life, for which the send succeeds, or one for a
// receiver that has terminated, which is ErrNoSuchTask — has its storage
// recovered and its initiate reply failed here.
//
// A fire-and-forget INITIATE has no initiator waiting on it, so once its
// sender has exited nothing else would keep the run from reading as idle
// while the request sits in the task controller's in-queue: such a request
// takes a hold on the user-task count as it is queued, which whoever answers
// the request releases in place of a reply (see VM.WaitIdle).
func (vm *VM) enqueue(rec *taskRec, msg *Message) error {
	vm.holdInitiate(rec, msg)
	res := rec.queue.put(msg)
	if res == putOK {
		return nil
	}
	vm.dropMessage(msg)
	if res == putDup {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrNoSuchTask, rec.id)
}

// holdInitiate takes the hold on the user-task count that a fire-and-forget
// INITIATE request for rec's task controller carries (see enqueue).
func (vm *VM) holdInitiate(rec *taskRec, msg *Message) {
	if msg.reply == nil && msg.Type == msgInitRequest && rec.id == rec.cluster.controllerID {
		vm.userTasks.Add(1)
		vm.holds.Add(1)
		msg.reply = vm.hold
	}
}

// stageOut is the way out every cross-cluster send shares: the list's
// packet-model size, the sender shard's answer for the outbound copy —
// whether its free bytes and the tenant budget could take the charge a send
// of this size takes, a compare that keeps nothing (memory.Allocator.Transit),
// so a shard that could not hold the copy fails the send with
// ErrHeapExhausted; nil asks no shard — and the encode into a pooled frame,
// whose Payload it sets.  The packet-model size always bounds the wire size,
// a packet holding more than an argument's wire overhead, so the encode never
// outgrows the frame's buffer.  The caller releases the frame.
func (vm *VM) stageOut(shard *memory.Allocator, msgType string, args []Value) (*outFrame, int, error) {
	size, err := encodedSize(args)
	if err != nil {
		return nil, 0, err
	}
	if shard != nil {
		if err := shard.Transit(size); err != nil {
			return nil, 0, vm.heapErr(err)
		}
	}
	o := wireFramePool.Get().(*outFrame)
	var t0 time.Time
	if vm.metricsOn() {
		t0 = vm.om.reg.Now()
	}
	o.Payload, err = msgcodec.AppendEncode(o.payloadBuf(size), args)
	if err == nil && len(o.Payload) > size {
		err = fmt.Errorf("core: wire form of %s (%d bytes) exceeds its packet-model size %d", msgType, len(o.Payload), size)
	}
	if !t0.IsZero() {
		vm.om.metrics().encodeNS.ObserveDuration(vm.om.reg.Now().Sub(t0))
	}
	if err != nil {
		o.release()
		return nil, 0, err
	}
	return o, size, nil
}

// routeMessage sends one message across clusters of this process, in the
// sending task: it stages the list like a remote send (stageOut) and hands
// the bytes to deliverInbound, which decodes them and charges the destination
// shard as it does for an inbound frame.  Unlike a remote send, a destination
// shard that cannot hold the message fails the send at the sender, with
// ErrHeapExhausted.  It returns the charged byte size.  from is the sending
// cluster (it must differ from the destination's), dest the receiving task's
// record.
func (vm *VM) routeMessage(from *clusterRT, dest *taskRec, msgType string, sender TaskID, args []Value, sendSeq uint64, reply *initReply) (int, error) {
	if vm.routeClosed.Load() {
		reply.deliver(NilTask)
		return 0, ErrVMTerminated
	}
	spanT0 := vm.om.reg.SpanStart()
	o, size, err := vm.stageOut(from.heap, msgType, args)
	if err != nil {
		return 0, err
	}
	defer o.release()
	edge := vm.newEdge()
	msg := newMessage(msgType, sender)
	msg.sendSeq, msg.edge, msg.reply = sendSeq, edge, reply
	if reply != nil {
		reply.edge = edge
	}
	// The send-side half of the causal pair: a flight-recorder event and, when
	// spans are live, a small send span the flow arrow starts inside; the
	// arrow ends inside the deliver span below.
	src, dst := int64(from.cfg.Number), int64(dest.cluster.cfg.Number)
	vm.emit(&obs.Event{Kind: obs.Route, Edge: edge, Type: msgType, A: src, B: dst, Start: spanT0}, nil)
	deliverT0 := vm.om.reg.SpanStart()
	err = vm.deliverInbound(dest, msg, o.Payload)
	if vm.om.reg.Watching(obs.Deliver) {
		vm.emit(&obs.Event{Kind: obs.Deliver, Edge: edge, Type: msgType, A: src, B: dst, Start: deliverT0}, nil)
	}
	switch {
	case errors.Is(err, ErrHeapExhausted):
		return 0, err
	case err != nil:
		// Unreachable for run-time-encoded messages: only a codec
		// disagreement gets here.
		return 0, fmt.Errorf("core: cluster %d: corrupt wire message %s from %s: %w", dst, msgType, sender, err)
	}
	return size, nil
}

// deliverInbound is the delivery of one cross-cluster message, staged a
// moment ago by a task of this VM or copied out of a broadcast frame: it
// decodes the argument bytes into msg — a header the caller built, which
// this call consumes on every path, and whose own store takes the list — and
// admits it as a run of one (admitRun).  The only failures, a decode or the
// shard charge, return an error before anything was charged, so
// charge/recover stay balanced.
func (vm *VM) deliverInbound(rec *taskRec, msg *Message, payload []byte) error {
	metrics := vm.metricsOn()
	if err := vm.decodeInbound(msg, payload, metrics); err != nil {
		return err
	}
	run, errs := [1]*Message{msg}, [1]error{}
	vm.admitRun(rec, run[:], errs[:], metrics)
	return errs[0]
}

// decodeInbound decodes an inbound message's wire bytes into its header and
// keeps the packet-model size the decode counted as the header's heapBytes,
// which its charge is for.  A header that fails is dropped here, its
// initiate reply failed.
func (vm *VM) decodeInbound(msg *Message, payload []byte, metrics bool) error {
	var t0 time.Time
	if metrics {
		t0 = vm.om.reg.Now()
	}
	size, err := msg.decodeArgs(payload)
	if metrics {
		vm.om.metrics().decodeNS.ObserveDuration(vm.om.reg.Now().Sub(t0))
	}
	if err != nil {
		msg.reply.deliver(NilTask)
		recycleMessage(msg)
		return err
	}
	msg.heapBytes = size
	return nil
}

// admitRun is the one delivery tail every cross-cluster message takes: a
// run of decoded messages for rec's task (heapBytes set; a nil slot is a
// message the caller already dropped) is charged to the destination shard,
// its transfer charged to the destination PE, and queued on the receiving
// task.  Whatever does not depend on the run's length is paid once: one
// shard admission of the summed charges (memory.Allocator.AllocRun), one PE
// charge, one in-queue lock round and one wake-up (inQueue.putRun).  A run
// the shard cannot hold whole is charged message by message, in order, as
// the messages would have been one at a time: one the shard refuses is
// dropped, its error in errs at its index.  A message the queue does not take
// — its receiver terminated while it was in flight, or HA duplicate
// suppression — is not an error: the send already succeeded from the
// sender's point of view, and the message is dropped like any message queued
// at a task's termination.  Every slot of run is nil on return.
func (vm *VM) admitRun(rec *taskRec, run []*Message, errs []error, metrics bool) {
	heap := rec.cluster.heap
	total, n := 0, 0
	for _, m := range run {
		if m == nil {
			continue
		}
		c, ok := memory.Charge(m.heapBytes)
		if !ok || total > math.MaxInt-c {
			n = 0 // charged one by one: Alloc answers for a charge this large
			break
		}
		m.heapCharge = c
		total += c
		n++
	}
	whole := n > 0 && heap.AllocRun(total, n)
	var ticks, charged int64
	for i, m := range run {
		if m == nil {
			continue
		}
		if !whole {
			c, err := heap.Alloc(m.heapBytes)
			if err != nil {
				errs[i] = vm.heapErr(err)
				m.reply.deliver(NilTask)
				recycleMessage(m)
				run[i] = nil
				continue
			}
			m.heapCharge = c
		}
		m.heapShard = heap
		if metrics {
			vm.om.metrics().heapMsgBytes.Observe(int64(m.heapBytes))
		}
		charged++
		// The transfer is charged to the destination PE's clock without
		// occupying its CPU: the inter-cluster copy is bus (or network) work,
		// not receiver computation.
		ticks += int64(costRouteMsg + costSendPacket*((m.heapBytes-msgcodec.HeaderBytes)/msgcodec.PacketBytes))
		vm.holdInitiate(rec, m)
	}
	if charged == 0 {
		return
	}
	if metrics {
		vm.om.heapCharges.Add(charged)
	}
	rec.cluster.primary.Charge(ticks)
	rec.queue.putRun(run)
	for i, m := range run {
		if m != nil {
			vm.dropMessage(m)
			run[i] = nil
		}
	}
}
