package core

import (
	"fmt"
	"time"

	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// Cross-cluster message routing.
//
// The message heap is sharded per cluster (see clusterRT.heap), so an
// inter-cluster send has to move the argument bytes from the sender's shard
// to the receiver's.  That move is the wire path of the FLEX/32 run-time —
// "messages consist of a header and a list of packets containing the
// arguments" (Section 11) — and, as there, it is a run-time call made by the
// sending task, not a process of its own: the sender encodes the argument
// list into its own shard with msgcodec, reserves the message's storage on
// the destination shard, decodes the bytes into a fresh message that owns
// that storage, and queues it on the receiver.  Header fields that never
// leave the run-time (type, sender, sequence number, the initiate-reply
// linkage) travel alongside the packet bytes, the way the original header
// carried queue linkage next to the packets.
//
// Per-sender order needs no machinery: a task is serial, so its next send
// cannot start before its previous one has been queued on the receiver, and
// the receiver's in-queue is FIFO.  Sends by different tasks are unordered
// with respect to each other, as concurrent direct sends always were.  The
// copy does not occupy the destination PE's CPU — on the FLEX/32 it was the
// shared-memory bus at work, not a process competing for the receiver's
// processor — but its cost is charged to the destination cluster's primary
// PE clock so simulated-time experiments see the transfer.

// inbound is the header of one cross-cluster message at delivery: the fields
// that travel beside the codec-encoded argument bytes.
type inbound struct {
	msgType string
	sender  TaskID
	seq     uint64
	sendSeq uint64 // HA send sequence number (0 = unsequenced)
	edge    uint64 // causal edge id stamped at the send site
	// reply carries the initiate-reply linkage for routed initiate requests.
	reply *initReply
}

// routeMessage sends one message across clusters, in the sending task: the
// argument list is codec-encoded into the sender's heap shard, the message's
// storage on the destination shard is reserved, and the wire bytes are
// decoded into it and queued on the receiver.  Reserving the destination
// storage before delivery keeps the pre-shard error contract: a send that the
// receiving cluster cannot hold fails with ErrHeapExhausted at the sender.
// It returns the charged byte size so the caller can charge send ticks.  from
// is the sending cluster (it must differ from the destination's), dest the
// receiving task's record.
func (vm *VM) routeMessage(from *clusterRT, dest *taskRec, msgType string, sender TaskID, args []Value, seq, sendSeq uint64, reply *initReply) (int, error) {
	if vm.routeClosed.Load() {
		reply.deliver(NilTask)
		return 0, ErrVMTerminated
	}
	spanT0 := vm.om.reg.SpanStart()
	size, err := encodedSize(args)
	if err != nil {
		return 0, err
	}
	off, err := from.heap.Alloc(size)
	if err != nil {
		return 0, vm.heapErr(err)
	}
	// The in-flight copy lives in the sender's shard only for the duration of
	// this call: delivered or not, it is recovered on return.
	defer from.heap.Free(off)
	// Encode straight into the shard's arena: the packet-model size always
	// bounds the wire size (a packet holds more than an argument's wire
	// overhead), so the append never outgrows the allocation.
	buf := from.heap.Bytes(off, size)
	var obsT0 time.Time
	if vm.metricsOn() {
		obsT0 = vm.om.reg.Now()
	}
	wire, err := msgcodec.AppendEncode(buf[:0], args)
	if !obsT0.IsZero() {
		vm.om.encodeNS.ObserveDuration(vm.om.reg.Now().Sub(obsT0))
	}
	if err != nil {
		return 0, err
	}
	if len(wire) > size {
		return 0, fmt.Errorf("core: wire form of %s (%d bytes) exceeds its packet-model size %d", msgType, len(wire), size)
	}
	destHeap := dest.cluster.heap
	destOff, err := destHeap.Alloc(size)
	if err != nil {
		return 0, vm.heapErr(err)
	}
	in := inbound{msgType: msgType, sender: sender, seq: seq, sendSeq: sendSeq, edge: vm.newEdge(), reply: reply}
	if reply != nil {
		reply.edge = in.edge
	}
	// The send-side half of the causal pair: a flight-recorder event and, when
	// spans are live, a small send span the flow arrow starts inside; the
	// arrow ends inside the deliver span below.
	src, dst := int64(from.cfg.Number), int64(dest.cluster.cfg.Number)
	vm.emit(&obs.Event{Kind: obs.Route, Edge: in.edge, Type: msgType, A: src, B: dst, Start: spanT0}, nil)
	deliverT0 := vm.om.reg.SpanStart()
	err = vm.deliverInbound(dest, &in, wire, destOff, size)
	vm.emit(&obs.Event{Kind: obs.Deliver, Edge: in.edge, Type: msgType, A: src, B: dst, Start: deliverT0}, nil)
	if err != nil {
		// Unreachable for run-time-encoded messages (the reservation rules out
		// the heap, so only a codec disagreement gets here): the reservation
		// never became a message, so it goes back uncounted.
		_ = destHeap.Free(destOff)
		return 0, fmt.Errorf("core: cluster %d: corrupt wire message %s from %s: %w", dst, msgType, sender, err)
	}
	return size, nil
}

// chargeAtDelivery, passed as deliverInbound's reserved offset, says no
// destination storage was reserved for the message.
const chargeAtDelivery = -1

// deliverInbound is the one delivery tail every cross-cluster message takes,
// whether it was encoded a moment ago by a task of this VM or arrived in a
// wire frame: decode the argument bytes, give the message its storage on the
// destination shard, charge the transfer to the destination PE, and queue it
// on the receiving task.  reserved is the offset of size bytes the sender
// reserved on rec's shard (routeMessage), or chargeAtDelivery to charge the
// shard here (inbound frames, whose sender could not).  The heap charge is
// counted at the moment the message takes ownership of its storage, so a
// failure before that point — the only kind that returns an error — leaves
// charge/recover balanced and the reservation with the caller; the reply of
// a routed initiate is failed here on every path that drops the message.
func (vm *VM) deliverInbound(rec *taskRec, in *inbound, payload []byte, reserved, size int) error {
	var t0 time.Time
	metrics := vm.metricsOn()
	if metrics {
		t0 = vm.om.reg.Now()
	}
	args, err := msgcodec.Decode(payload)
	if metrics {
		vm.om.decodeNS.ObserveDuration(vm.om.reg.Now().Sub(t0))
	}
	if err != nil {
		in.reply.deliver(NilTask)
		return err
	}
	msg := newMessage(in.msgType, in.sender, args, in.seq)
	msg.sendSeq = in.sendSeq
	msg.edge = in.edge
	msg.reply = in.reply
	if reserved != chargeAtDelivery {
		vm.adoptStorage(msg, rec.cluster.heap, reserved, size)
	} else if err := vm.chargeMessageOn(rec.cluster.heap, msg); err != nil {
		recycleMessage(msg)
		in.reply.deliver(NilTask)
		return err
	}
	// Charge the transfer to the destination PE's clock without occupying its
	// CPU: the inter-cluster copy is bus (or network) work, not receiver
	// computation.
	rec.cluster.primary.Charge(int64(costRouteMsg + costSendPacket*((msg.heapBytes-msgcodec.HeaderBytes)/msgcodec.PacketBytes)))
	switch rec.queue.put(msg) {
	case putOK:
	case putDup:
		// HA duplicate suppression: the receiver admitted this send sequence
		// number in a previous life (replayed sender or re-delivered
		// retention); the original delivery stands.
		vm.releaseMessage(msg)
		recycleMessage(msg)
	case putClosed:
		// Receiver terminated while the message was in flight (or, for an
		// initiate request, the VM is shutting down): the send already
		// succeeded from the sender's point of view, the message is dropped
		// like any message queued at a task's termination.
		vm.releaseMessage(msg)
		recycleMessage(msg)
		in.reply.deliver(NilTask)
	}
	return nil
}
