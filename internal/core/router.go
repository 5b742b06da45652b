package core

import (
	"fmt"
	"time"

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
// shard.  All three end in enqueue, the one place a message is admitted to an
// in-queue.
//
// The message heap is sharded per cluster (see clusterRT.heap), so an
// inter-cluster send has to move the argument bytes from the sender's shard
// to the receiver's.  That move is the wire path of the FLEX/32 run-time —
// "messages consist of a header and a list of packets containing the
// arguments" (Section 11) — and, as there, it is done by the sending task,
// not a process of its own: the sender stages the argument list in its own
// shard with msgcodec, reserves the message's storage on the destination
// shard, decodes the bytes into a pooled message that owns that storage, and
// queues it on the receiver.  Header fields that never leave the run-time
// (type, sender, the initiate-reply linkage) travel alongside the packet
// bytes, the way the original header carried queue linkage next to the
// packets.
//
// Per-sender order needs no machinery: a task is serial, so its next send
// cannot start before its previous one has been queued on the receiver, and
// the receiver's in-queue is FIFO.  Sends by different tasks are unordered
// with respect to each other, as concurrent direct sends always were.  The
// copy does not occupy the destination PE's CPU — on the FLEX/32 it was the
// shared-memory bus at work, not a process competing for the receiver's
// processor — but its cost is charged to the destination cluster's primary
// PE clock so simulated-time experiments see the transfer.

// route names the way dispatch sent a message.  SEND is by value on all three:
// the queued message's argument list is the header's own (Message.store), so
// the list the caller passed is the caller's again when dispatch returns.
type route uint8

const (
	// viaSame: sender and receiver share a cluster (or the sender is the
	// execution environment); nothing is encoded, the list is copied into the
	// header.
	viaSame route = iota
	// viaShard: the message crossed to another cluster's shard of this
	// process; stage encoded the list and the header decoded it.
	viaShard
	// viaWire: the message left through the remote Transport, likewise
	// encoded.
	viaWire
)

// dispatch sends one message: from is the sending task's cluster (nil when
// the sender is the execution environment), to the destination task, reply
// the initiate-reply linkage of a run-time initiate request.  It returns the
// message's charged byte size, for the caller's send ticks, and the route it
// chose — with an error the route it tried, or viaSame if it got to none.  A
// destination that is hosted here and not running fails with ErrNoSuchTask on
// every route — also under InterceptWire, where delivery itself is delayed —
// and a destination shard that cannot hold the message with ErrHeapExhausted
// on every route but the remote one, whose receiver charges at delivery.
func (vm *VM) dispatch(from *clusterRT, to TaskID, msgType string, sender TaskID, args []Value, sendSeq uint64, reply *initReply) (size int, via route, err error) {
	remote := vm.wireRemote(from, to.Cluster)
	var rec *taskRec
	if !remote || vm.hosts(to.Cluster) {
		var ok bool
		if rec, ok = vm.lookupTask(to); !ok {
			return 0, via, fmt.Errorf("%w: %s", ErrNoSuchTask, to)
		}
	}
	switch {
	case remote:
		via = viaWire
		size, err = vm.routeRemote(from, to, msgType, sender, args, sendSeq, reply)
	case from != nil && rec.cluster != from:
		via = viaShard
		size, err = vm.routeMessage(from, rec, msgType, sender, args, sendSeq, reply)
	default:
		// Same cluster, or a message from the execution environment: only the
		// destination's shard is touched.
		if size, err = encodedSize(args); err != nil {
			return 0, viaSame, err
		}
		msg := newMessage(msgType, sender)
		msg.setArgs(args)
		msg.sendSeq, msg.reply = sendSeq, reply
		if err = vm.chargeMessageOn(rec.cluster.heap, msg, size); err != nil {
			recycleMessage(msg)
			return 0, viaSame, err
		}
		err = vm.enqueue(rec, msg)
	}
	return size, via, err
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
	if msg.reply == nil && msg.Type == msgInitRequest && rec.id == rec.cluster.controllerID {
		vm.userTasks.Add(1)
		vm.holds.Add(1)
		msg.reply = vm.hold
	}
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

// stage encodes an argument list of packet-model size size — which always
// bounds the wire size, a packet holding more than an argument's wire
// overhead — into dst[:0] and returns the wire form.  dst is a shard region
// of capacity size (routeMessage) or an outbound frame's payload buffer
// (routeRemote, routeBroadcast); the encode never outgrows it.
func (vm *VM) stage(dst []byte, msgType string, args []Value, size int) ([]byte, error) {
	var t0 time.Time
	if vm.metricsOn() {
		t0 = vm.om.reg.Now()
	}
	wire, err := msgcodec.AppendEncode(dst[:0], args)
	if err == nil && len(wire) > size {
		err = fmt.Errorf("core: wire form of %s (%d bytes) exceeds its packet-model size %d", msgType, len(wire), size)
	}
	if !t0.IsZero() {
		vm.om.encodeNS.ObserveDuration(vm.om.reg.Now().Sub(t0))
	}
	return wire, err
}

// routeMessage sends one message across clusters, in the sending task: the
// argument list is staged in the sender's heap shard, the message's storage
// on the destination shard is reserved, and the wire bytes are decoded into
// it and queued on the receiver.  Reserving the destination storage before
// delivery keeps the pre-shard error contract: a send that the receiving
// cluster cannot hold fails with ErrHeapExhausted at the sender.  It returns
// the charged byte size.  from is the sending cluster (it must differ from
// the destination's), dest the receiving task's record.
func (vm *VM) routeMessage(from *clusterRT, dest *taskRec, msgType string, sender TaskID, args []Value, sendSeq uint64, reply *initReply) (int, error) {
	if vm.routeClosed.Load() {
		reply.deliver(NilTask)
		return 0, ErrVMTerminated
	}
	spanT0 := vm.om.reg.SpanStart()
	size, err := encodedSize(args)
	if err != nil {
		return 0, err
	}
	off, region, err := from.heap.AllocBytes(size)
	if err != nil {
		return 0, vm.heapErr(err)
	}
	defer func() { _ = from.heap.Free(off) }()
	wire, err := vm.stage(region, msgType, args, size)
	if err != nil {
		return 0, err
	}
	destHeap := dest.cluster.heap
	destOff, err := destHeap.Alloc(size)
	if err != nil {
		return 0, vm.heapErr(err)
	}
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
	err = vm.deliverInbound(dest, msg, wire, destOff, size)
	if vm.om.reg.Watching(obs.Deliver) {
		vm.emit(&obs.Event{Kind: obs.Deliver, Edge: edge, Type: msgType, A: src, B: dst, Start: deliverT0}, nil)
	}
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
// whether it was staged a moment ago by a task of this VM or arrived in a
// wire frame: decode the argument bytes into msg — a header the caller built,
// which this call consumes on every path, and whose own store takes the list
// — give it its storage on the destination shard, charge the transfer to the
// destination PE, and queue it on the receiving task.  reserved is the offset
// of size bytes the sender reserved on rec's shard (routeMessage), or
// chargeAtDelivery to charge the shard here (inbound frames, whose sender
// could not) with the size the decode counted.  The heap charge is counted at
// the moment the message takes ownership of its storage, so a
// failure before that point — the only kind that returns an error — leaves
// charge/recover balanced and the reservation with the caller; the reply of
// a routed initiate is failed on every path that drops the message.
func (vm *VM) deliverInbound(rec *taskRec, msg *Message, payload []byte, reserved, size int) error {
	var t0 time.Time
	metrics := vm.metricsOn()
	if metrics {
		t0 = vm.om.reg.Now()
	}
	decoded, err := msg.decodeArgs(payload)
	if metrics {
		vm.om.decodeNS.ObserveDuration(vm.om.reg.Now().Sub(t0))
	}
	if err == nil {
		if reserved != chargeAtDelivery {
			vm.adoptStorage(msg, rec.cluster.heap, reserved, size)
		} else {
			err = vm.chargeMessageOn(rec.cluster.heap, msg, decoded)
		}
	}
	if err != nil {
		msg.reply.deliver(NilTask)
		recycleMessage(msg)
		return err
	}
	// Charge the transfer to the destination PE's clock without occupying its
	// CPU: the inter-cluster copy is bus (or network) work, not receiver
	// computation.
	rec.cluster.primary.Charge(int64(costRouteMsg + costSendPacket*((msg.heapBytes-msgcodec.HeaderBytes)/msgcodec.PacketBytes)))
	// A receiver that terminated while the message was in flight is not an
	// error here: the send already succeeded from the sender's point of view,
	// and the message is dropped like any message queued at a task's
	// termination.
	_ = vm.enqueue(rec, msg)
	return nil
}
