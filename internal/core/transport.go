package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/memory"
	"repro/internal/obs"
)

// Cross-cluster transport seam.
//
// Every cross-cluster message travels as real msgcodec wire bytes between
// per-cluster heap shards; between two clusters of one process the sending
// task moves the bytes itself (router.go).  This file is the seam that lets a
// PISCES machine be partitioned across OS processes ("nodes", internal/node):
// each VM hosts a subset of the configured clusters, and a frame whose
// destination cluster is hosted elsewhere is handed to the VM's remote
// Transport instead of being delivered in place.  The inbound half of the
// seam is not a Transport but two calls every transport ends in: DeliverWire
// — for each run of frames to one task, decode the wire bytes, charge the
// destination shard, queue on the destination task — and DeliverWireReply
// for the reply to a routed initiate.
//
// Hosting is structural, not partial: every node boots the FULL configuration
// (all clusters, all controllers), so system-table layout, heap shards, and —
// critically — controller taskids are identical on every node (taskids are
// assigned from one deterministic boot sequence).  Controllers of non-hosted
// clusters are "ghosts": they run their accept loops but nothing is ever
// delivered to them, because dispatch hands traffic for a non-hosted cluster
// to the remote Transport before any local lookup.  User tasks are only ever
// placed on hosted clusters by the node that hosts them, so a taskid's
// cluster number always names the one node that can resolve it.

// FrameKind distinguishes the cross-cluster frame types a Transport carries.
type FrameKind uint8

const (
	// FrameMessage is an ordinary routed message (user SEND, routed INITIATE
	// request, TO USER output) addressed to one destination task.
	FrameMessage FrameKind = iota + 1
	// FrameBroadcast is a TO ALL [CLUSTER n] SEND: the receiving node fans it
	// out to every user task it hosts (filtered by Dst when non-zero).
	FrameBroadcast
)

// WireFrame is one cross-cluster message in wire form: the msgcodec-encoded
// argument bytes plus the header fields that travel alongside the packets —
// exactly what the FLEX/32 header carried next to its packet list, now
// explicit so it can cross a socket.
type WireFrame struct {
	Kind FrameKind
	// Src and Dst are cluster numbers.  Src identifies the sending cluster
	// (reply frames for routed initiates travel back toward it); Dst is the
	// destination cluster, or 0 on a machine-wide broadcast.
	Src int
	Dst int
	// Dest is the destination task (FrameMessage only).
	Dest TaskID
	// Type is the message type named in the SEND statement.
	Type string
	// Sender is the taskid of the sending task.
	Sender TaskID
	// SendSeq is the sender task's HA send sequence number (0 = unsequenced);
	// receivers use it for duplicate suppression after a recovery replay.
	SendSeq uint64
	// ReplyID, when non-zero, correlates a routed initiate request with the
	// reply frame carrying the new task's id back to the requesting node.
	ReplyID uint64
	// Edge is the causal edge id stamped at the send site (0 = unstamped).
	// It travels in the frame header so the receiving node's trace and
	// flight-recorder events correlate with the sender's.
	Edge uint64
	// Payload is the msgcodec encoding of the argument list.  It is only
	// valid until Send returns: implementations that do not deliver
	// synchronously must copy it.
	Payload []byte
	// Stamp is set by the transport on a FrameMessage: the flight-recorder
	// stamp of the lane batch the frame joined (obs.Registry.ShareStamp),
	// which routeRemote records the send with.  A frame that joined no batch
	// leaves it unread, and the send reads a stamp of its own.
	Stamp obs.Stamp
}

// Transport carries cross-cluster wire frames between clusters hosted by
// different VMs: a node's batched lanes (internal/node), whether its
// connections are loopback TCP or the in-memory fault network a
// node.FaultMesh runs its nodes on.  A frame between two clusters of one VM
// never reaches a Transport.  Implementations must preserve per-sender FIFO
// order for frames with the same (Src, Dst) pair.  The frame AND its Payload
// are borrowed: both are valid only until Send returns (the header and the
// payload buffer are pooled together and reused at that point), so a
// transport that defers delivery must copy what it needs before returning —
// the node transport encodes the frame into its batch buffer inside Send.
type Transport interface {
	// Send hands one frame to the transport.
	Send(f *WireFrame) error
	// SendReply carries the reply to a routed initiate request back toward
	// cluster dst (the requesting node resolves replyID in its pending
	// table).
	SendReply(dst int, replyID uint64, id TaskID) error
	// Flush blocks until every frame accepted before the call has been
	// delivered (fault injection) or handed to the network (TCP).
	Flush()
	// Close stops the transport after draining.
	Close() error
}

// hosts reports whether cluster n's tasks live in this process.  Lock-free:
// the hosted set is an immutable snapshot, replaced wholesale on adoption.
func (vm *VM) hosts(n int) bool {
	m := vm.hosted.Load()
	if m == nil {
		return true
	}
	return (*m)[n]
}

// HostedClusters returns the cluster numbers hosted by this VM, ascending.
func (vm *VM) HostedClusters() []int {
	var out []int
	for _, n := range vm.clusterNumbers() {
		if vm.hosts(n) {
			out = append(out, n)
		}
	}
	return out
}

// partial reports whether some configured cluster is hosted elsewhere.
func (vm *VM) partial() bool {
	m := vm.hosted.Load()
	return m != nil && len(*m) < len(vm.clusters)
}

// addPendingReply registers a routed-initiate reply and returns the
// correlation id a reply frame must carry.  The id is node-qualified like an
// edge id (edgeBase | seq): a reply routed by cluster to a dead node's buddy
// after adoption then finds no waiter there, where a bare counter, which
// starts at 1 on every node, could wake one of the buddy's own.
func (vm *VM) addPendingReply(r *initReply) uint64 {
	id := vm.edgeBase | vm.replySeq.Add(1)
	vm.pendMu.Lock()
	vm.pendingReplies[id] = r
	vm.pendMu.Unlock()
	return id
}

// takePendingReply removes and returns the pending reply, or nil if it was
// already delivered (or never registered).
func (vm *VM) takePendingReply(id uint64) *initReply {
	vm.pendMu.Lock()
	r := vm.pendingReplies[id]
	delete(vm.pendingReplies, id)
	vm.pendMu.Unlock()
	return r
}

// failPendingReplies delivers NilTask to every reply still pending, so
// initiators blocked in InitiateWait (possibly on another node's behalf)
// unblock at shutdown.
func (vm *VM) failPendingReplies() {
	vm.pendMu.Lock()
	pending := make([]*initReply, 0, len(vm.pendingReplies))
	for id, r := range vm.pendingReplies {
		pending = append(pending, r)
		delete(vm.pendingReplies, id)
	}
	vm.pendMu.Unlock()
	for _, r := range pending {
		r.deliver(NilTask)
	}
}

// routeRemote sends one cross-cluster message through the remote Transport.
// The sender's heap shard answers for the outbound copy it models, and the
// argument list is encoded into the pooled frame's payload buffer (stageOut),
// which the transport copies or transmits before Send returns.  The shard
// therefore holds nothing while Send waits, credit stalls included.  The
// send's Route event is emitted once Send returns, stamped with the lane
// batch the frame joined (WireFrame.Stamp), so the sends of one batch cost
// the recorder one clock read; a failed send is recorded too.  The
// destination shard is charged by the receiving node at delivery — a remote
// receiver's heap exhaustion cannot fail the sender synchronously, so an
// undeliverable frame is dropped there like any message in flight to a
// terminated task.  from is nil when the sender is the execution environment,
// which has no shard.
func (vm *VM) routeRemote(from *clusterRT, to TaskID, msgType string, sender TaskID, args []Value, sendSeq uint64, reply *initReply) (int, error) {
	if vm.remote == nil {
		return 0, fmt.Errorf("core: cluster %d is not hosted by this node and no remote transport is configured", to.Cluster)
	}
	spanT0 := vm.om.reg.SpanStart()
	src := vm.home
	var shard *memory.Allocator
	if from != nil {
		src, shard = from.cfg.Number, from.heap
	}
	o, size, err := vm.stageOut(shard, msgType, args)
	if err != nil {
		return 0, err
	}
	edge := vm.newEdge()
	f := &o.WireFrame
	f.set(FrameMessage, src, to.Cluster, msgType, sender, sendSeq, edge)
	f.Dest = to
	if reply != nil {
		reply.edge = edge
		f.ReplyID = vm.addPendingReply(reply)
	}
	sendErr := vm.remote.Send(f)
	ring := [1]obs.RingEvent{{Edge: edge, A: int64(src), B: int64(to.Cluster)}}
	if vm.om.reg.EmitRun(obs.Route, ring[:], &o.Stamp) {
		vm.emitStamped(&obs.Event{Kind: obs.Route, Edge: edge, Type: msgType, A: int64(src), B: int64(to.Cluster), Start: spanT0}, nil, &o.Stamp)
	}
	replyID := o.ReplyID
	o.release()
	if sendErr != nil {
		if replyID != 0 {
			if r := vm.takePendingReply(replyID); r != nil {
				r.deliver(NilTask)
			}
		}
		return 0, sendErr
	}
	return size, nil
}

// outFrame is a pooled outbound frame: the header routeRemote and
// routeBroadcast hand to Send and the payload buffer the argument list is
// encoded into (stageOut).  The Transport contract makes both valid only
// until Send returns — routeMessage's delivery, too, is done with the bytes
// when it returns — so they are reused together the moment it does.
type outFrame struct {
	WireFrame
	buf   []byte  // capacity framePayloadBytes
	large *[]byte // a buffer from largePayloads, while the frame holds one
}

// framePayloadBytes is the nominal payload buffer of a pooled frame.  Only
// nominal buffers are pooled with the frame, the rule the node transport has
// for its batch buffers: a list whose packet-model size is larger is encoded
// into a buffer from largePayloads, which goes back to its own pool once Send
// has returned, so one large array never pins its buffer in a frame.  It
// holds a 4 KiB array with room over.
const framePayloadBytes = 8 << 10

var wireFramePool = sync.Pool{New: func() any { return &outFrame{buf: make([]byte, 0, framePayloadBytes)} }}

// largePayloads pools the payload buffers of lists over framePayloadBytes by
// power-of-two capacity (index: bits.Len of the capacity less one), so a run
// of large sends reuses one buffer rather than allocating each; like any
// sync.Pool it lets them go at GC.
var largePayloads [bits.UintSize]sync.Pool

// payloadBuf returns the buffer to encode a list of packet-model size size
// into: the frame's own when it is large enough, else a pooled large one the
// frame holds until release.
func (o *outFrame) payloadBuf(size int) []byte {
	if size <= cap(o.buf) {
		return o.buf
	}
	class := bits.Len(uint(size - 1))
	if b, ok := largePayloads[class].Get().(*[]byte); ok {
		o.large = b
	} else {
		b := make([]byte, 0, 1<<class)
		o.large = &b
	}
	return (*o.large)[:0]
}

// release returns the frame to the pool and a large payload buffer to its
// own.
func (o *outFrame) release() {
	if o.large != nil {
		largePayloads[bits.Len(uint(cap(*o.large)-1))].Put(o.large)
		o.large = nil
	}
	o.Payload = nil
	wireFramePool.Put(o)
}

// routeBroadcast ships one broadcast frame through the remote Transport so
// nodes hosting other clusters fan it out to their user tasks.  cluster is
// the TO ALL CLUSTER filter (0 = every cluster).  The frame is for several
// receivers on several shards and no one outbound copy is modelled for it:
// the sender's shard is not asked, and the payload is encoded into the pooled
// frame like a routed message's.
func (vm *VM) routeBroadcast(from *clusterRT, cluster int, msgType string, sender TaskID, args []Value, sendSeq uint64) error {
	if vm.remote == nil {
		return nil
	}
	o, _, err := vm.stageOut(nil, msgType, args)
	if err != nil {
		return err
	}
	defer o.release()
	// Broadcasts get a real edge (so the recorder sees them, B = -1 marking
	// the fan-out) but no flow events: a flow with several ends renders as a
	// tangle, not a path.
	edge := vm.newEdge()
	vm.emit(&obs.Event{Kind: obs.Route, Edge: edge, Type: msgType, A: int64(from.cfg.Number), B: -1}, nil)
	f := &o.WireFrame
	f.set(FrameBroadcast, from.cfg.Number, cluster, msgType, sender, sendSeq, edge)
	return vm.remote.Send(f)
}

// set writes an outbound frame's header fields in place, over whatever the
// pooled frame carried last: Dest and ReplyID are left zero, for the caller
// to fill in, and Stamp is zero for the transport to set.  Payload is
// stageOut's.  The frame is never copied whole: a WireFrame is 19 words.
func (f *WireFrame) set(kind FrameKind, src, dst int, msgType string, sender TaskID, sendSeq, edge uint64) {
	f.Kind, f.Src, f.Dst, f.Dest = kind, src, dst, NilTask
	f.Type, f.Sender, f.SendSeq, f.ReplyID = msgType, sender, sendSeq, 0
	f.Edge, f.Stamp = edge, obs.Stamp{}
}

// DeliverWire injects a batch of inbound wire frames into this VM, in
// arrival order: the inbound half of every transport.  The batch is delivered
// run by run.  A run is the frames for one task that follow each other; a
// routed initiate request (ReplyID != 0) and a broadcast are each a run of
// one.  A run pays once for what does not depend on its length — one task
// lookup, and admitRun's one shard admission, PE charge, in-queue lock round
// and wake-up — and each of its messages is decoded, charged, timed and
// traced as its own.  A routed initiate request gets a reply hook that sends
// the new task's id back toward the requesting cluster.  A frame for a task
// that is not running here is dropped exactly like a message in flight to a
// terminated task (the send already succeeded at the sender); one the VM
// cannot take (a full shard, a corrupt payload) is dropped loudly, and the
// first such error is returned.  rx, when non-nil, is called with each
// frame's index once that frame is delivered and its wire-deliver event
// emitted, so a caller's per-frame instruments follow in frame order.
// Callers must preserve per-sender arrival order, which a per-peer socket
// reader does naturally.
func (vm *VM) DeliverWire(frames []WireFrame, rx func(i int)) error {
	var first error
	for i := 0; i < len(frames); {
		k := runLen(frames[i:])
		if err := vm.deliverWireRun(frames[i:i+k], i, rx); err != nil && first == nil {
			first = err
		}
		i += k
	}
	return first
}

// runLen returns the length of the run frames starts with.
func runLen(frames []WireFrame) int {
	f := &frames[0]
	if f.Kind != FrameMessage || f.ReplyID != 0 {
		return 1
	}
	k := 1
	for k < len(frames) && frames[k].Kind == FrameMessage && frames[k].ReplyID == 0 && frames[k].Dest == f.Dest {
		k++
	}
	return k
}

// wireRun is the scratch of one run's delivery, pooled: a header, an error
// and a deliver-span start a frame.
type wireRun struct {
	msgs []*Message
	errs []error
	t0   []time.Time
}

var wireRunPool = sync.Pool{New: func() any { return new(wireRun) }}

// reset sizes the scratch for a run of n frames, its headers and errors
// cleared.
func (s *wireRun) reset(n int) {
	s.msgs = slices.Grow(s.msgs[:0], n)[:n]
	s.errs = slices.Grow(s.errs[:0], n)[:n]
	s.t0 = slices.Grow(s.t0[:0], n)[:n]
	clear(s.msgs)
	clear(s.errs)
}

// deliverWireRun delivers one run of DeliverWire's batch, whose first frame
// is the batch's frame base.
func (vm *VM) deliverWireRun(run []WireFrame, base int, rx func(i int)) error {
	f := &run[0]
	if f.Kind == FrameBroadcast {
		err := vm.deliverWireBroadcast(f)
		if rx != nil {
			rx(base)
		}
		return err
	}
	var reply *initReply
	if f.ReplyID != 0 {
		rid, src := f.ReplyID, f.Src
		reply = &initReply{fn: func(id TaskID) {
			if vm.remote == nil {
				// Nothing to carry it: the request can only have come from
				// this VM's own pending table.
				vm.DeliverWireReply(rid, id)
			} else if err := vm.remote.SendReply(src, rid, id); err != nil {
				vm.userPrintf("pisces: node: initiate reply to cluster %d lost: %v\n", src, err)
			}
		}}
	}
	rec, ok := vm.lookupTask(f.Dest)
	if !ok || !vm.hosts(f.Dest.Cluster) {
		reply.deliver(NilTask)
		if rx != nil {
			for i := range run {
				rx(base + i)
			}
		}
		return nil
	}
	s := wireRunPool.Get().(*wireRun)
	defer wireRunPool.Put(s)
	s.reset(len(run))
	// An inbound frame's decode+charge+queue is the same layer routeMessage's
	// delivery is for in-process traffic, so it carries the same metrics and
	// a deliver span (trace lane "router/c<dst><-wire").
	reg := vm.om.reg
	metrics, spans := vm.metricsOn(), reg.Has(obs.Spans)
	for i := range run {
		g := &run[i]
		if spans {
			s.t0[i] = reg.Now()
		}
		msg := g.message(reply)
		if s.errs[i] = vm.decodeInbound(msg, g.Payload, metrics); s.errs[i] == nil {
			s.msgs[i] = msg
		}
	}
	vm.admitRun(rec, s.msgs, s.errs, metrics)
	// A routed initiate still owes its sender a reply frame, so the flow
	// steps through here and ends when the reply lands back on the
	// requesting node; plain messages end here.
	kind := obs.WireDeliver
	if f.ReplyID != 0 {
		kind = obs.WireDeliverStep
	}
	watching := reg.Watching(kind)
	var first error
	for i := range run {
		g := &run[i]
		if watching {
			vm.emit(&obs.Event{Kind: kind, Edge: g.Edge, Type: g.Type, A: int64(g.Dest.Cluster), Start: s.t0[i]}, nil)
		}
		if err := s.errs[i]; err != nil {
			// A remote receiver's failure cannot reach the sender: the frame
			// is dropped here, loudly.  (A decode failure is unreachable for
			// run-time-encoded frames.)
			vm.userPrintf("pisces: node: dropping %s from %s for %s: %v\n", g.Type, g.Sender, g.Dest, err)
			if first == nil {
				first = err
			}
		}
		if rx != nil {
			rx(base + i)
		}
	}
	return first
}

// deliverWireBroadcast fans an inbound broadcast frame out to every hosted
// user task, in taskid order so deterministic backends replay it.  Each
// receiver decodes its own copy of the arguments, exactly as it would for a
// cross-cluster broadcast inside one process, and each copy delivered counts
// as one send here, as each copy sent inside one process does there.
func (vm *VM) deliverWireBroadcast(f *WireFrame) error {
	var firstErr error
	for _, rec := range vm.broadcastTargets(f.Dst, f.Sender) {
		if err := vm.deliverInbound(rec, f.message(nil), f.Payload); err != nil {
			vm.userPrintf("pisces: node: dropping broadcast %s from %s for %s: %v\n", f.Type, f.Sender, rec.id, err)
			if firstErr == nil {
				firstErr = err
			}
		} else if vm.metricsOn() {
			vm.om.metrics().sends.Inc()
		}
	}
	return firstErr
}

// message builds the in-queue header of the message the frame carries; its
// arguments are still wire bytes (see deliverInbound).
func (f *WireFrame) message(reply *initReply) *Message {
	msg := newMessage(f.Type, f.Sender)
	msg.sendSeq, msg.edge, msg.reply = f.SendSeq, f.Edge, reply
	return msg
}

// broadcastTargets returns the running user tasks a TO ALL [CLUSTER n] SEND
// from sender reaches on this VM — hosted here, in cluster (0 = any), not the
// sender itself — in taskid order: broadcast arrival order must not depend on
// map iteration, or deterministic runs would diverge between executions.  The
// sending task and a receiving node's fan-out both ask here, so the two
// cannot disagree on who a broadcast is for.
func (vm *VM) broadcastTargets(cluster int, sender TaskID) []*taskRec {
	vm.mu.Lock()
	var targets []*taskRec
	for id, rec := range vm.tasks {
		if rec.isController || id == sender || cluster != 0 && id.Cluster != cluster || !vm.hosts(id.Cluster) {
			continue
		}
		targets = append(targets, rec)
	}
	vm.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].id.less(targets[j].id) })
	return targets
}

// DeliverWireReply resolves an inbound initiate-reply frame against the
// pending table and wakes the initiator.  Unknown ids are ignored (the VM
// may have failed the reply at shutdown already).
func (vm *VM) DeliverWireReply(replyID uint64, id TaskID) {
	r := vm.takePendingReply(replyID)
	if r == nil {
		return
	}
	// Close the cross-node round trip: the routed initiate's flow stepped
	// through the remote node's deliver span and ends on the reply span here,
	// back on the requesting node.
	vm.emit(&obs.Event{Kind: obs.WireReply, Edge: r.edge, A: int64(vm.home), Start: vm.om.reg.SpanStart()}, nil)
	r.deliver(id)
}

// flushTransports lands in-flight cross-cluster traffic.  Sends between
// hosted clusters are delivered before they return, so only a remote
// transport (a socket batch, a fault injector's delay line) can hold any.
func (vm *VM) flushTransports() {
	if vm.remote != nil {
		vm.remote.Flush()
	}
}
