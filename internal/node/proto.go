package node

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// Node wire protocol: every TCP frame is a length-prefixed payload
// (msgcodec stream framing) whose first byte selects a row of
// frameTable; the rest is the row's positional body.  Integers are
// big-endian, node ids, cluster numbers and taskid fields 32-bit, strings
// behind a u16 length (msgcodec's wire cursor reads them, its Append*
// functions write them).  Message bodies are the same msgcodec argument
// encoding the in-process routers move between heap shards.
//
// Version 6: fMsg and fBcast carry the sender's HA send sequence number
// (duplicate suppression across a recovery replay) and 64-bit causal edge id
// (cross-node traces), both unconditionally, and no longer a per-VM message
// sequence number nothing read; data frames are credited
// (fCredit); 0x09–0x0f are the fault-tolerance control frames; drain acks
// piggyback the follower's metric snapshot and span trace.  The
// handshake refuses any other version — and, through the fingerprint, any
// peer built from a different configuration, topology or program.
//
// Version 7: the elements of an INTEGER or REAL array argument in a message
// body are little-endian words (msgcodec.Encode); nothing else moved, so a
// version-6 peer would read every array byte-swapped and is refused instead.
const protoVersion = 7

// Frame kind bytes; frameTable describes each.
const (
	fHello          = 0x01
	fMsg            = 0x02
	fBcast          = 0x03
	fInitReply      = 0x04
	fDrain          = 0x05
	fDrainAck       = 0x06
	fShutdown       = 0x07
	fCredit         = 0x08
	fHeartbeat      = 0x09
	fCkpt           = 0x0a
	fCkptAck        = 0x0b
	fCkptMark       = 0x0c
	fRebalance      = 0x0d
	fRebalanceReady = 0x0e
	fRestorePlan    = 0x0f
)

// frameRow is everything the node knows about one frame kind.  A credited
// frame consumes one of its lane's flow-control credits, which the receiver
// grants back once the frame reached its VM; a counted frame takes part in
// the drain protocol's global sent/recv balance and in HA retention.  decode
// reads the body into the frame's fields; handle acts on them on the
// receiving node.
type frameRow struct {
	name     string
	credited bool
	counted  bool
	layout   string // the body, for README's frame table
	decode   func(m *frame, body []byte) error
	handle   func(n *Node, from int, m *frame)
}

// frameTable is indexed by kind byte; row 0 stands in for every byte that is
// not a kind.  A new frame kind is one row here (and one in README).  Filled
// in by init because the handlers reach back to the table through the
// transport.
var frameTable [fRestorePlan + 1]frameRow

func init() {
	frameTable = [...]frameRow{
		0:               {"unknown", false, false, "", decodeUnknown, nil},
		fHello:          {"hello", false, false, "i32 version, i32 node, 32-byte fingerprint, topology", decodeHello, (*Node).handleHello},
		fMsg:            {"msg", true, true, "i32 src, i32 dst, taskid dest, taskid sender, u64 sendSeq, u64 replyID, u64 edge, str16 type, payload", decodeData, (*Node).handleData},
		fBcast:          {"bcast", true, true, "i32 src, i32 dst, taskid sender, u64 sendSeq, u64 edge, str16 type, payload", decodeData, (*Node).handleData},
		fInitReply:      {"init-reply", false, true, "u64 replyID, taskid id", decodeInitReply, (*Node).handleInitReply},
		fDrain:          {"drain", false, false, "u32 epoch", decodeDrain, (*Node).handleDrain},
		fDrainAck:       {"drain-ack", false, false, "i32 from, u32 epoch, u64 sent, u64 recv, u8 idle, bytes32 stats, bytes32 trace", decodeDrainAck, (*Node).handleDrainAck},
		fShutdown:       {"shutdown", false, false, "", decodeEmpty, (*Node).handleShutdown},
		fCredit:         {"credit", false, false, "u32 count", decodeCredit, (*Node).handleCredit},
		fHeartbeat:      {"heartbeat", false, false, "i32 from", decodeHeartbeat, (*Node).handleHeartbeat},
		fCkpt:           {"ckpt", false, false, "i32 from, u64 epoch, checkpoint", decodeCkpt, (*Node).handleCkpt},
		fCkptAck:        {"ckpt-ack", false, false, "i32 from, u64 epoch", decodeCkptAck, (*Node).handleCkptAck},
		fCkptMark:       {"ckpt-mark", false, false, "i32 from, u64 count", decodeCkptMark, (*Node).handleCkptMark},
		fRebalance:      {"rebalance", false, false, "i32 dead, i32 buddy", decodeRebalance, (*Node).handleRebalanceFrame},
		fRebalanceReady: {"rebalance-ready", false, false, "i32 dead, i32 buddy", decodeRebalance, (*Node).handleRebalanceFrame},
		fRestorePlan:    {"restore-plan", false, false, "i32 cluster, taskid parent, u64 seq, taskid id", decodeRestorePlan, (*Node).handleRestorePlan},
	}
}

// frame is one decoded protocol frame: its kind and the union of the fields
// the kinds carry (each row's layout says which).  Byte slices and the
// message payload alias the decoded buffer.  A delivery loop reuses one frame
// for its whole lifetime, so fields of other kinds hold stale values.
type frame struct {
	kind        byte
	msg         core.WireFrame // fMsg, fBcast
	hello       hello          // fHello
	ack         drainAck       // fDrainAck
	from        int            // fHeartbeat, fCkpt, fCkptAck, fCkptMark: the sender names itself
	epoch       uint64         // fDrain, fCkpt, fCkptAck
	count       uint64         // fCredit, fCkptMark
	blob        []byte         // fCkpt
	dead, buddy int            // fRebalance, fRebalanceReady
	replyID     uint64         // fInitReply
	id          core.TaskID    // fInitReply, fRestorePlan
	cluster     int            // fRestorePlan
	parent      core.TaskID    // fRestorePlan
	seq         uint64         // fRestorePlan
}

// decodeFrame decodes a frame payload (kind byte + body) into m and returns
// the kind's row — also on failure, for the diagnostic.  Every error wraps
// msgcodec.ErrCorrupt.
func decodeFrame(m *frame, payload []byte) (*frameRow, error) {
	row := &frameTable[0]
	if len(payload) == 0 {
		return row, fmt.Errorf("%w: empty frame", msgcodec.ErrCorrupt)
	}
	m.kind = payload[0]
	if int(m.kind) < len(frameTable) {
		row = &frameTable[m.kind]
	}
	return row, row.decode(m, payload[1:])
}

func decodeUnknown(m *frame, _ []byte) error {
	return fmt.Errorf("%w: frame type 0x%02x", msgcodec.ErrCorrupt, m.kind)
}

func decodeEmpty(_ *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	return c.Done()
}

// hello is the handshake payload.
type hello struct {
	version     int
	nodeID      int
	fingerprint [32]byte
	topo        Topology
}

func encodeHello(h hello) []byte {
	b := msgcodec.AppendI32([]byte{fHello}, h.version)
	b = msgcodec.AppendI32(b, h.nodeID)
	b = append(b, h.fingerprint[:]...)
	return h.topo.appendTo(b)
}

func decodeHello(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	h := &m.hello
	h.version, h.nodeID = c.I32(), c.I32()
	copy(h.fingerprint[:], c.Bytes(len(h.fingerprint)))
	h.topo = decodeTopology(&c)
	return c.Done()
}

// wireKind is the frame kind a core frame travels as.
func wireKind(f *core.WireFrame) byte {
	if f.Kind == core.FrameBroadcast {
		return fBcast
	}
	return fMsg
}

// encodeWireFrame serialises a core frame (fMsg or fBcast) into buf.
func encodeWireFrame(buf []byte, f *core.WireFrame) []byte {
	kind := wireKind(f)
	buf = append(buf, kind)
	buf = msgcodec.AppendI32(buf, f.Src)
	buf = msgcodec.AppendI32(buf, f.Dst)
	if kind == fMsg {
		buf = f.Dest.AppendWire(buf)
	}
	buf = f.Sender.AppendWire(buf)
	buf = msgcodec.AppendU64(buf, f.SendSeq)
	if kind == fMsg {
		buf = msgcodec.AppendU64(buf, f.ReplyID)
	}
	buf = msgcodec.AppendU64(buf, f.Edge)
	buf = msgcodec.AppendStr16(buf, f.Type)
	return append(buf, f.Payload...)
}

// decodeData reverses encodeWireFrame.  Every field of m.msg is written, so
// a reused frame carries nothing over — except that a run of one message type
// keeps one Type string: the name bytes are compared with the previous
// frame's (a comparison that does not allocate) and converted only when they
// differ.  Payload aliases body; Type never does.
func decodeData(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	f := &m.msg
	f.Kind, f.Dest, f.ReplyID = core.FrameBroadcast, core.NilTask, 0
	f.Src, f.Dst = c.I32(), c.I32()
	if m.kind == fMsg {
		f.Kind = core.FrameMessage
		f.Dest = core.ReadTaskID(&c)
	}
	f.Sender = core.ReadTaskID(&c)
	f.SendSeq = c.U64()
	if m.kind == fMsg {
		f.ReplyID = c.U64()
	}
	f.Edge = c.U64()
	if name := c.Bytes(int(c.U16())); string(name) != f.Type {
		f.Type = string(name)
	}
	f.Payload = c.Rest()
	return c.Err()
}

func encodeInitReply(buf []byte, replyID uint64, id core.TaskID) []byte {
	return id.AppendWire(msgcodec.AppendU64(append(buf, fInitReply), replyID))
}

func decodeInitReply(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	m.replyID, m.id = c.U64(), core.ReadTaskID(&c)
	return c.Done()
}

// encodeCredit builds a credit grant: the receiver returns n consumed
// credits to the sending peer after delivering that many credited data
// frames to its VM.  Credits ride the ordinary control-frame channel (the
// receiver's outbound peer connection) and are themselves uncredited, so a
// grant can never be blocked by the very window it replenishes.
func encodeCredit(n uint32) []byte { return msgcodec.AppendU32([]byte{fCredit}, n) }

func decodeCredit(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	m.count = uint64(c.U32())
	return c.Done()
}

func encodeDrain(epoch uint32) []byte { return msgcodec.AppendU32([]byte{fDrain}, epoch) }

func decodeDrain(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	m.epoch = uint64(c.U32())
	return c.Done()
}

// drainAck is a follower's answer to one drain round.  When the follower has
// metrics enabled it piggybacks its current metric snapshot (obs wire
// encoding) so the coordinator can merge a cluster-wide view without an extra
// protocol round; an empty blob means metrics are off.  Spans piggyback the
// same way: trace carries the follower's span blob (obs.EncodeTrace) so
// the coordinator can write one merged Chrome trace with a process track per
// node; empty means spans are off.
type drainAck struct {
	from  int
	epoch uint32
	sent  uint64
	recv  uint64
	idle  bool
	stats []byte
	trace []byte
}

func encodeDrainAck(a drainAck) []byte {
	b := msgcodec.AppendI32([]byte{fDrainAck}, a.from)
	b = msgcodec.AppendU32(b, a.epoch)
	b = msgcodec.AppendU64(b, a.sent)
	b = msgcodec.AppendU64(b, a.recv)
	if a.idle {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return msgcodec.AppendBytes32(msgcodec.AppendBytes32(b, a.stats), a.trace)
}

func decodeDrainAck(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	a := &m.ack
	a.from, a.epoch, a.sent, a.recv, a.idle = c.I32(), c.U32(), c.U64(), c.U64(), c.U8() != 0
	a.stats, a.trace = c.Bytes(c.Count(1)), c.Bytes(c.Count(1))
	return c.Done()
}

// encodeHeartbeat builds the liveness beacon.  The lane already identifies
// the sender; the id travels anyway so a heartbeat is self-describing in a
// packet capture.
func encodeHeartbeat(from int) []byte { return msgcodec.AppendI32([]byte{fHeartbeat}, from) }

func decodeHeartbeat(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	m.from = c.I32()
	return c.Done()
}

// encodeCkpt wraps one checkpoint blob for buddy streaming.  The blob bytes
// are the msgcodec checkpoint container produced by core.VM.Checkpoint; the
// node layer treats them as opaque.
func encodeCkpt(from int, epoch uint64, blob []byte) []byte {
	return append(msgcodec.AppendU64(msgcodec.AppendI32([]byte{fCkpt}, from), epoch), blob...)
}

func decodeCkpt(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	m.from, m.epoch, m.blob = c.I32(), c.U64(), c.Rest()
	return c.Err()
}

// encodeCkptAck acknowledges that the buddy holds the given checkpoint epoch.
// Retention marks are gated on this ack: a sender may only tell its peers to
// drop retained frames once the blob those frames' effects live in is safely
// held by the node that would replay them.
func encodeCkptAck(from int, epoch uint64) []byte {
	return msgcodec.AppendU64(msgcodec.AppendI32([]byte{fCkptAck}, from), epoch)
}

func decodeCkptAck(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	m.from, m.epoch = c.I32(), c.U64()
	return c.Done()
}

// encodeCkptMark is the retention high-water mark: "my acked checkpoint
// covers the first `count` counted frames your lane delivered to me — drop
// them from retention".  Counts are per-lane and exact because both ends
// number counted frames in the lane's FIFO order.
func encodeCkptMark(from int, count uint64) []byte {
	return msgcodec.AppendU64(msgcodec.AppendI32([]byte{fCkptMark}, from), count)
}

func decodeCkptMark(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	m.from, m.count = c.I32(), c.U64()
	return c.Done()
}

// encodeRebalance is the leader's verdict (fRebalance): node `dead` is gone
// and node `buddy` takes over its clusters — or the buddy's all-clear
// (fRebalanceReady) with the same body.
func encodeRebalance(kind byte, dead, buddy int) []byte {
	return msgcodec.AppendI32(msgcodec.AppendI32([]byte{kind}, dead), buddy)
}

func decodeRebalance(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	m.dead, m.buddy = c.I32(), c.I32()
	return c.Done()
}

// encodeRestorePlan carries one initiate-identity plan ahead of a replayed
// request frame: the buddy's controller must re-create the (parent, seq)
// initiate under the recorded id, not a fresh one, or the id the parent
// already holds would dangle.  Travels on the same lane as the replayed
// frames, so FIFO delivers the plan first.
func encodeRestorePlan(cluster int, parent core.TaskID, seq uint64, id core.TaskID) []byte {
	b := parent.AppendWire(msgcodec.AppendI32([]byte{fRestorePlan}, cluster))
	return id.AppendWire(msgcodec.AppendU64(b, seq))
}

func decodeRestorePlan(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	m.cluster, m.parent, m.seq, m.id = c.I32(), core.ReadTaskID(&c), c.U64(), core.ReadTaskID(&c)
	return c.Done()
}

// deliver decodes one inbound frame and runs its row's handler: the one path
// every frame takes into this node, off a peer's lane (deliverLoop) or out of
// retention during a buddy's local replay (from is then the node itself).
// A malformed frame of any kind is dropped and logged here.
func (n *Node) deliver(from int, payload []byte, m *frame) (*frameRow, error) {
	row, err := decodeFrame(m, payload)
	if err != nil {
		fmt.Fprintf(n.opts.Log, "node %d: malformed %s frame from node %d: %v\n", n.opts.NodeID, row.name, from, err)
		return row, err
	}
	row.handle(n, from, m)
	return row, nil
}

func (n *Node) handleHello(from int, _ *frame) {
	fmt.Fprintf(n.opts.Log, "node %d: hello from node %d outside the handshake\n", n.opts.NodeID, from)
}

func (n *Node) handleData(from int, m *frame) {
	n.tr.countRecv(from)
	// A frame the VM cannot deliver is dropped there, loudly (the sender's
	// SEND already succeeded); it still arrived, so it stays counted.
	_ = n.vm.DeliverWire(&m.msg)
}

func (n *Node) handleInitReply(from int, m *frame) {
	n.tr.countRecv(from)
	if from != n.opts.NodeID {
		// Record the assigned taskid on the retained request frame (if it is
		// still retained), so a post-death replay re-creates the task under
		// the identity the parent already holds.  Not on a local replay: the
		// reply answers the dead node's request, whose reply ids are not this
		// node's.
		n.tr.noteInitReply(m.replyID, m.id)
	}
	n.vm.DeliverWireReply(m.replyID, m.id)
}

func (n *Node) handleDrain(_ int, m *frame) { n.answerDrain(uint32(m.epoch)) }

func (n *Node) handleDrainAck(_ int, m *frame) {
	ack := m.ack
	ack.stats, ack.trace = nil, nil // alias the lane's buffer; decoded below
	// A follower with metrics enabled piggybacks its current metric snapshot;
	// keep the latest per node for the merged view.
	if len(m.ack.stats) > 0 {
		if snap, err := obs.DecodeSnapshot(m.ack.stats); err == nil {
			n.snapMu.Lock()
			n.followerSnap[ack.from] = snap
			n.snapMu.Unlock()
		} else {
			fmt.Fprintf(n.opts.Log, "node %d: bad stats blob from node %d: %v\n", n.opts.NodeID, ack.from, err)
		}
	}
	// Same piggyback pattern for span traces: keep the latest blob per
	// follower for the merged mesh trace.
	if len(m.ack.trace) > 0 {
		if tr, err := obs.DecodeTrace(m.ack.trace); err == nil {
			n.snapMu.Lock()
			n.followerTrace[ack.from] = tr
			n.snapMu.Unlock()
		} else {
			fmt.Fprintf(n.opts.Log, "node %d: bad trace blob from node %d: %v\n", n.opts.NodeID, ack.from, err)
		}
	}
	select {
	case n.acks <- ack:
	default: // a stale round's ack nobody is collecting
	}
}

func (n *Node) handleShutdown(int, *frame) { n.signalShutdown() }

func (n *Node) handleCredit(from int, m *frame) { n.tr.addCredits(from, uint32(m.count)) }

// handleHeartbeat has nothing to do: the readLoop already fed the detector.
func (n *Node) handleHeartbeat(int, *frame) {}

// handleCkpt stores a peer's checkpoint (storeCheckpoint copies the blob: the
// lane's buffer is recycled).
func (n *Node) handleCkpt(from int, m *frame) { n.storeCheckpoint(from, m.epoch, m.blob) }

func (n *Node) handleCkptAck(_ int, m *frame) { n.broadcastMarks(m.epoch) }

func (n *Node) handleCkptMark(from int, m *frame) { n.tr.ackRetained(from, m.count) }

// handleRebalanceFrame runs a rebalance verdict or all-clear off the deliver
// stage: a rebalance blocks on the route lock and (on the buddy) the restore,
// while senders holding the route lock shared may be waiting on credits only
// the deliver stage can deliver.
func (n *Node) handleRebalanceFrame(_ int, m *frame) {
	ready, dead, buddy := m.kind == fRebalanceReady, m.dead, m.buddy
	n.readers.Add(1)
	go func() {
		defer n.readers.Done()
		if ready {
			n.handleRebalanceReady(dead, buddy)
		} else {
			n.handleRebalance(dead, buddy)
		}
	}()
}

func (n *Node) handleRestorePlan(from int, m *frame) {
	if err := n.vm.PlanRestoredInit(m.cluster, m.parent, m.seq, m.id); err != nil {
		fmt.Fprintf(n.opts.Log, "node %d: restore plan from node %d: %v\n", n.opts.NodeID, from, err)
	}
}
