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
//
// Version 8: a node's buddy holds its initiation log.  0x0f is no longer the
// restore plan a sender replayed ahead of a retained initiate request but
// one init-log entry, 0x10 its ack, and fCkpt carries the log count the
// checkpoint covers between its epoch and its blob.
//
// Version 9: a heartbeat carries the generation of its sender's exit records
// and a checkpoint mark the generation its sender heard before the cut, so a
// node ages its exit records whatever traffic it sends.
//
// Version 10: the buddy that stores a checkpoint sends its marks.  fCkpt
// carries one (peer, count, gen) row per peer before its blob, the buddy
// sends each live peer its row as an fCkptMark whose from names the
// checkpointed node, and 0x0b, the buddy's ack, is retired.
//
// Version 11: a node answers a drain round once its user tasks are idle, so
// fDrainAck no longer carries an idle byte after its totals.
const protoVersion = 11

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
	fCkptMark       = 0x0c
	fRebalance      = 0x0d
	fRebalanceReady = 0x0e
	fInitLog        = 0x0f
	fInitLogAck     = 0x10
)

// frameRow is everything the node knows about one frame kind.  A credited
// frame consumes one of its lane's flow-control credits, which the receiver
// grants back once the frame reached its VM; a counted frame takes part in
// the drain protocol's global sent/recv balance and in HA retention.  decode
// reads the body into the frame's fields; handle acts on them on the
// receiving node — except for the data frames, whose handle is nil: the
// deliver stage gathers them into runs for the VM (stage.flush).
type frameRow struct {
	name     string
	credited bool
	counted  bool
	layout   string // the body, for README's frame table
	decode   func(m *frame, body []byte) error
	handle   func(n *Node, from int, m *frame)
}

// frameTable is indexed by kind byte; row 0 stands in for every byte that is
// not a kind (decodeFrame).  A new frame kind is one row here (and one in
// README); a retired kind's byte stays unassigned.  Filled
// in by init because the handlers reach back to the table through the
// transport.
var frameTable [fInitLogAck + 1]frameRow

func init() {
	frameTable = [...]frameRow{
		0:               {"unknown", false, false, "", decodeUnknown, nil},
		fHello:          {"hello", false, false, "i32 version, i32 node, 32-byte fingerprint, topology", decodeHello, (*Node).handleHello},
		fMsg:            {"msg", true, true, "i32 src, i32 dst, taskid dest, taskid sender, u64 sendSeq, u64 replyID, u64 edge, str16 type, payload", decodeData, nil},
		fBcast:          {"bcast", true, true, "i32 src, i32 dst, taskid sender, u64 sendSeq, u64 edge, str16 type, payload", decodeData, nil},
		fInitReply:      {"init-reply", false, true, "u64 replyID, taskid id", decodeInitReply, (*Node).handleInitReply},
		fDrain:          {"drain", false, false, "u32 epoch", decodeU32, (*Node).handleDrain},
		fDrainAck:       {"drain-ack", false, false, "i32 from, u32 epoch, u64 sent, u64 recv, bytes32 stats, bytes32 trace", decodeDrainAck, (*Node).handleDrainAck},
		fShutdown:       {"shutdown", false, false, "", decodeEmpty, (*Node).handleShutdown},
		fCredit:         {"credit", false, false, "u32 count", decodeU32, (*Node).handleCredit},
		fHeartbeat:      {"heartbeat", false, false, "i32 from, u64 gen", decodeFromCount, (*Node).handleHeartbeat},
		fCkpt:           {"ckpt", false, false, "i32 from, u64 epoch, u64 count, u32 n, n × (i32 peer, u64 count, u64 gen), checkpoint", decodeCkpt, (*Node).storeCheckpoint},
		fCkptMark:       {"ckpt-mark", false, false, "i32 from, u64 count, u64 gen", decodeMark, (*Node).handleCkptMark},
		fRebalance:      {"rebalance", false, false, "i32 dead, i32 buddy", decodeRebalance, (*Node).handleRebalanceFrame},
		fRebalanceReady: {"rebalance-ready", false, false, "i32 dead, i32 buddy", decodeRebalance, (*Node).handleRebalanceFrame},
		fInitLog:        {"init-log", false, false, "i32 from, u64 count, i32 cluster, taskid parent, u64 seq, taskid id", decodeInitLog, (*Node).handleInitLog},
		fInitLogAck:     {"init-log-ack", false, false, "i32 from, u64 count", decodeFromCount, (*Node).handleInitLogAck},
	}
}

// frame is one decoded protocol frame: its kind and the union of the fields
// the kinds carry (each row's layout says which).  Byte slices and the
// message payload alias the decoded buffer.  A delivery loop reuses one frame
// for its whole lifetime, so fields of other kinds hold stale values.
type frame struct {
	kind byte
	// msg is where an fMsg or fBcast frame is decoded to: the stage points it
	// at its run's next slot, so a data frame is written once, in place
	// (stage.take).  decodeData gives a frame that has none one of its own.
	msg         *core.WireFrame
	hello       hello           // fHello
	ack         drainAck        // fDrainAck
	from        int             // fHeartbeat, fCkpt, fInitLog, fInitLogAck: the sender names itself; fCkptMark: the node whose checkpoint it marks
	epoch       uint64          // fCkpt; the generation of fCkptMark
	count       uint64          // fCredit, fCkpt, fCkptMark, fInitLog, fInitLogAck; the epoch of fDrain; the generation of fHeartbeat
	marks       []mark          // fCkpt
	blob        []byte          // fCkpt
	dead, buddy int             // fRebalance, fRebalanceReady
	replyID     uint64          // fInitReply
	id          core.TaskID     // fInitReply
	logged      core.LoggedInit // fInitLog
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
	if int(m.kind) < len(frameTable) && frameTable[m.kind].decode != nil {
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

// checkWireType refuses a type the wire's u16 length cannot carry: a longer
// name would decode as a shorter type followed by garbage.
func checkWireType(node int, f *core.WireFrame) error {
	if len(f.Type) <= msgcodec.MaxStr16 {
		return nil
	}
	return fmt.Errorf("node %d: message type of %d bytes exceeds the wire format's %d", node, len(f.Type), msgcodec.MaxStr16)
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

// decodeData reverses encodeWireFrame into *m.msg.  Every field but Stamp,
// which no receiver reads, is written, so a reused WireFrame carries nothing
// over — except that a run of one message type keeps one Type string: the
// name bytes are compared with the Type the WireFrame held (a comparison that
// does not allocate) and converted only when they differ.  Payload aliases
// body; Type never does.
func decodeData(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	if m.msg == nil {
		m.msg = new(core.WireFrame)
	}
	f := m.msg
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

func encodeDrain(epoch uint32) []byte { return msgcodec.AppendU32([]byte{fDrain}, epoch) }

// decodeU32 reads a credit grant's count or a drain round's epoch.
func decodeU32(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	m.count = uint64(c.U32())
	return c.Done()
}

// drainAck is a node's answer to one drain round, given once its user tasks
// are idle: its frame totals.  When a follower has metrics enabled it
// piggybacks its current metric snapshot (obs wire encoding) so the
// coordinator can merge a cluster-wide view without an extra protocol round.
// Spans piggyback the same way: trace carries the follower's span blob
// (obs.EncodeTrace) so the coordinator can write one merged Chrome trace
// with a process track per node.  Only an answer to round 2 or later carries
// the blobs, since round 1 cannot end the drain; the price is that a drain
// that never gets past round 1 reports no follower metrics or spans.  An
// empty blob means round 1, or metrics or spans off.
type drainAck struct {
	from  int
	epoch uint32
	sent  uint64
	recv  uint64
	stats []byte
	trace []byte
}

func encodeDrainAck(a drainAck) []byte {
	b := msgcodec.AppendI32([]byte{fDrainAck}, a.from)
	b = msgcodec.AppendU32(b, a.epoch)
	b = msgcodec.AppendU64(b, a.sent)
	b = msgcodec.AppendU64(b, a.recv)
	return msgcodec.AppendBytes32(msgcodec.AppendBytes32(b, a.stats), a.trace)
}

func decodeDrainAck(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	a := &m.ack
	a.from, a.epoch, a.sent, a.recv = c.I32(), c.U32(), c.U64(), c.U64()
	a.stats, a.trace = c.Bytes(c.Count(1)), c.Bytes(c.Count(1))
	return c.Done()
}

// encodeHeartbeat builds the liveness beacon, which carries the generation
// of the sender's exit records (transport.ageExitRecords) in its count.  The
// lane already identifies the sender; the id travels anyway so a heartbeat
// is self-describing in a packet capture.
func encodeHeartbeat(from int, gen uint64) []byte { return encodeFromCount(fHeartbeat, from, gen) }

// encodeCkpt wraps one checkpoint blob for buddy streaming, with the count of
// the sender's initiation log the checkpoint covers and the receive marks
// taken with the cut, one row per peer, which the buddy sends on when it
// stores the blob.  The blob bytes are the msgcodec checkpoint container
// produced by core.VM.Checkpoint; the node layer treats them as opaque.
func encodeCkpt(from int, epoch, count uint64, marks []mark, blob []byte) []byte {
	b := msgcodec.AppendU64(msgcodec.AppendI32([]byte{fCkpt}, from), epoch)
	b = msgcodec.AppendU32(msgcodec.AppendU64(b, count), uint32(len(marks)))
	for _, mk := range marks {
		b = msgcodec.AppendU64(msgcodec.AppendU64(msgcodec.AppendI32(b, mk.peer), mk.count), mk.gen)
	}
	return append(b, blob...)
}

func decodeCkpt(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	m.from, m.epoch, m.count = c.I32(), c.U64(), c.U64()
	m.marks = m.marks[:0]
	for n := c.Count(4 + 8 + 8); n > 0; n-- { // i32 peer, u64 count, u64 gen
		m.marks = append(m.marks, mark{peer: c.I32(), count: c.U64(), gen: c.U64()})
	}
	m.blob = c.Rest()
	return c.Err()
}

// encodeFromCount builds a frame whose body is its sender and one u64, as
// fInitLogAck is: the buddy holds the initiation log up to entry `count`.
func encodeFromCount(kind byte, from int, count uint64) []byte {
	return msgcodec.AppendU64(msgcodec.AppendI32([]byte{kind}, from), count)
}

func decodeFromCount(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	m.from, m.count = c.I32(), c.U64()
	return c.Done()
}

// encodeMark is fCkptMark, from the buddy that stored node from's checkpoint
// to the peer mk names: "from's checkpoint covers the first `count` counted
// frames your lane delivered to it — drop them from retention", exact as both
// ends number them in the lane's FIFO order, and "from cut it after hearing
// generation `gen` of your exit records".  The decoder puts gen in epoch.
func encodeMark(from int, mk mark) []byte {
	return msgcodec.AppendU64(encodeFromCount(fCkptMark, from, mk.count), mk.gen)
}

func decodeMark(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	m.from, m.count, m.epoch = c.I32(), c.U64(), c.U64()
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

// encodeInitLog carries entry `count` of the sender's initiation log to its
// buddy: one initiation its task controller started, logged before the child
// runs (transport.LogInit).
func encodeInitLog(from int, count uint64, l core.LoggedInit) []byte {
	b := msgcodec.AppendI32(encodeFromCount(fInitLog, from, count), l.Cluster)
	return l.ID.AppendWire(msgcodec.AppendU64(l.Parent.AppendWire(b), l.Seq))
}

func decodeInitLog(m *frame, body []byte) error {
	c := msgcodec.NewCursor(body)
	l := &m.logged
	m.from, m.count = c.I32(), c.U64()
	l.Cluster, l.Parent, l.Seq, l.ID = c.I32(), core.ReadTaskID(&c), c.U64(), core.ReadTaskID(&c)
	return c.Done()
}

func (n *Node) handleHello(from int, _ *frame) {
	fmt.Fprintf(n.opts.Log, "node %d: hello from node %d outside the handshake\n", n.opts.NodeID, from)
}

func (n *Node) handleInitReply(from int, m *frame) {
	n.tr.deliverStart(from)
	n.vm.DeliverWireReply(m.replyID, m.id)
	n.tr.deliverDone(from, 1)
}

// handleDrain answers a drain round off the deliver stage (answerDrain runs
// in a task of its own): the answer waits until the local tasks are idle, and
// a task may be waiting for what this lane carries behind the drain frame — a
// credit grant, an init-log ack.
func (n *Node) handleDrain(_ int, m *frame) { n.answerDrain(uint32(m.count)) }

func (n *Node) handleDrainAck(_ int, m *frame) {
	ack := m.ack
	ack.stats, ack.trace = nil, nil // alias the lane's buffer; decoded below
	// A follower with metrics enabled piggybacks its current metric snapshot;
	// keep the latest per node for the merged view.
	if len(m.ack.stats) > 0 {
		if snap, err := obs.DecodeSnapshot(m.ack.stats); err == nil {
			n.mu.Lock()
			n.followerSnap[ack.from] = snap
			n.mu.Unlock()
		} else {
			fmt.Fprintf(n.opts.Log, "node %d: bad stats blob from node %d: %v\n", n.opts.NodeID, ack.from, err)
		}
	}
	// Same piggyback pattern for span traces: keep the latest blob per
	// follower for the merged mesh trace.
	if len(m.ack.trace) > 0 {
		if tr, err := obs.DecodeTrace(m.ack.trace); err == nil {
			n.mu.Lock()
			n.followerTrace[ack.from] = tr
			n.mu.Unlock()
		} else {
			fmt.Fprintf(n.opts.Log, "node %d: bad trace blob from node %d: %v\n", n.opts.NodeID, ack.from, err)
		}
	}
	n.takeAck(ack)
}

func (n *Node) handleShutdown(int, *frame) { n.signalShutdown() }

func (n *Node) handleCredit(from int, m *frame) { n.tr.addCredits(from, uint32(m.count)) }

// handleHeartbeat notes the generation the peer announced; the readLoop
// already fed the detector.
func (n *Node) handleHeartbeat(from int, m *frame) { n.tr.heard(from, m.count) }

// handleCkptMark takes a mark the buddy of node m.from sent on its behalf
// (the lane is the buddy's) and wakes FaultMesh.Checkpoint, which waits on it.
func (n *Node) handleCkptMark(_ int, m *frame) {
	n.tr.ackRetained(m.from, m.count, m.epoch)
	n.update(func() {})
}

// handleRebalanceFrame runs a rebalance verdict or all-clear off the deliver
// stage: a rebalance blocks on the route lock and (on the buddy) the restore,
// while senders holding the route lock shared may be waiting on credits only
// the deliver stage can deliver.
func (n *Node) handleRebalanceFrame(_ int, m *frame) {
	ready, dead, buddy := m.kind == fRebalanceReady, m.dead, m.buddy
	n.spawn(func() { n.handleRebalance(dead, buddy, ready) })
}

// spawn runs f in a task of its own, counted among the readers that
// teardown waits for: a handler that may block runs off its lane's deliver
// stage this way.  Only a task counted there itself may call it.
func (n *Node) spawn(f func()) {
	n.readers.Add(1)
	n.be.Spawn(fmt.Sprintf("node %d handler", n.opts.NodeID), func() {
		defer n.readers.Done()
		f()
	})
}

// handleInitLog is the buddy side of LogInit: hold the entry and ack it.
func (n *Node) handleInitLog(from int, m *frame) {
	n.store.hold(from, m.count, m.logged)
	_ = n.tr.sendControl(from, encodeFromCount(fInitLogAck, n.opts.NodeID, m.count))
}

func (n *Node) handleInitLogAck(from int, m *frame) { n.tr.ackInitLog(from, m.count) }
