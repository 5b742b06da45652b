package node

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/obs"
	"repro/internal/pfi"
)

// Options configure one node process.
type Options struct {
	// NodeID is this node's index into Addrs.
	NodeID int
	// Addrs lists every node's listen address, in node-id order; the mesh
	// size is len(Addrs).
	Addrs []string
	// Listener optionally provides the already-bound listener for this node
	// (tests bind on port 0 first and pass the result to avoid races); when
	// nil, Start listens on Addrs[NodeID].
	Listener net.Listener
	// Config is the full machine configuration, identical on every node.
	Config *config.Configuration
	// Source is the Pisces Fortran program, identical on every node; it is
	// compiled and its tasktypes registered so routed INITIATE requests find
	// them here.  Optional when Register supplies Go tasktypes instead.
	Source string
	// Main overrides the entry tasktype (node 0 only).
	Main string
	// Register, when non-nil, registers extra Go tasktypes on the VM
	// (benchmarks, tests).  It must be identical on every node.
	Register func(*core.VM)
	// Out receives user-terminal output.  Only node 0 hosts the user
	// controller, so follower nodes write nothing here in normal operation
	// (run-time diagnostics excepted).
	Out io.Writer
	// Log receives node-runtime diagnostics (connection events, drain
	// warnings); nil discards them.
	Log io.Writer
	// AcceptTimeout is the VM's system ACCEPT timeout.
	AcceptTimeout time.Duration
	// ConnectTimeout bounds mesh establishment; zero means 10 seconds.
	ConnectTimeout time.Duration
	// Metrics receives node- and VM-layer metrics and spans.  Nil creates a
	// private disabled registry.  When metrics are enabled, followers attach
	// a metric snapshot to every drain ack, so the coordinator can print one
	// merged cluster-wide view (FollowerSnapshots).
	Metrics *obs.Registry
	// Net is the network the node runs on: how it listens on and dials the
	// addresses in Addrs, and the backend its tasks, waits and clock come
	// from.  Nil means loopback TCP on the goroutine backend (tcp.go); a
	// FaultMesh's nodes run on an in-memory network (fault.go).
	Net Network
	// HA enables fault tolerance: peer heartbeats and failure detection,
	// periodic checkpoints streamed to a buddy node, sender-side frame
	// retention, and automatic rebalancing of a dead node's clusters (see
	// ha.go and ha_node.go).  Must be identical on every node.  Node 0 is not
	// recoverable (it hosts the user controller); one failure per checkpoint
	// interval is tolerated.
	HA bool
	// HeartbeatInterval is the HA heartbeat and detector sweep period; zero
	// means defaultHeartbeatInterval.  A peer silent for suspicionBeats
	// intervals is declared dead.
	HeartbeatInterval time.Duration
	// CheckpointInterval is the HA checkpoint period; zero means
	// defaultCheckpointInterval.
	CheckpointInterval time.Duration
	// BlackboxDir, when set, is where the node writes flight-recorder dumps
	// on failure paths (a peer death rebalance, a drain that never quiesces,
	// a tenant limit kill).  The recorder itself is always on; the directory
	// only controls whether failures leave a dump file behind.
	BlackboxDir string

	// wire sizes the batched wire path; the zero value is the production
	// setting, and only tests set another (export_test.go).
	wire wireConfig
}

// Network is what a node runs on: the backend every spawn, wait, timer and
// clock reading of the node goes through, and the listen and dial of its
// mesh connections.
type Network interface {
	Backend() backend.Backend
	Listen(addr string) (net.Listener, error)
	Dial(addr string, timeout time.Duration) (net.Conn, error)
}

// Node is one running node process: a partial VM plus the TCP mesh.
type Node struct {
	opts Options
	topo Topology
	fp   [32]byte
	be   backend.Backend

	tr   *transport
	vm   *core.VM
	prog *pfi.Program
	ln   net.Listener

	// readers counts the node's tasks that teardown waits for: lane readers
	// and deliver stages, the HA loop, and handlers run off a stage.
	readers backend.WaitGroup
	inConns []net.Conn // written by Start only

	// mu guards the node's shared state below, marked "mu".  A change that
	// a wait may be waiting for broadcasts changed (update), and the node's
	// waits wait on it (await).
	mu      sync.Mutex
	changed backend.Cond

	// acks collects the answers to the coordinator's drain round ackEpoch,
	// its own included (drainQuiesce; mu).
	ackEpoch uint32
	acks     map[int]drainAck

	// Observability: the registry shared with the VM — which also owns the
	// always-on flight recorder (see dumpBlackbox) — plus resolved node-layer
	// histogram handles, and the latest metric snapshot received from each
	// follower (coordinator only; mu).
	reg          *obs.Registry
	frameRead    *obs.Histogram // node.frame.read.ns: one blocking read (arrival gap + read), which may carry many frames
	frameDeliver *obs.Histogram // node.frame.deliver.ns: decode -> VM delivery
	followerSnap map[int]*obs.Snapshot
	// followerTrace holds the latest span trace blob received from each
	// follower's drain ack (coordinator only, spans enabled), decoded; it is
	// what WriteMeshTrace merges into per-node process tracks (mu).
	followerTrace map[int]obs.ProcessTrace

	// Fault tolerance (HA mode only; nil/zero otherwise).  store holds what
	// this node keeps as other peers' buddy; ckptEpoch numbers its own
	// checkpoints; replayed holds the frames each finished rebalance
	// replayed, by dead peer (mu).  rebalMu serialises rebalances (one
	// membership change at a time), a backend lock because a rebalance parks
	// while holding it; haWake ends the HA loop at shutdown.
	det        *detector
	store      *buddyStore
	ckptEpoch  atomic.Uint64
	replayed   map[int]int
	rebalMu    backend.Sem
	haWake     backend.Event
	haDeaths   *obs.Counter // node.ha.deaths: peers this node saw die
	haReplayed *obs.Counter // node.ha.replayed: retained frames replayed to a buddy
	haCkptTx   *obs.Counter // node.ha.ckpt.tx: checkpoints shipped to the buddy
	haCkptRx   *obs.Counter // node.ha.ckpt.rx: checkpoints stored for peers

	// beforeDeliver, when non-nil, runs on the deliver stage before each run
	// of data frames goes to the VM (tests cut a checkpoint there).
	beforeDeliver func(run []core.WireFrame)
	// afterAdopt, when non-nil, runs on the adopting buddy between the
	// adoption of a dead node's clusters and their restore (tests).
	afterAdopt func()

	shutdownOnce sync.Once
	shutdown     backend.Gate
	// closing is set by the first Close or Terminate (mu); closed opens when
	// it is done.
	closing  bool
	closed   backend.Gate
	closeErr error
}

// Start establishes the mesh (listen, dial every peer, verify the handshake
// fingerprint both ways), boots the partial VM, registers the program's
// tasktypes, and begins pumping inbound frames.  It returns once the node is
// fully operational; on node 0 the caller then drives RunMain and Close,
// followers call ServeUntilShutdown.
func Start(opts Options) (*Node, error) {
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	if opts.Out == nil {
		opts.Out = io.Discard
	}
	if opts.ConnectTimeout <= 0 {
		opts.ConnectTimeout = 10 * time.Second
	}
	if opts.NodeID < 0 || opts.NodeID >= len(opts.Addrs) {
		return nil, fmt.Errorf("node: id %d outside the %d-address mesh", opts.NodeID, len(opts.Addrs))
	}
	topo, err := Partition(opts.Config.ClusterNumbers(), len(opts.Addrs))
	if err != nil {
		return nil, err
	}
	if opts.Net == nil {
		opts.Net = tcpNet{}
	}
	be := opts.Net.Backend()
	reg := opts.Metrics
	if reg == nil {
		reg = obs.New()
	}
	reg.SetClock(be.Now) // before the handshake span: on a simulator, every stamp is virtual
	n := &Node{
		opts:          opts,
		topo:          topo,
		fp:            Fingerprint(opts.Config, topo, opts.Source),
		be:            be,
		tr:            newTransport(opts.NodeID, topo, reg, opts.wire, be),
		readers:       be.NewWaitGroup(),
		shutdown:      be.NewGate(),
		closed:        be.NewGate(),
		reg:           reg,
		frameRead:     reg.Histogram("node.frame.read.ns", "ns"),
		frameDeliver:  reg.Histogram("node.frame.deliver.ns", "ns"),
		followerSnap:  make(map[int]*obs.Snapshot),
		followerTrace: make(map[int]obs.ProcessTrace),
	}
	n.changed = be.NewCond(&n.mu)
	if reg.Recorder() == nil {
		reg.AttachRecorder(obs.NewRecorder(opts.NodeID, 0, 0))
	}
	if opts.HA {
		if n.opts.HeartbeatInterval <= 0 {
			n.opts.HeartbeatInterval = defaultHeartbeatInterval
		}
		if n.opts.CheckpointInterval <= 0 {
			n.opts.CheckpointInterval = defaultCheckpointInterval
		}
		n.tr.setHA(func() int { return n.nextLive(opts.NodeID) }) // before any traffic: retention must never miss a frame
		ids := make([]int, len(opts.Addrs))
		for i := range ids {
			ids[i] = i
		}
		n.det = newDetector(opts.NodeID, ids, suspicionBeats*n.opts.HeartbeatInterval, be.Now)
		n.store = &buddyStore{peers: make([]held, len(opts.Addrs))}
		n.replayed = make(map[int]int)
		n.rebalMu = be.NewSem()
		n.haWake = be.NewEvent()
		n.haDeaths = reg.Counter("node.ha.deaths")
		n.haReplayed = reg.Counter("node.ha.replayed")
		n.haCkptTx = reg.Counter("node.ha.ckpt.tx")
		n.haCkptRx = reg.Counter("node.ha.ckpt.rx")
	}

	ln := opts.Listener
	if ln == nil {
		ln, err = opts.Net.Listen(opts.Addrs[opts.NodeID])
		if err != nil {
			return nil, fmt.Errorf("node %d: listen: %w", opts.NodeID, err)
		}
	}
	n.ln = ln
	if opts.Source != "" {
		if n.prog, err = pfi.Compile(opts.Source); err != nil {
			n.teardown()
			return nil, err
		}
	}

	meshT0 := reg.SpanStart()
	inbound, err := n.connectMesh()
	if err != nil {
		n.teardown()
		return nil, err
	}
	reg.Emit(&obs.Event{Kind: obs.MeshHandshake, A: int64(opts.NodeID), Start: meshT0})

	vm, err := core.NewVM(opts.Config, core.Options{
		Backend:       be,
		UserOutput:    opts.Out,
		Hosted:        topo.Clusters(opts.NodeID),
		Remote:        n.tr,
		AcceptTimeout: opts.AcceptTimeout,
		Metrics:       reg,
		HA:            opts.HA,
		NodeID:        opts.NodeID,
		FailureSink:   func(reason string) { n.dumpBlackbox(reason) },
	})
	if err != nil {
		n.teardown()
		return nil, err
	}
	n.vm = vm
	n.tr.bind(vm)
	if n.prog != nil {
		n.prog.Register(vm)
	}
	if opts.Register != nil {
		opts.Register(vm)
	}

	// In node-id order, so a deterministic backend spawns the same tasks in
	// the same order on every run.
	for from := range opts.Addrs {
		if conn := inbound[from]; conn != nil {
			n.inConns = append(n.inConns, conn)
			n.readers.Add(1)
			be.Spawn(fmt.Sprintf("node %d read %d", opts.NodeID, from), func() { n.readLoop(from, conn) })
		}
	}
	if opts.HA && len(opts.Addrs) > 1 {
		n.readers.Add(1)
		be.Spawn(fmt.Sprintf("node %d ha", opts.NodeID), n.haLoop)
	}
	fmt.Fprintf(opts.Log, "node %d up: hosting clusters %v of [%s]\n", opts.NodeID, topo.Clusters(opts.NodeID), topo)
	return n, nil
}

// connectMesh dials every peer and accepts every peer's dial, handshaking
// both directions.  The dialed connection carries this node's outbound
// frames; the accepted one carries the peer's.
func (n *Node) connectMesh() (map[int]net.Conn, error) {
	me, addrs := n.opts.NodeID, n.opts.Addrs
	want := len(addrs) - 1
	deadline := n.be.Now().Add(n.opts.ConnectTimeout)

	inbound := make(map[int]net.Conn, want) // and complete: mu
	complete := false
	// Accept until the mesh is complete, not a fixed count: a stray
	// connection (a port scanner, a health probe) or a failed handshake must
	// not use up a peer's only chance to join.  Each handshake runs in its
	// own task so one stalled dialer cannot block the others.
	n.be.Spawn(fmt.Sprintf("node %d accept", me), func() {
		for {
			conn, err := n.ln.Accept()
			if err != nil {
				return // listener closed (node torn down)
			}
			n.be.Spawn(fmt.Sprintf("node %d handshake", me), func() {
				from, err := n.handshakeAccept(conn, deadline)
				if err != nil {
					fmt.Fprintf(n.opts.Log, "node %d: inbound handshake failed: %v\n", me, err)
				}
				n.update(func() {
					if err != nil || complete || inbound[from] != nil {
						_ = conn.Close()
					} else {
						inbound[from] = conn
					}
				})
			})
		}
	})

	for id := 0; id < len(addrs); id++ {
		if id == me {
			continue
		}
		conn, err := n.dialPeer(id, deadline)
		if err != nil {
			n.update(func() { complete = true }) // later handshakes close their connections
			return nil, err
		}
		n.tr.addPeer(id, conn)
	}

	ok := n.await(deadline.Sub(n.be.Now()), func() bool { return len(inbound) == want })
	n.update(func() { complete = true })
	if !ok {
		return nil, fmt.Errorf("node %d: timed out waiting for %d inbound peers", me, want-len(inbound))
	}
	return inbound, nil
}

// dialRetryCap is the longest dialPeer waits between two connection attempts.
const dialRetryCap = 50 * time.Millisecond

// dialPeer connects to one peer with retries (peers boot concurrently) and
// completes the outbound handshake.  A refused connection is retried after
// 1 ms, doubling to dialRetryCap: under pisces run node 0 always dials before
// the follower it just forked has bound its port again, so the first attempt
// is refused on every run and the peer is there a few milliseconds later —
// while a peer that really is slow to start still costs a handful of
// connection attempts, not hundreds.
func (n *Node) dialPeer(id int, deadline time.Time) (net.Conn, error) {
	var lastErr error
	retry := time.Millisecond
	for now := n.be.Now(); now.Before(deadline); now = n.be.Now() {
		conn, err := n.opts.Net.Dial(n.opts.Addrs[id], deadline.Sub(now))
		if err != nil {
			lastErr = err
			sleep(n.be, retry)
			retry = min(2*retry, dialRetryCap)
			continue
		}
		if err := n.handshakeDial(conn, id, deadline); err != nil {
			_ = conn.Close()
			return nil, err
		}
		return conn, nil
	}
	if lastErr == nil {
		return nil, fmt.Errorf("node %d: dialing node %d: connect deadline passed before the first attempt", n.opts.NodeID, id)
	}
	return nil, fmt.Errorf("node %d: dialing node %d: %w", n.opts.NodeID, id, lastErr)
}

// handshakeDial sends our hello and validates the peer's answer.
func (n *Node) handshakeDial(conn net.Conn, peerID int, deadline time.Time) error {
	_ = conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	if err := msgcodec.WriteFrame(conn, encodeHello(hello{version: protoVersion, nodeID: n.opts.NodeID, fingerprint: n.fp, topo: n.topo}), 0); err != nil {
		return err
	}
	h, err := readHello(conn)
	if err != nil {
		return err
	}
	if h.nodeID != peerID {
		return fmt.Errorf("node %d: dialed node %d but %d answered", n.opts.NodeID, peerID, h.nodeID)
	}
	return n.validateHello(h)
}

// handshakeAccept validates an inbound hello and answers with ours.
func (n *Node) handshakeAccept(conn net.Conn, deadline time.Time) (int, error) {
	_ = conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	h, err := readHello(conn)
	if err != nil {
		return 0, err
	}
	if err := n.validateHello(h); err != nil {
		return 0, err
	}
	if err := msgcodec.WriteFrame(conn, encodeHello(hello{version: protoVersion, nodeID: n.opts.NodeID, fingerprint: n.fp, topo: n.topo}), 0); err != nil {
		return 0, err
	}
	return h.nodeID, nil
}

func readHello(conn net.Conn) (hello, error) {
	payload, err := msgcodec.ReadFrame(conn)
	if err != nil {
		return hello{}, err
	}
	var m frame
	if row, err := decodeFrame(&m, payload); err != nil {
		return hello{}, fmt.Errorf("node: handshake: %s frame: %w", row.name, err)
	} else if m.kind != fHello {
		return hello{}, fmt.Errorf("node: handshake: expected hello frame, got %s", row.name)
	}
	return m.hello, nil
}

func (n *Node) validateHello(h hello) error {
	switch {
	case h.version != protoVersion:
		return fmt.Errorf("node: protocol version %d, want %d", h.version, protoVersion)
	case h.nodeID < 0 || h.nodeID >= len(n.opts.Addrs) || h.nodeID == n.opts.NodeID:
		return fmt.Errorf("node: peer claims node id %d", h.nodeID)
	case h.fingerprint != n.fp:
		return fmt.Errorf("node: fingerprint mismatch: the peer runs a different configuration, topology, or program")
	case !h.topo.Equal(n.topo):
		return fmt.Errorf("node: topology mismatch: %s vs %s", h.topo, n.topo)
	}
	return nil
}

// VM returns the node's (partial) virtual machine.
func (n *Node) VM() *core.VM { return n.vm }

// Topology returns the cluster-to-node assignment.
func (n *Node) Topology() Topology { return n.topo }

// Obs returns the node's observability registry (never nil; shared with the
// VM and the transport).
func (n *Node) Obs() *obs.Registry { return n.reg }

// Snapshot captures this node's metrics: the registry shared with the VM and
// the transport, plus the interpreter's activity counters as pfi.<name>.
// Followers ship it on every drain ack, so the coordinator's merged view sums
// interpreter work across the mesh like every other counter.
func (n *Node) Snapshot() *obs.Snapshot {
	s := n.reg.Snapshot()
	if n.prog != nil {
		s.Merge(n.prog.Snapshot())
	}
	return s
}

// FollowerSnapshots returns the latest metric snapshot received from each
// follower during drain rounds (coordinator only; empty when metrics are off
// or no drain has completed yet).
func (n *Node) FollowerSnapshots() map[int]*obs.Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[int]*obs.Snapshot, len(n.followerSnap))
	for id, s := range n.followerSnap {
		out[id] = s
	}
	return out
}

// dumpBlackbox writes a flight-recorder dump into Options.BlackboxDir (a
// no-op when unset), logging the path so operators can find the artifact.
// It is called on every node-level failure path: a limit kill, a peer death
// rebalance, a drain that never quiesced.
func (n *Node) dumpBlackbox(reason string) {
	if n.opts.BlackboxDir == "" {
		return
	}
	path, err := obs.WriteDump(n.opts.BlackboxDir, n.reg.Recorder())
	if err != nil {
		fmt.Fprintf(n.opts.Log, "node %d: blackbox dump (%s) failed: %v\n", n.opts.NodeID, reason, err)
		return
	}
	fmt.Fprintf(n.opts.Log, "node %d: blackbox dump (%s): %s\n", n.opts.NodeID, reason, path)
}

// WriteMeshTrace writes one merged Chrome trace covering every node: this
// node's spans and flows on process track 1 ("node 0" — only the coordinator
// merges), and each follower's latest drain-ack trace blob on track id+1.
// Flow events that start on one node and end on another share their causal
// edge id, so the viewer draws the arrow across process tracks.
func (n *Node) WriteMeshTrace(w io.Writer) error {
	procs := []obs.ProcessTrace{n.reg.Trace(n.opts.NodeID+1, fmt.Sprintf("node %d", n.opts.NodeID))}
	n.mu.Lock()
	ids := make([]int, 0, len(n.followerTrace))
	for id := range n.followerTrace {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		p := n.followerTrace[id]
		p.Pid = id + 1
		p.Name = fmt.Sprintf("node %d", id)
		procs = append(procs, p)
	}
	n.mu.Unlock()
	return obs.WriteChromeTraceMulti(w, procs)
}

// Batch receive path — the mirror of the transport's batched send path.
//
// A lane's reader owns a read buffer and reads the socket straight into it;
// msgcodec.ScanFrames says how much of what has arrived is whole frames, and
// that run of frames goes to the lane's deliver stage as ONE hand-off, which
// walks it in place with NextFrame.  A frame's bytes are therefore copied
// once on the way in (kernel to read buffer; a message's arguments are
// decoded straight out of it) as they are copied once on the way out, and
// nothing is allocated or passed through a channel per frame.  Successive
// reads fill the same buffer and hand off successive stretches of it; the
// reader never writes a byte it has handed off.  A buffer is retired only
// when the frame it ends in cannot finish in it: the unfinished tail is
// carried into the next buffer, and the deliver stage recycles the retired
// one after walking its last hand-off.

// readBufBytes is the nominal read-buffer size, matching the sender's nominal
// batch.  A frame that cannot fit gets a buffer of exactly its own size, and
// only nominal buffers are recycled: an outlier — an HA checkpoint blob runs
// to megabytes — is collected once delivered instead of being kept for the
// life of the connection, the rule the writer has for its batch buffers.
// readBufSpares is how many retired buffers a lane keeps: a lane in step
// needs one (the reader fills one buffer while the deliver stage walks the
// other), a deliver stage a credit window behind has a few in flight, and
// the hundreds that come back after a stall are left to the collector.
const (
	readBufBytes  = 64 << 10
	readBufSpares = 4
)

// handoff is one item of a lane's deliver stage: a run of whole frames.
type handoff struct {
	frames  []byte // concatenated length-prefixed frames, aliasing the read buffer
	retired []byte // the read buffer, when this is the last hand-off out of it
}

// laneReader is the buffer side of one lane's reader.
type laneReader struct {
	conn       io.Reader
	buf        []byte // the buffer being filled; its whole length is usable
	start, end int    // buf[start:end] is read but not handed off: the head of an unfinished frame

	mu   sync.Mutex
	free [][]byte // retired nominal buffers, back from the deliver stage
}

func newLaneReader(conn io.Reader) *laneReader {
	return &laneReader{conn: conn, buf: make([]byte, readBufBytes), free: make([][]byte, 0, readBufSpares)}
}

// read blocks for one read of the connection and returns the run of whole
// frames it completed (possibly none) and how many frames that is.  On an
// error the run still holds the sound frames that arrived with it.  A stream
// that ends inside a frame is io.ErrUnexpectedEOF, on a frame boundary io.EOF.
func (r *laneReader) read() (run handoff, frames int, err error) {
	n, rerr := r.conn.Read(r.buf[r.end:])
	r.end += n
	whole, frames, need, err := msgcodec.ScanFrames(r.buf[r.start:r.end], 0)
	run.frames = r.buf[r.start : r.start+whole : r.start+whole]
	r.start += whole
	tail := r.end - r.start
	if err == nil {
		if err = rerr; err == io.EOF && tail > 0 {
			err = io.ErrUnexpectedEOF
		}
	}
	if err == nil && r.start+max(need, 1) > len(r.buf) {
		// The frame this buffer ends in cannot finish in it (or it is full to
		// the last byte): carry the tail over and retire the buffer.
		run.retired = r.buf
		r.buf = r.take(need)
		copy(r.buf, run.retired[r.start:r.end])
		r.start, r.end = 0, tail
	}
	return run, frames, err
}

// take returns a buffer with room for a frame of need bytes.
func (r *laneReader) take(need int) []byte {
	if need > readBufBytes {
		return make([]byte, need)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if k := len(r.free); k > 0 {
		buf := r.free[k-1]
		r.free = r.free[:k-1]
		return buf
	}
	return make([]byte, readBufBytes)
}

// recycle takes a hand-off's retired buffer (if it retired one) back from the
// deliver stage.
func (r *laneReader) recycle(buf []byte) {
	if len(buf) != readBufBytes {
		return
	}
	r.mu.Lock()
	if len(r.free) < readBufSpares {
		r.free = append(r.free, buf)
	}
	r.mu.Unlock()
}

// readLoop is the socket half of one peer's inbound pipeline: it reads the
// connection into the lane's read buffer and hands each run of whole frames
// to the lane's deliverLoop through a bounded stage.  Splitting read from
// deliver pipelines decode/VM-delivery across source peers (each lane's
// syscall wait overlaps the others' decode work) while the per-lane stage
// keeps frames in per-sender order; when the stage fills, the reader stops
// pulling and TCP pushes back on the sending node.  The stage is deep in
// hand-offs, not bytes, on purpose: a slow handler may hold the deliver stage
// for seconds while the peer's heartbeats keep arriving one small read at a
// time, and a reader blocked on a full stage hears none of them.  A held
// stage therefore pins at most stageDepth+3 read buffers (one per hand-off
// queued, one being walked, one waiting to be queued, one being filled:
// 16 MiB a lane at the nominal size, and only if every read fills a buffer),
// and the data frames among them are bounded by the sender's credit window
// before that.  A connection error from the coordinator is treated as
// shutdown: a follower must not outlive node 0.
func (n *Node) readLoop(from int, conn net.Conn) {
	defer n.readers.Done()
	defer conn.Close()
	r := newLaneReader(conn)
	work := newQueue[handoff](n.be, stageDepth)
	n.readers.Add(1)
	n.be.Spawn(fmt.Sprintf("node %d deliver %d", n.opts.NodeID, from), func() { n.deliverLoop(from, r, work) })
	// The deliver stage drains until work is closed, so the reader can
	// always close it on exit without stranding queued frames.
	defer work.close()
	// Per-lane inbound counters, named from the receiver's side so a merged
	// cluster-wide snapshot shows every lane from both endpoints (tx counted
	// by the sender, rx by the receiver) without colliding.
	rxFrames := n.reg.Counter(fmt.Sprintf("node.rx.n%d->n%d.frames", from, n.opts.NodeID))
	rxBytes := n.reg.Counter(fmt.Sprintf("node.rx.n%d->n%d.bytes", from, n.opts.NodeID))
	for {
		metrics := n.reg.Has(obs.Metrics)
		var readT0 time.Time
		if metrics {
			readT0 = n.reg.Now()
		}
		run, frames, err := r.read()
		if metrics && err == nil {
			n.frameRead.ObserveDuration(n.reg.Now().Sub(readT0))
		}
		if frames > 0 {
			if metrics {
				rxFrames.Add(int64(frames))
				rxBytes.Add(int64(len(run.frames)))
			}
			if n.det != nil {
				// Any frame is a sign of life; the dedicated heartbeat only
				// matters for peers that would otherwise be silent.
				n.det.Heard(from)
			}
			work.put(run)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !n.shuttingDown() {
				fmt.Fprintf(n.opts.Log, "node %d: reading from node %d: %v\n", n.opts.NodeID, from, err)
			}
			if from == 0 && n.opts.NodeID != 0 {
				n.signalShutdown()
			}
			return
		}
	}
}

// deliverLoop is the VM half of one peer's inbound pipeline: it walks each
// hand-off's frames in place through the lane's stage, in arrival
// (per-sender FIFO) order, then returns a retired read buffer to the reader.
// It also runs the receiver side of the credit protocol: credits for
// delivered data frames go back to the sender in chunks, or as soon as a
// hand-off is finished and the stage is empty — so a sender whose window is
// smaller than the chunk never stalls waiting for a grant that isn't coming.
// The loop drains until the reader closes the stage; protocol frames (even
// fShutdown) must not end it early, or a full stage would wedge the reader.
func (n *Node) deliverLoop(from int, r *laneReader, work *queue[handoff]) {
	defer n.readers.Done()
	st := n.newStage(from, true)
	grant := func() {
		n.tr.grantCredits(from, st.credits)
		st.credits = 0
	}
	for {
		run, ok := work.get()
		if !ok {
			return
		}
		for rest := run.frames; len(rest) > 0; {
			// ScanFrames vouched for every frame of the run.
			var payload []byte
			payload, rest, _ = msgcodec.NextFrame(rest, 0)
			if len(payload) == 0 {
				continue
			}
			_ = st.take(payload)
			if st.credits >= creditGrantChunk {
				grant()
			}
		}
		// The run's payloads alias the read buffer: delivered before it goes
		// back to the reader.
		st.flush()
		if st.credits >= creditGrantChunk || st.credits > 0 && work.len() == 0 {
			grant()
		}
		r.recycle(run.retired)
	}
}

// stage is the walk every frame into this node takes, off a peer's lane
// (deliverLoop) or, on a dead node's buddy, out of retention during the local
// replay (finishRebalance; from is then the node itself).  Data frames are
// gathered into a run that goes to the VM as one batch (flush), which the VM
// delivers run by run — one task lookup, shard admission, queue lock round
// and wake-up for each run of frames for one task.  Any other frame flushes
// the run first and then runs its row's handler, so every frame's effects
// keep their lane order.
type stage struct {
	n    *Node
	from int
	// lane is set for a peer's lane: its data frames are credited, and timed
	// and traced one by one (node.frame.deliver.ns, wire-rx).
	lane bool
	m    frame // reused per frame; no handler retains it
	run  []core.WireFrame
	typ  string      // the Type of the last data frame taken
	t0   []time.Time // when each frame of run began to be delivered, if timed
	// The registry's switches, read once per run.
	metrics, timed, watchRx bool
	rx                      func(i int) // delivered, bound once
	credits                 int         // delivered data frames not granted back yet
}

func (n *Node) newStage(from int, lane bool) *stage {
	st := &stage{n: n, from: from, lane: lane}
	st.rx = st.delivered
	return st
}

// take decodes one frame and delivers it, or adds it to the run.  A
// malformed frame of any kind is dropped and logged here.
func (st *stage) take(payload []byte) error {
	n := st.n
	if len(st.run) == 0 && st.lane {
		st.metrics = n.reg.Has(obs.Metrics)
		st.timed = st.metrics || n.reg.Has(obs.Spans)
	}
	var t0 time.Time
	if st.timed {
		t0 = n.reg.Now()
	}
	// A data frame is decoded straight into the run's next slot, which the
	// run takes only if it is one.  The slot starts from the last data
	// frame's Type, which decodeData keeps when the name is the same, so
	// every frame of one type shares one string.
	i := len(st.run)
	st.run = slices.Grow(st.run, 1)
	f := &st.run[:i+1][i]
	f.Type, st.m.msg = st.typ, f
	row, err := decodeFrame(&st.m, payload)
	if err != nil {
		f.Payload = nil
		fmt.Fprintf(n.opts.Log, "node %d: malformed %s frame from node %d: %v\n", n.opts.NodeID, row.name, st.from, err)
		return err
	}
	if row.handle == nil {
		st.run, st.typ = st.run[:i+1], f.Type
		st.t0 = append(st.t0, t0)
		return nil
	}
	st.flush()
	row.handle(n, st.from, &st.m)
	return nil
}

// flush hands the run to the VM (core.VM.DeliverWire) and then counts its
// frames received — after the delivery, and in HA mode inside one hold of
// the checkpoint cut's lock (transport.deliverStart), so a cut counts
// exactly the frames its blob holds.  A frame the VM cannot deliver is
// dropped there, loudly (the sender's SEND already succeeded); it still
// arrived, so it is counted.
func (st *stage) flush() {
	if len(st.run) == 0 {
		return
	}
	n := st.n
	if n.beforeDeliver != nil {
		n.beforeDeliver(st.run)
	}
	var rx func(int)
	if st.watchRx = st.lane && n.reg.Watching(obs.WireRx); st.metrics || st.watchRx {
		rx = st.rx
	}
	n.tr.deliverStart(st.from)
	_ = n.vm.DeliverWire(st.run, rx)
	n.tr.deliverDone(st.from, len(st.run))
	if st.lane {
		st.credits += len(st.run)
	}
	// Let go of the payloads, which alias a read buffer or a retained frame.
	clear(st.run)
	st.run, st.t0 = st.run[:0], st.t0[:0]
}

// delivered is a lane frame's own tail, which the VM calls once frame i of
// the run is delivered: its deliver time and its wire-rx span.
func (st *stage) delivered(i int) {
	n := st.n
	if st.metrics {
		n.frameDeliver.ObserveDuration(n.reg.Now().Sub(st.t0[i]))
	}
	if st.watchRx {
		n.reg.Emit(&obs.Event{Kind: obs.WireRx, Type: st.run[i].Type, A: int64(n.opts.NodeID), B: int64(st.from), Start: st.t0[i]})
	}
}

// signalShutdown opens the shutdown gate and releases whatever waits on a
// peer: the node's waits (await), init-log acks, the HA loop's next tick.
func (n *Node) signalShutdown() {
	n.shutdownOnce.Do(func() {
		n.update(n.shutdown.Open)
		n.tr.stopLog()
		if n.det != nil {
			n.haWake.Pulse()
		}
	})
}

func (n *Node) shuttingDown() bool { return n.shutdown.IsOpen() }

// update runs fn, a change to state under mu, and wakes every wait to check
// for what it waits for.
func (n *Node) update(fn func()) {
	n.mu.Lock()
	fn()
	n.changed.Broadcast()
	n.mu.Unlock()
}

// await waits until ready, evaluated under mu, holds, the node shuts down, or
// with d >= 0 d has passed on the backend clock, and reports ready.  The
// timer callback only takes mu, which no task holds across a wait, so it
// never blocks.
func (n *Node) await(d time.Duration, ready func() bool) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	expired := false
	if d >= 0 {
		t := n.be.AfterFunc(d, func() { n.update(func() { expired = true }) })
		defer t.Stop()
	}
	for !ready() && !expired && !n.shuttingDown() {
		n.changed.Wait()
	}
	return ready()
}

// answerDrain answers drain round epoch in a task of its own, once the
// locally hosted user tasks are idle: it flushes the outbound batches, so a
// frame waiting in an open batch is not reported sent-but-unreceivable, and
// reports the frame totals whose global balance tells the coordinator nothing
// is in flight.  A follower sends them in a drain ack; the coordinator enters
// its own among the round's answers.  A node that shuts down first does not
// answer.  The task is not among the readers: its wait ends only once the
// VM's tasks do, which on a killed node is after the teardown.
func (n *Node) answerDrain(epoch uint32) {
	n.be.Spawn(fmt.Sprintf("node %d drain answer", n.opts.NodeID), func() {
		n.vm.WaitIdle()
		if n.shuttingDown() {
			return
		}
		n.tr.Flush()
		sent, recv := n.tr.counts()
		ack := drainAck{from: n.opts.NodeID, epoch: epoch, sent: sent, recv: recv}
		if n.opts.NodeID == 0 {
			n.takeAck(ack)
			return
		}
		// Piggyback this node's metric snapshot and spans on an ack that can
		// end the drain, so the coordinator's final summary covers the whole
		// mesh.  Round 1 never can: confirming takes a balanced round before
		// it.  Skipped (empty blob) when metrics or spans are off.
		if epoch > 1 && n.reg.Has(obs.Metrics) {
			ack.stats = n.Snapshot().Encode()
		}
		if epoch > 1 && n.reg.Has(obs.Spans) {
			ack.trace = obs.EncodeTrace(n.reg.Trace(0, ""))
		}
		_ = n.tr.sendControl(0, encodeDrainAck(ack))
	})
}

// takeAck enters a node's answer among the answers to the round being
// collected; an answer to an earlier round finds nobody collecting it.
func (n *Node) takeAck(ack drainAck) {
	n.update(func() {
		if ack.epoch == n.ackEpoch {
			n.acks[ack.from] = ack
		}
	})
}

// RunMain runs the program's entry tasktype on this node (the coordinator)
// and waits for the locally observable part of the run to finish: the main
// task, every local task, and the user-output flush.  Remotely hosted tasks
// are drained by Close.
func (n *Node) RunMain(args ...core.Value) error {
	if n.prog == nil {
		return fmt.Errorf("node %d: no program source was provided", n.opts.NodeID)
	}
	return n.prog.Run(n.vm, pfi.Options{Main: n.opts.Main}, args...)
}

// ServeUntilShutdown blocks until the coordinator orders shutdown (or its
// connection drops), then tears the local VM down.  Follower nodes call it
// after Start.
func (n *Node) ServeUntilShutdown() error {
	if n.opts.NodeID == 0 {
		return fmt.Errorf("node 0 coordinates: call RunMain and Close instead")
	}
	n.shutdown.Wait()
	return n.Close()
}

// drainQuiesce is the coordinated shutdown drain, by double counting: the
// coordinator repeats drain rounds until the global frame counts balance AND
// those counts were already seen one round earlier — so no frame was in
// flight between the two observations.  Every live node answers a round once
// its user tasks are idle (answerDrain), the coordinator too, after the
// others, so a round ends when the last of them is idle or declared dead
// (finishRebalance wakes the wait).  A balanced round is followed by its
// confirming round at once, so a mesh that is already quiet — the usual case:
// the program has printed its last line — is released after two round trips;
// only a round that found a frame in flight is followed by a pause, to give
// it time rather than spin rounds against it.  It returns an error when the
// mesh does not quiesce within the timeout (shutdown proceeds anyway; a task
// still running or traffic undelivered at that point is a program that never
// terminates, which a single-process run would also hang on).
func (n *Node) drainQuiesce(timeout time.Duration) error {
	if len(n.opts.Addrs) == 1 {
		return nil
	}
	deadline := n.be.Now().Add(timeout)
	var prevSent, prevRecv uint64
	havePrev := false
	for epoch := uint32(1); n.be.Now().Before(deadline); epoch++ {
		roundT0 := n.reg.SpanStart()
		n.mu.Lock()
		n.ackEpoch, n.acks = epoch, make(map[int]drainAck)
		n.mu.Unlock()
		// Dead peers (HA mode) are out of the round: their lanes drop control
		// frames and their traffic has been settled into the survivors' counts
		// by markDead/replay.  The wait re-lists them: a peer can die mid-round.
		for id := range n.opts.Addrs {
			if id != n.opts.NodeID && !n.tr.isDead(id) {
				_ = n.tr.sendControl(id, encodeDrain(epoch))
			}
		}
		// The coordinator answers last: its received count then takes in
		// every frame another node sent it before answering, which that
		// node's lane delivered ahead of the answer.
		wait := func(self bool) bool {
			return n.await(max(deadline.Sub(n.be.Now()), 0), func() bool { _, _, all := n.tally(self); return all })
		}
		answered := wait(false)
		if answered {
			n.answerDrain(epoch)
			answered = wait(true)
		}
		n.mu.Lock()
		sent, recv, _ := n.tally(true)
		n.ackEpoch = 0 // later answers of this round find nobody collecting
		n.mu.Unlock()
		n.reg.Emit(&obs.Event{Kind: obs.DrainRound, A: int64(n.opts.NodeID), Type: strconv.FormatUint(uint64(epoch), 10), Start: roundT0})
		if !answered {
			break
		}
		balanced := sent == recv
		confirmed := balanced && havePrev && sent == prevSent && recv == prevRecv
		prevSent, prevRecv, havePrev = sent, recv, balanced
		if confirmed {
			return nil
		}
		if !balanced {
			sleep(n.be, 10*time.Millisecond)
		}
	}
	return fmt.Errorf("node %d: mesh did not quiesce within %s", n.opts.NodeID, timeout)
}

// tally sums the answers to the round being collected of every node not
// declared dead, and reports whether each of them has answered; without self
// the coordinator's own answer is left out (mu).
func (n *Node) tally(self bool) (sent, recv uint64, all bool) {
	for id := range n.opts.Addrs {
		if id == n.opts.NodeID && !self || n.tr.isDead(id) {
			continue
		}
		a, ok := n.acks[id]
		if !ok {
			return 0, 0, false
		}
		sent, recv = sent+a.sent, recv+a.recv
	}
	return sent, recv, true
}

// drainTimeout bounds the coordinator's drain.
const drainTimeout = 30 * time.Second

// Close shuts the node down.  On the coordinator it first drains the mesh to
// quiescence and orders every follower to shut down; on any node it then
// stops the VM, the listener, and the connections.
func (n *Node) Close() error {
	n.closeOnce(func() {
		if n.opts.NodeID == 0 && len(n.opts.Addrs) > 1 {
			if err := n.drainQuiesce(drainTimeout); err != nil {
				fmt.Fprintf(n.opts.Log, "pisces: %v (shutting down anyway)\n", err)
				n.closeErr = err
				n.dumpBlackbox("drain timeout")
			}
			for id := range n.opts.Addrs {
				if id == n.opts.NodeID {
					continue
				}
				_ = n.tr.sendControl(id, []byte{fShutdown})
			}
			// Push the shutdown frames onto the wire before the connections
			// come down; a follower missing them still exits when its
			// coordinator lane reads EOF, but only after its own timeout.
			n.tr.Flush()
		}
		n.signalShutdown()
		n.vm.Shutdown()
		n.teardown()
	})
	return n.closeErr
}

// closeOnce runs the first Close or Terminate; a later call waits until it is
// done.  A sync.Once would hold a Go lock across the teardown's waits.
func (n *Node) closeOnce(fn func()) {
	n.mu.Lock()
	first := !n.closing
	n.closing = true
	n.mu.Unlock()
	if first {
		fn()
		n.closed.Open()
	}
	n.closed.Wait()
}

// teardown stops the listener, the transport and the inbound connections and
// waits for every reader: the end of Close and of Terminate.  The inbound
// connections are closed too, so the readers exit even if a peer never tears
// its outbound side down.
func (n *Node) teardown() {
	_ = n.ln.Close()
	_ = n.tr.Close()
	for _, c := range n.inConns {
		_ = c.Close()
	}
	n.readers.Wait()
}
