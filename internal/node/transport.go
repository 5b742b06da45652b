package node

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// Batched wire path.
//
// PR 5's transport wrote one frame per message under a per-peer lock and
// flushed it to the kernel before the sender's Send returned: correct, but
// the per-frame syscall put loopback TCP a factor of ~3 behind the
// in-process router.  The path is now built around three ideas:
//
//  1. Frame coalescing.  Each peer has an open batch buffer; senders append
//     length-prefixed frames to it (msgcodec batch framing) and a dedicated
//     writer task hands the whole batch to the kernel in ONE write.
//     While the writer is in the syscall, new frames accumulate in the next
//     batch, so coalescing adapts to load with no mandatory latency: an idle
//     lane flushes a lone frame immediately, a busy lane packs hundreds of
//     frames per syscall.
//  2. One copy into the batch.  The frame encoder writes the payload the
//     sending task encoded (into its pooled frame) DIRECTLY into the batch
//     buffer (BeginFrame/EndFrame backfill the length prefix), so payload
//     bytes are copied exactly once on the way out.  The copy happens inside
//     Send, which is the batch-handoff point: the sender may reuse the frame
//     and its payload buffer as soon as Send returns, even though the bytes
//     reach the wire later.
//  3. Credit-based flow control.  Each lane starts with wireConfig
//     CreditWindow credits; a data frame consumes one, and the receiver
//     returns credits on the control-frame channel (fCredit) as it delivers
//     frames to its VM.  A slow node therefore stalls its senders at a
//     bounded queue depth instead of growing an unbounded batch buffer.
//
// The byte stream is identical to per-frame writes (a batch is just
// concatenated length-prefixed frames); batching is invisible to the protocol
// apart from fCredit.  The receiver takes a batch the way the writer makes
// one — one read, one hand-off, frames walked in place (node.go).

// wireConfig sizes the batched wire path.  The zero value is the production
// setting (64 KiB batches, a 1024-frame window), fixed since the batching
// measurement found no workload wanting another; the fields exist so tests
// can reach the frame-larger-than-buffer and window-of-1 boundaries.
type wireConfig struct {
	// BatchBytes is the nominal batch-buffer size: a written buffer is
	// recycled only while its capacity stays within 4x of it.  A single
	// frame larger than BatchBytes still travels — the batch buffer grows
	// for it and is written whole.  <= 0 means 64 KiB.
	BatchBytes int
	// CreditWindow is the per-lane flow-control window: how many credited
	// data frames may be in flight toward a peer before Send stalls waiting
	// for the receiver's credit grants.  <= 0 means 1024.
	CreditWindow int
}

const (
	defaultBatchBytes   = 64 << 10
	defaultCreditWindow = 1024
	// creditGrantChunk is how many delivered frames a receiver accumulates
	// before returning credits.  Grants also go out whenever a hand-off is
	// finished and the inbound stage is empty, so a sender whose window is
	// smaller than the chunk (tests run windows of 1) still makes progress.
	creditGrantChunk = 64
	// stageDepth bounds the receiver's decode/deliver stage, in hand-offs (one
	// per read that completed a frame); when it fills, the reader stops pulling
	// from the socket and TCP pushes back on the sending node's writer.
	stageDepth = 256
)

func (c wireConfig) withDefaults() wireConfig {
	if c.BatchBytes <= 0 {
		c.BatchBytes = defaultBatchBytes
	}
	if c.CreditWindow <= 0 {
		c.CreditWindow = defaultCreditWindow
	}
	return c
}

// peer is one outbound connection: this node's lane for frames toward one
// other node.  Senders append frames to the open batch under mu; the writer
// task swaps the batch out and writes it WITHOUT holding mu, so a slow
// peer's syscall never blocks the tasks filling the next batch.
type peer struct {
	id   int
	conn net.Conn

	mu   sync.Mutex
	cond backend.Cond // writer wake-ups, credit grants, flush/write completion

	batch   []byte    // open batch: concatenated length-prefixed frames
	stamp   obs.Stamp // the open batch's flight-recorder stamp, for its routed sends
	spare   []byte    // recycled buffer for the next batch (double buffering)
	frames  int       // frames in the open batch
	counted int       // of those, frames counted in transport.sent (loss accounting)
	writing bool      // the writer is inside conn.Write
	closed  bool
	err     error

	credits int // remaining flow-control credits toward this peer

	// HA lane state (haRetain mode only; guarded by mu).  ret numbers the
	// lane's counted frames as the receiver counts its deliveries (TCP FIFO),
	// which makes checkpoint marks exact.  dead flips the lane to retain-only
	// until the backlog goes to the adopting buddy.  logAcked is how much of
	// this node's initiation log the peer acked.
	dead     bool
	deadDone bool // markDead accounting ran (dead may be set first by a write error)
	ret      retention
	logAcked uint64
	markGen  uint64 // the exit-record generation the peer's last mark showed

	// Per-lane wire counters (node.tx.n<me>->n<id>.*), resolved at addPeer;
	// bumped only when metrics are enabled.
	txFrames *obs.Counter
	txBytes  *obs.Counter
}

// errNoCredit is enqueue's refusal of a credited frame on a lane whose
// window is spent: the caller lets go of the route lock, waits
// (awaitCredit) and routes the frame again.
var errNoCredit = errors.New("node: no credit")

// send enqueues one frame of the given kind, credited and counted as the
// kind's row in frameTable says; st is as for enqueue.
func (p *peer) send(tr *transport, kind byte, st *obs.Stamp, encode func(batch []byte) []byte) error {
	row := &frameTable[kind]
	return p.enqueue(tr, row.credited, row.counted, st, encode)
}

// enqueue appends one frame to the peer's open batch and wakes the writer.
// encode appends the frame payload to the batch (the length prefix is
// reserved and backfilled around it, so payload bytes are copied exactly
// once, straight from their source into the batch buffer).  A credited frame
// consumes one flow-control credit; with none left it is refused, with
// errNoCredit and unenqueued.  A counted frame participates in the drain
// protocol's global sent/recv balance.  A frame that opens a batch resets the
// batch's stamp; st, when non-nil (a routed send's), gets the batch's stamp
// once the frame is in it, the first such frame reading the recorder clock
// for the batch.  A frame that joins no batch leaves st as it was.
func (p *peer) enqueue(tr *transport, credited, counted bool, st *obs.Stamp, encode func(batch []byte) []byte) error {
	p.mu.Lock()
	if p.dead && (!counted || p.ret.replayed) {
		// The peer is dead (or the lane broke in HA mode): control frames
		// evaporate, and so do data frames once the retained backlog went to
		// the adopting buddy, whose own lane carries their like from then on.
		p.mu.Unlock()
		return nil
	}
	if !p.dead {
		if p.err != nil {
			err := p.err
			p.mu.Unlock()
			return err
		}
		if p.closed {
			p.mu.Unlock()
			if tr.killed.Load() {
				return nil // a killed node's last sends vanish with it
			}
			return net.ErrClosed
		}
		if credited {
			if p.credits <= 0 {
				p.mu.Unlock()
				return errNoCredit
			}
			p.credits--
		}
	}
	start := len(p.batch)
	batch, payloadStart := msgcodec.BeginFrame(p.batch)
	batch = encode(batch)
	batch, err := msgcodec.EndFrame(batch, payloadStart, 0)
	p.batch = batch
	if err != nil {
		p.mu.Unlock()
		return err
	}
	if counted {
		tr.sent.Add(1)
		if tr.haRetain {
			p.ret.keep(p.batch[payloadStart:])
		}
	}
	if p.dead {
		// A data frame for a dead lane is encoded only to be retained for
		// the rebalance replay: the sender never sees an error — the frame's
		// effect is the adopting buddy's problem now.
		p.batch = p.batch[:start]
		p.mu.Unlock()
		return nil
	}
	p.frames++
	if counted {
		p.counted++
	}
	nbytes := len(p.batch) - start
	if start == 0 {
		p.stamp = obs.Stamp{}
		p.cond.Broadcast() // first frame of a batch: wake the writer
	}
	if st != nil {
		tr.reg.ShareStamp(&p.stamp, st)
	}
	p.mu.Unlock()
	if tr.reg.Has(obs.Metrics) {
		p.txFrames.Inc()
		p.txBytes.Add(int64(nbytes))
	}
	return nil
}

// awaitCredit waits, holding no route lock, until the lane has a credit or
// can no longer carry frames.  A stall is a flow-control anomaly worth
// forensics: the event records which peer's window ran dry.
func (p *peer) awaitCredit(tr *transport) {
	tr.reg.Emit(&obs.Event{Kind: obs.CreditStall, A: int64(p.id)})
	metrics := tr.reg.Has(obs.Metrics)
	var t0 time.Time
	if metrics {
		t0 = tr.reg.Now()
		tr.creditStalls.Inc()
	}
	p.mu.Lock()
	for p.credits <= 0 && p.err == nil && !p.closed && !p.dead {
		p.cond.Wait()
	}
	p.mu.Unlock()
	if metrics {
		tr.creditStallNS.ObserveDuration(tr.reg.Now().Sub(t0))
	}
}

// writeLoop is the peer's writer task: it swaps the open batch out and
// hands it to the kernel in one write, then recycles the buffer.  It holds
// mu only across the swap, never across the syscall.  It exits on a write
// error or once the peer is closed and drained; frames that can no longer
// reach the wire are added to the transport's lost count so the drain
// protocol's sent/recv balance stays consistent.
func (p *peer) writeLoop(tr *transport) {
	defer tr.writers.Done()
	for {
		p.mu.Lock()
		for len(p.batch) == 0 && p.err == nil && !p.closed && !p.dead {
			p.cond.Wait()
		}
		if p.err != nil || ((p.closed || p.dead) && len(p.batch) == 0) {
			// In HA retention mode every counted frame was copied into the
			// retention log at enqueue; its fate (replayed to the buddy, or
			// accounted lost at markDead) is decided there, not here.
			if !tr.haRetain {
				tr.lost.Add(uint64(p.counted))
			}
			p.counted, p.frames = 0, 0
			p.batch = nil
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		buf, frames, counted := p.batch, p.frames, p.counted
		p.batch = p.spare[:0]
		p.spare = nil
		p.frames, p.counted = 0, 0
		p.writing = true
		p.mu.Unlock()

		metrics := tr.reg.Has(obs.Metrics)
		var t0 time.Time
		if metrics {
			t0 = tr.reg.Now()
		}
		_, werr := p.conn.Write(buf)
		if metrics {
			tr.batchWrite.ObserveDuration(tr.reg.Now().Sub(t0))
			tr.batchFrames.Observe(int64(frames))
			tr.batchBytes.Observe(int64(len(buf)))
		}

		p.mu.Lock()
		p.writing = false
		if werr != nil {
			if tr.haRetain {
				// A broken lane in HA mode flips to retention instead of
				// poisoning senders: the failed batch's counted frames are
				// already in the retention log, and the death accounting runs
				// when the failure detector's verdict reaches markDead.  Drop
				// whatever queued up since the swap for the same reason — or
				// the non-empty batch keeps this loop retrying a broken
				// connection until the verdict lands.
				p.dead = true
				p.batch = p.batch[:0]
				p.frames, p.counted = 0, 0
			} else {
				p.err = werr
				tr.lost.Add(uint64(counted))
			}
		} else if p.spare == nil && cap(buf) <= 4*tr.cfg.BatchBytes {
			p.spare = buf[:0] // keep modest buffers; let outliers be collected
		}
		p.cond.Broadcast() // wake Flush waiters (and error out senders)
		p.mu.Unlock()
	}
}

// flush blocks until every frame enqueued on this peer before the call has
// been handed to the kernel (or the lane has failed).
func (p *peer) flush() {
	p.mu.Lock()
	for (len(p.batch) > 0 || p.writing) && p.err == nil {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// transport is the TCP implementation of core.Transport: frames for a
// cluster hosted elsewhere are appended to the owning peer's batch; inbound
// frames are pumped into the local VM by the per-peer reader/deliver
// pipeline in node.go.
type transport struct {
	nodeID int
	topo   Topology
	cfg    wireConfig

	// reg is the node's observability registry (never nil) plus the
	// resolved batch/credit instruments.
	reg           *obs.Registry
	batchWrite    *obs.Histogram // node.batch.write.ns: one batch's write syscall
	batchFrames   *obs.Histogram // node.batch.frames: frames coalesced per batch
	batchBytes    *obs.Histogram // node.batch.bytes: bytes per batch
	creditStallNS *obs.Histogram // node.credit.stall.ns: sender wait for credits
	creditStalls  *obs.Counter   // node.credit.stalls
	creditsTx     *obs.Counter   // node.credit.grants.tx
	creditsRx     *obs.Counter   // node.credit.grants.rx

	// peers holds the outbound connection to each node, indexed by node id
	// and sized from the topology; a slot is stored once, at addPeer, and
	// read without a lock.
	peers []atomic.Pointer[peer]

	be      backend.Backend
	writers backend.WaitGroup

	// sent and recv count wire frames (messages, broadcasts, initiate
	// replies) for the shutdown drain's global quiescence check; sent is
	// bumped at batch handoff (enqueue), recv at VM delivery.  lost counts
	// sent frames that a failed or closed lane can never deliver, so a
	// partial broadcast failure cannot wedge the drain's balance.
	sent atomic.Uint64
	recv atomic.Uint64
	lost atomic.Uint64

	// HA retention state.  haRetain is set once, before any traffic, when the
	// node runs with fault tolerance on.  routeMu orders sends against a
	// rebalance: in HA mode Send/SendReply hold it shared across
	// route-and-enqueue, the rebalance holds it exclusively across
	// replay-and-retarget, so every frame replayed to a buddy lands on the
	// buddy's lane BEFORE any newly routed frame — the ordering the
	// receiver's admission floors assume.  Nothing waits while holding it: a
	// send that finds its window spent lets go, waits for credits and routes
	// again.  Outside HA there is no rebalance and reroute stays empty, so a
	// send takes no route lock.  reroute maps a dead node to the node that
	// adopted its clusters (consulted by ownerOf, guarded by routeMu).  recvFrom counts delivered counted frames per
	// source lane: the drain balance sums only live sources, and the
	// pre-checkpoint snapshot of these counters is what checkpoint marks
	// carry.  buddy names the holder of the node's initiation log (LogInit),
	// and logged counts the entries sent to it, under logMu; read before a
	// checkpoint cut, it is the log prefix the checkpoint covers (an entry
	// counted but not yet sent is held past its cut, which is harmless).
	haRetain bool
	ageMu    sync.Mutex    // serialises ageExitRecords
	ageGen   atomic.Uint64 // the exit records' generation, announced on every heartbeat
	heardGen []atomic.Uint64
	routeMu  sync.RWMutex
	reroute  map[int]int
	cutMu    sync.RWMutex // a checkpoint cut against a delivery and its count (deliverStart)
	recvFrom []atomic.Uint64
	buddy    func() int
	logMu    sync.Mutex
	logged   atomic.Uint64

	vm atomic.Pointer[core.VM] // bound after the VM is booted

	// killed is set by Terminate before the lanes close: a task of the
	// killed node sending after that sees its frame vanish, as in a killed
	// process, rather than an error its program would report, and a child
	// whose initiation it logs does not start (LogInit).
	killed atomic.Bool
}

func newTransport(nodeID int, topo Topology, reg *obs.Registry, cfg wireConfig, be backend.Backend) *transport {
	return &transport{
		nodeID:        nodeID,
		topo:          topo,
		cfg:           cfg.withDefaults(),
		be:            be,
		writers:       be.NewWaitGroup(),
		reg:           reg,
		batchWrite:    reg.Histogram("node.batch.write.ns", "ns"),
		batchFrames:   reg.Histogram("node.batch.frames", "n"),
		batchBytes:    reg.Histogram("node.batch.bytes", "B"),
		creditStallNS: reg.Histogram("node.credit.stall.ns", "ns"),
		creditStalls:  reg.Counter("node.credit.stalls"),
		creditsTx:     reg.Counter("node.credit.grants.tx"),
		creditsRx:     reg.Counter("node.credit.grants.rx"),
		peers:         make([]atomic.Pointer[peer], topo.Nodes),
		recvFrom:      make([]atomic.Uint64, topo.Nodes),
		heardGen:      make([]atomic.Uint64, topo.Nodes),
	}
}

func (tr *transport) bind(vm *core.VM) { tr.vm.Store(vm) }

func (tr *transport) addPeer(id int, conn net.Conn) {
	p := &peer{
		id: id, conn: conn,
		credits:  tr.cfg.CreditWindow,
		txFrames: tr.reg.Counter(fmt.Sprintf("node.tx.n%d->n%d.frames", tr.nodeID, id)),
		txBytes:  tr.reg.Counter(fmt.Sprintf("node.tx.n%d->n%d.bytes", tr.nodeID, id)),
	}
	p.cond = tr.be.NewCond(&p.mu)
	tr.peers[id].Store(p)
	tr.writers.Add(1)
	tr.be.Spawn(fmt.Sprintf("node %d write %d", tr.nodeID, id), func() { p.writeLoop(tr) })
}

// peerAt returns the outbound connection to node, nil if there is none.
func (tr *transport) peerAt(node int) *peer {
	if node < 0 || node >= len(tr.peers) {
		return nil
	}
	return tr.peers[node].Load()
}

func (tr *transport) peerFor(node int) (*peer, error) {
	p := tr.peerAt(node)
	if p == nil {
		return nil, fmt.Errorf("node %d: no connection to node %d", tr.nodeID, node)
	}
	return p, nil
}

// allPeers snapshots the peer set in node-id order.
func (tr *transport) allPeers() []*peer {
	out := make([]*peer, 0, len(tr.peers))
	for i := range tr.peers {
		if p := tr.peers[i].Load(); p != nil {
			out = append(out, p)
		}
	}
	return out
}

// ownerOf maps a destination cluster to its hosting node, following the
// adoption chain when earlier owners have died.  In HA mode the caller must
// hold routeMu (shared suffices).
func (tr *transport) ownerOf(cluster int) (int, error) {
	n, ok := tr.topo.NodeOf(cluster)
	if !ok {
		return 0, fmt.Errorf("node %d: cluster %d is not in the topology", tr.nodeID, cluster)
	}
	for i := 0; i < len(tr.reroute); i++ {
		next, ok := tr.reroute[n]
		if !ok {
			break
		}
		n = next
	}
	return n, nil
}

// Send implements core.Transport: the frame is encoded straight into the
// owning peer's open batch — or, for a machine-wide broadcast, into every
// peer's.  A peer whose lane already failed contributes the first error but
// does not stop the remaining peers from getting their copy, and only the
// copies actually handed to a live lane are counted sent, so a partial
// broadcast failure leaves the drain protocol's books balanced.
func (tr *transport) Send(f *core.WireFrame) error {
	if err := checkWireType(tr.nodeID, f); err != nil {
		return err
	}
	enc := func(batch []byte) []byte { return encodeWireFrame(batch, f) }
	if f.Kind != core.FrameBroadcast || f.Dst != 0 {
		return tr.sendOn(nil, f, enc)
	}
	var firstErr error
	for _, p := range tr.allPeers() {
		if err := tr.sendOn(p, f, enc); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// sendOn enqueues the frame on lane p, or with p nil on the lane of the node
// hosting its destination, under the route lock in HA mode.  A spent window
// is waited out with the route lock released, and the frame routed again: a
// rebalance may have moved its destination meanwhile.  A broadcast copy that
// reaches a lane after such a move reaches the buddy's adopted tasks twice,
// once replayed; they drop the second by its send sequence.
func (tr *transport) sendOn(p *peer, f *core.WireFrame, enc func([]byte) []byte) error {
	var st *obs.Stamp
	if f.Kind == core.FrameMessage {
		st = &f.Stamp
	}
	for {
		if tr.haRetain {
			tr.routeMu.RLock()
		}
		q, err := p, error(nil)
		if q == nil {
			q, err = tr.route(f)
		}
		if q != nil {
			err = q.send(tr, wireKind(f), st, enc)
		}
		if tr.haRetain {
			tr.routeMu.RUnlock()
		}
		if err != errNoCredit {
			return err
		}
		q.awaitCredit(tr)
	}
}

// route returns the lane toward the node hosting the frame's destination
// cluster — or delivers it here, returning no lane, when this node adopted
// the cluster while the sender's routing decision was in flight.
func (tr *transport) route(f *core.WireFrame) (*peer, error) {
	owner, err := tr.ownerOf(f.Dst)
	if err != nil {
		return nil, err
	}
	if owner != tr.nodeID {
		return tr.peerFor(owner)
	}
	if vm := tr.vm.Load(); tr.haRetain && vm != nil {
		// Neither side of the drain balance counts a local delivery.
		return nil, vm.DeliverWire([]core.WireFrame{*f}, nil)
	}
	// The core only routes remotely for non-hosted clusters, so this is a
	// topology/hosting disagreement worth failing loudly on.
	return nil, fmt.Errorf("node %d: frame for cluster %d routed remotely but hosted here", tr.nodeID, f.Dst)
}

// SendReply carries a routed-initiate reply back to the node hosting the
// requesting cluster.  Replies are counted in the drain balance but not
// credited (fInitReply's row): they ride the control channel so a reply can
// never deadlock against the data window it would unblock.
func (tr *transport) SendReply(dst int, replyID uint64, id core.TaskID) error {
	if tr.haRetain {
		tr.routeMu.RLock()
		defer tr.routeMu.RUnlock()
	}
	owner, err := tr.ownerOf(dst)
	if err != nil {
		return err
	}
	if owner == tr.nodeID {
		if vm := tr.vm.Load(); vm != nil {
			vm.DeliverWireReply(replyID, id)
			return nil
		}
		return fmt.Errorf("node %d: reply for local cluster %d before the VM is bound", tr.nodeID, dst)
	}
	p, err := tr.peerFor(owner)
	if err != nil {
		return err
	}
	return p.send(tr, fInitReply, nil, func(batch []byte) []byte {
		return encodeInitReply(batch, replyID, id)
	})
}

// sendControl enqueues one already-encoded protocol control frame (drain,
// drain ack, shutdown, credit grant, the HA frames) on the given peer; their
// rows are all uncredited and outside the drain balance.
func (tr *transport) sendControl(node int, payload []byte) error {
	p, err := tr.peerFor(node)
	if err != nil {
		return err
	}
	return p.send(tr, payload[0], nil, func(batch []byte) []byte {
		return append(batch, payload...)
	})
}

// grantCredits returns n delivered-frame credits to the peer; called from
// the node's delivery stage as frames land in the VM.
func (tr *transport) grantCredits(node int, n int) {
	if n <= 0 {
		return
	}
	if err := tr.sendControl(node, encodeCredit(uint32(n))); err == nil && tr.reg.Has(obs.Metrics) {
		tr.creditsTx.Inc()
	}
}

// addCredits applies an inbound credit grant from the peer and wakes any
// sender stalled on the window.
func (tr *transport) addCredits(node int, n uint32) {
	p, err := tr.peerFor(node)
	if err != nil {
		return
	}
	p.mu.Lock()
	p.credits += int(n)
	p.cond.Broadcast()
	p.mu.Unlock()
	if tr.reg.Has(obs.Metrics) {
		tr.creditsRx.Inc()
	}
}

// Flush implements core.Transport: it blocks until every frame accepted
// before the call has been handed to the kernel.  With batching this is a
// real wait (an open batch may not have reached the writer yet), which is
// what keeps the VM's shutdown and user-output flushes honest.
func (tr *transport) Flush() {
	for _, p := range tr.allPeers() {
		p.flush()
	}
}

// Close stops the writers and tears the peer connections down.  Closing the
// connections first unblocks any writer stuck in a syscall against a dead
// peer; the writers then drain or discard what is left and exit.
func (tr *transport) Close() error {
	peers := tr.allPeers()
	for _, p := range peers {
		p.mu.Lock()
		p.closed = true
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	var firstErr error
	for _, p := range peers {
		if err := p.conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	tr.writers.Wait()
	return firstErr
}

// counts returns the frames handed to live lanes and received so far (drain
// protocol).  Frames a failed lane accepted but can never deliver are
// subtracted from sent: the receiver will never count them, and a constant
// phantom imbalance would otherwise hang every later drain round.  In HA
// mode, frames received FROM a node that has since died are likewise
// subtracted from recv — their sender's sent counter vanished with it, and
// the adopting buddy's replayed regeneration is what re-balances the books.
func (tr *transport) counts() (sent, recv uint64) {
	recv = tr.recv.Load()
	if tr.haRetain {
		for _, p := range tr.allPeers() {
			p.mu.Lock()
			dead := p.dead
			p.mu.Unlock()
			if dead && p.id >= 0 && p.id < len(tr.recvFrom) {
				recv -= tr.recvFrom[p.id].Load()
			}
		}
	}
	return tr.sent.Load() - tr.lost.Load(), recv
}
