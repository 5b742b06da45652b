package node

import (
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/mmos"
)

// Transport-level fault tolerance: sender-side frame retention.
//
// In HA mode every node periodically checkpoints its hosted clusters and
// streams the blob to a buddy (node.go).  A checkpoint only captures state
// that reached the dying node's VM before the cut — everything a peer sent
// AFTER the cut must be re-deliverable, so each sender keeps a copy of every
// counted data frame it hands a lane until a stored checkpoint of the
// receiver covers it:
//
//	sender                       receiver X                        X's buddy B
//	  | -- data frames  ------->  | (delivers, counts)               |
//	  |                           | -- fCkpt{epoch,n,marks,blob} --> | (stores)
//	  | <------------------- fCkptMark{from X, count} -------------- |
//	  | drops retained idx<=count |                                  |
//
// X's mark for a sender counts the frames from it X had delivered at the
// CUT, exactly those the blob holds.  The blob carries the marks and B sends
// them as it stores it — whoever holds a receiver's checkpoint tells the
// senders what they may discard — so no blob is durable without its marks,
// and a blob lost with X never released the frames that rebuild it.  When X
// dies, each sender replays its retained backlog onto B's lane under the
// route lock, a broadcast to every node narrowed to X's clusters; B's
// restored admission floors drop whatever the blob already covers.
//
// B also holds X's initiation log.  Each sequenced initiation X's controllers
// start goes to B as one fInitLog entry before the child runs, and the child
// starts only after B's fInitLogAck.  fCkpt's n is X's log count taken before
// the cut; B drops the entries it covers and, when X dies, hands the rest to
// Restore, so a child started after the cut comes back under its first id.
//
// A FaultMesh (fault.go) runs this same code: its nodes are real nodes on an
// in-memory network, so the seeded sweeps drive every step above.

// retention is a lane's sender-side retention: the counted frames it
// carried, numbered from 1 and kept in wire encoding (kind byte + body) until
// the receiver's mark covers them, so frames holds numbers acked+1 on.  The
// lane's lock guards it.  replayed marks that the backlog went to the dead
// receiver's adopter; nothing more is kept for it.
type retention struct {
	acked    uint64
	frames   [][]byte
	replayed bool
}

// keep copies one counted frame into the log.
func (r *retention) keep(payload []byte) {
	r.frames = append(r.frames, append([]byte(nil), payload...))
}

// release drops the frames a receiver's checkpoint mark covers.
func (r *retention) release(count uint64) {
	if count > r.acked {
		r.frames = slices.Delete(r.frames, 0, int(min(count-r.acked, uint64(len(r.frames)))))
		r.acked = count
	}
}

// take hands the backlog over for replay.
func (r *retention) take() [][]byte {
	frames := r.frames
	r.frames, r.replayed = nil, true
	return frames
}

// heldInit is entry count of a peer's initiation log.
type heldInit struct {
	count uint64
	init  core.LoggedInit
}

// held is what a node keeps as a peer's buddy: the epoch and blob of its
// latest stored checkpoint, the initiation log entries the blob does not
// cover, and whether this node adopted the peer.
type held struct {
	epoch   uint64
	blob    []byte
	inits   []heldInit
	adopted bool
}

// buddyStore is what a node keeps as its peers' buddy, by peer id.
type buddyStore struct {
	mu    sync.Mutex
	peers []held
}

// store keeps the peer's latest checkpoint blob, drops the entries of its
// log the blob covers (the first covered) and runs release, under the lock
// adopt takes; once the peer is adopted it keeps nothing, runs nothing and
// reports false (the orderings storeCheckpoint states).
func (b *buddyStore) store(from int, epoch, covered uint64, blob []byte, release func()) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	h := &b.peers[from]
	if h.adopted {
		return false
	}
	h.epoch, h.blob = epoch, append(h.blob[:0], blob...)
	h.inits = slices.DeleteFunc(h.inits, func(e heldInit) bool { return e.count <= covered })
	release()
	return true
}

// hold keeps entry count of the peer's initiation log.
func (b *buddyStore) hold(from int, count uint64, l core.LoggedInit) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.peers[from].inits = append(b.peers[from].inits, heldInit{count, l})
}

// stored returns the epoch of the peer's checkpoint this node stored, 0 for
// none.
func (b *buddyStore) stored(from int) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peers[from].epoch
}

// adopt returns what the adopter of a dead peer restores: its last
// checkpoint blob, empty when none was stored, and the initiations logged
// since.  Every later blob from the peer is dropped (store).
func (b *buddyStore) adopt(from int) ([]byte, []core.LoggedInit) {
	b.mu.Lock()
	defer b.mu.Unlock()
	h := &b.peers[from]
	h.adopted = true
	inits := make([]core.LoggedInit, len(h.inits))
	for i, e := range h.inits {
		inits[i] = e.init
	}
	return h.blob, inits
}

// setHA flips the transport into retention mode; buddy names the holder of
// its initiation log.  Must be called before any traffic flows.
func (tr *transport) setHA(buddy func() int) {
	tr.haRetain = true
	tr.ageGen.Store(1) // a peer's first mark shows generation 0 until it hears a heartbeat
	tr.reroute = make(map[int]int)
	tr.buddy = buddy
}

// deliverStart opens a delivery of counted frames from a peer's lane, which
// deliverDone closes: in HA mode the two hold cutMu shared, so a checkpoint
// cut, which takes it exclusively around its receive snapshot
// (checkpointTick), never falls between a frame's delivery and its count.  A
// buddy's local replay (from is the node itself) takes no part: no mark is
// ever sent for the node's own lane, and the replay runs under routeMu,
// which a delivery holding cutMu may wait for to send an initiate reply.
func (tr *transport) deliverStart(from int) {
	if tr.haRetain && from != tr.nodeID {
		tr.cutMu.RLock()
	}
}

// deliverDone counts k delivered counted frames from the source lane and
// closes the delivery.
func (tr *transport) deliverDone(from, k int) {
	tr.recv.Add(uint64(k))
	if !tr.haRetain {
		return
	}
	if from >= 0 && from < len(tr.recvFrom) {
		tr.recvFrom[from].Add(uint64(k))
	}
	if from != tr.nodeID {
		tr.cutMu.RUnlock()
	}
}

// mark is what a checkpoint mark tells one peer: how many of its counted
// frames this node had delivered, and the latest generation of its exit
// records this node had heard, when the checkpoint was cut.
type mark struct {
	peer       int
	count, gen uint64
}

// recvSnapshot returns the marks for every peer, in peer order.  Taken with
// the cut, under cutMu, they travel in the checkpoint frame, and the buddy
// sends them when it stores the blob.
func (tr *transport) recvSnapshot() []mark {
	var out []mark
	for _, p := range tr.allPeers() {
		out = append(out, mark{p.id, tr.recvFrom[p.id].Load(), tr.heardGen[p.id].Load()})
	}
	return out
}

// heard records the exit-record generation a peer's heartbeat announced.
func (tr *transport) heard(from int, gen uint64) {
	if from >= 0 && from < len(tr.heardGen) && gen > tr.heardGen[from].Load() {
		tr.heardGen[from].Store(gen) // one reader per lane: no lost update
	}
}

// markDead flips the lane toward a dead node into retention mode and settles
// its drain accounting: the retained prefix the peer had acknowledged lives
// on only in the buddy-held checkpoint blob (never to be recv-counted
// again), so it leaves the sent balance; everything else is still retained
// and will be recv-counted when replayed.  Idempotent, and safe after a
// write error already set p.dead — the accounting still runs exactly once.
func (tr *transport) markDead(node int) {
	p := tr.peerAt(node)
	if p == nil {
		return
	}
	p.mu.Lock()
	first := !p.deadDone
	p.dead, p.deadDone = true, true
	if first {
		tr.lost.Add(p.ret.acked)
		// The open batch can never be written; its counted frames are all in
		// retention already.
		p.batch = p.batch[:0]
		p.frames, p.counted = 0, 0
	}
	p.cond.Broadcast() // wake credit waiters and the writer
	p.mu.Unlock()
	if first {
		_ = p.conn.Close() // unblock a writer mid-syscall
	}
}

// isDead reports whether the lane toward the node has been marked dead.
func (tr *transport) isDead(node int) bool {
	p := tr.peerAt(node)
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead
}

// ackRetained takes a mark of node's checkpoint: it notes the generation the
// node's durable cut followed and drops the retained prefix the mark covers.
// Only the buddy that stored the blob sends a mark, so it holds also when it
// lands after the lane broke: the blob is what the buddy restores.  Until
// the backlog is replayed it is released, and what markDead already settled
// the drain balance for is written off as lost with it.  Replaying a covered
// frame instead would deliver it twice if it carries no send sequence — a
// user's INITIATE of a task on the dead node, say.
func (tr *transport) ackRetained(node int, count, gen uint64) {
	p := tr.peerAt(node)
	if p == nil {
		return
	}
	p.mu.Lock()
	p.markGen = max(p.markGen, gen)
	if !p.ret.replayed {
		before := p.ret.acked
		p.ret.release(count)
		if p.deadDone {
			tr.lost.Add(p.ret.acked - before)
		}
	}
	p.mu.Unlock()
	tr.ageExitRecords()
}

// marked reports whether the lane toward node took a mark at least mk.
func (tr *transport) marked(node int, mk mark) bool {
	p := tr.peerAt(node)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ret.acked >= mk.count && p.markGen >= mk.gen
}

// ageExitRecords starts a new generation of the VM's exit records once
// every peer that could still re-execute sends into this node has a durable
// checkpoint cut after the current one began.  Every heartbeat announces the
// current generation, and a peer's mark carries the latest it heard before
// its cut, so the peer's mark shows it whatever traffic goes between the two.
// A dead peer whose backlog is not replayed yet holds the generations back;
// one whose backlog went to its buddy no longer does.
func (tr *transport) ageExitRecords() {
	tr.ageMu.Lock()
	defer tr.ageMu.Unlock()
	gen := tr.ageGen.Load()
	for _, p := range tr.allPeers() {
		p.mu.Lock()
		past := p.ret.replayed || p.markGen >= gen
		p.mu.Unlock()
		if !past {
			return
		}
	}
	// Rotate before announcing: a cut that follows a heartbeat carrying the
	// new generation then follows every exit the older ones recorded.
	if vm := tr.vm.Load(); vm != nil {
		vm.AgeExitRecords()
	}
	tr.ageGen.Add(1)
}

// LogInit implements core's initLogger: the initiation goes to this node's
// checkpoint buddy as one fInitLog frame, numbered in log order, and the call
// returns once the buddy acked it — or the lane to the buddy died, or the
// node is shutting down — with by's PE released meanwhile.  It reports
// whether the child may run: not on a killed node, whose controller the
// teardown released.  Node 0 is not recoverable and keeps no log.
func (tr *transport) LogInit(by *mmos.Proc, l core.LoggedInit) bool {
	if !tr.haRetain || tr.nodeID == 0 {
		return true
	}
	p := tr.peerAt(tr.buddy())
	if p == nil {
		return true
	}
	// Numbered and enqueued under one lock, so the buddy's lane carries the
	// entries in log order.
	tr.logMu.Lock()
	count := tr.logged.Add(1)
	err := tr.sendControl(p.id, encodeInitLog(tr.nodeID, count, l))
	tr.logMu.Unlock()
	if err == nil {
		wait := func() {
			p.mu.Lock()
			for p.logAcked < count && !p.dead {
				p.cond.Wait()
			}
			p.mu.Unlock()
		}
		if by != nil {
			by.BlockFn(wait)
		} else {
			wait()
		}
	}
	return !tr.killed.Load()
}

// ackInitLog records a buddy's ack of the log up to count and wakes the
// LogInit calls waiting for it.
func (tr *transport) ackInitLog(node int, count uint64) {
	if p := tr.peerAt(node); p != nil {
		p.mu.Lock()
		p.logAcked = max(p.logAcked, count)
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// stopLog releases every LogInit for good, as if each buddy had acked the
// whole log: the node is shutting down, and a controller waiting on its
// buddy must not hold the VM's shutdown up.
func (tr *transport) stopLog() {
	for _, p := range tr.allPeers() {
		tr.ackInitLog(p.id, math.MaxUint64)
	}
}

// replayRetained replays the frames retained toward the dead node, in send
// order, onto the buddy's lane, or through local (the node's own deliver
// path) when this node IS the buddy, then reroutes the dead node's clusters
// and returns the number replayed.  A node-wide broadcast goes once per dead
// cluster, narrowed to it: the dead node's tasks are the receivers it has
// not reached on the buddy, and the buddy's own tasks — one started after
// the broadcast included — never were.  The caller holds routeMu
// exclusively, so the backlog precedes every newly routed frame, as the
// restored floors assume.
func (tr *transport) replayRetained(dead, buddy int, local func(payload []byte) error) (int, error) {
	pd := tr.peerAt(dead)
	if pd == nil {
		return 0, nil
	}
	pd.mu.Lock()
	frames := pd.ret.take()
	pd.mu.Unlock()

	put := local
	if buddy != tr.nodeID {
		pb, err := tr.peerFor(buddy)
		if err != nil {
			return 0, err
		}
		// The one enqueue that overrides its frame's row: uncredited (the
		// replay must not stall on a window the busy buddy has not refilled)
		// and uncounted (the original enqueue already counted these frames
		// sent; the buddy counts them received).
		put = func(payload []byte) error {
			return pb.enqueue(tr, false, false, nil, func(batch []byte) []byte {
				return append(batch, payload...)
			})
		}
	}
	var (
		n   int
		err error
		m   frame
	)
	for _, f := range frames {
		copies := [][]byte{f}
		if _, derr := decodeFrame(&m, f); derr == nil && m.kind == fBcast && m.msg.Dst == 0 {
			copies = copies[:0]
			for _, c := range tr.topo.Clusters(dead) {
				g := *m.msg
				g.Dst = c
				copies = append(copies, encodeWireFrame(nil, &g))
			}
		}
		for _, p := range copies {
			if perr := put(p); perr != nil && err == nil {
				err = perr
			}
			n++
		}
	}
	// The buddy counts every narrowed copy of a broadcast received; the
	// original enqueue counted one sent.
	tr.sent.Add(uint64(n - len(frames)))
	tr.reroute[dead] = buddy
	return n, err
}
