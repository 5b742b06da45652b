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
// counted data frame it hands a lane until the receiving node acknowledges a
// checkpoint covering it:
//
//	sender                       receiver X                  X's buddy B
//	  | -- data frames  ------->  | (delivers, counts)         |
//	  |                           | -- fCkpt{epoch,n,blob} --> | (stores)
//	  |                           | <---- fCkptAck{epoch} ---- |
//	  | <-- fCkptMark{count} ---  | (only after the ack)       |
//	  | drops retained idx<=count |                            |
//
// The mark's count is the number of counted frames X's lane had delivered
// when the checkpoint was CUT (a pre-cut snapshot, so over-retention is the
// safe direction), and it is only broadcast after the buddy's ack — a blob
// lost with a dying X can never have released the retention that would
// rebuild its contents.  When X dies, each sender replays its retained
// backlog onto B's lane under the route lock, a broadcast to every node
// narrowed to X's clusters; B's restored admission floors drop whatever the
// blob already covers.
//
// B also holds X's initiation log.  Each sequenced initiation X's controllers
// start goes to B as one fInitLog entry before the child runs, and the child
// starts only after B's fInitLogAck.  fCkpt's n is X's log count taken before
// the cut; B drops the entries it covers and, when X dies, hands the rest to
// Restore, so a child started after the cut comes back under its first id.
//
// The fault mesh (fault.go) keeps the same retention per lane and buddyStore.

// retention is one end's sender-side retention toward another: the counted
// frames it sent that way, numbered from 1 and kept in wire encoding (kind
// byte + body) until the receiver's mark covers them, so frames holds
// numbers acked+1 on.  The owner guards it.  replayed marks that the backlog
// went to the dead receiver's adopter; nothing more is kept for it.
type retention struct {
	acked    uint64
	frames   [][]byte
	replayed bool
}

// keep copies one counted frame into the log and returns its number.
func (r *retention) keep(payload []byte) uint64 {
	r.frames = append(r.frames, append([]byte(nil), payload...))
	return r.acked + uint64(len(r.frames))
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

// replay puts retained frames, in send order, to the adopter of a dead end
// that hosted clusters, and returns how many it put.  A node-wide broadcast
// goes once per cluster, narrowed to it: the dead end's tasks are the
// receivers it has not reached on the adopter, and the adopter's own tasks —
// one started after the broadcast included — never were.
func replay(frames [][]byte, clusters []int, put func(payload []byte) error) (n int, err error) {
	var m frame
	for _, f := range frames {
		copies := [][]byte{f}
		if _, derr := decodeFrame(&m, f); derr == nil && m.kind == fBcast && m.msg.Dst == 0 {
			copies = copies[:0]
			for _, c := range clusters {
				g := m.msg
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
	return n, err
}

// heldInit is entry count of a peer's initiation log.
type heldInit struct {
	count uint64
	init  core.LoggedInit
}

// buddyStore is what an end holds as its peers' buddy, by peer id: the
// latest checkpoint blob and the initiation log entries it does not cover.
type buddyStore struct {
	mu    sync.Mutex
	blobs [][]byte
	inits [][]heldInit
}

func newBuddyStore(peers int) *buddyStore {
	return &buddyStore{blobs: make([][]byte, peers), inits: make([][]heldInit, peers)}
}

// store keeps the peer's latest checkpoint blob and drops the entries of its
// log the blob covers, the first covered.
func (b *buddyStore) store(from int, covered uint64, blob []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.blobs[from] = append(b.blobs[from][:0], blob...)
	b.inits[from] = slices.DeleteFunc(b.inits[from], func(h heldInit) bool { return h.count <= covered })
}

// hold keeps entry count of the peer's initiation log.
func (b *buddyStore) hold(from int, count uint64, l core.LoggedInit) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inits[from] = append(b.inits[from], heldInit{count, l})
}

// held returns what the adopter of a dead peer restores: its last checkpoint
// blob, empty when none was stored, and the initiations logged since.
func (b *buddyStore) held(from int) ([]byte, []core.LoggedInit) {
	b.mu.Lock()
	defer b.mu.Unlock()
	inits := make([]core.LoggedInit, len(b.inits[from]))
	for i, h := range b.inits[from] {
		inits[i] = h.init
	}
	return b.blobs[from], inits
}

// nextLive returns the next live end after the given id, cyclically, or -1:
// an end's buddy, or a dead end's adopter — the end its blob went to.
func nextLive(after, total int, dead func(int) bool) int {
	for i := 1; i < total; i++ {
		if id := (after + i) % total; !dead(id) {
			return id
		}
	}
	return -1
}

// setHA flips the transport into retention mode; buddy names the holder of
// its initiation log.  Must be called before any traffic flows.
func (tr *transport) setHA(buddy func() int) {
	tr.haRetain = true
	tr.reroute = make(map[int]int)
	tr.buddy = buddy
}

// countRecv counts one delivered counted frame from the source lane (the
// node itself for a buddy's local replay).
func (tr *transport) countRecv(from int) {
	tr.recv.Add(1)
	if tr.haRetain && from >= 0 && from < len(tr.recvFrom) {
		tr.recvFrom[from].Add(1)
	}
}

// recvSnapshot returns the per-source delivered counts.  Taken BEFORE a
// checkpoint cut, they are the marks to send once the buddy acks the blob.
func (tr *transport) recvSnapshot() map[int]uint64 {
	out := make(map[int]uint64, len(tr.recvFrom))
	for _, p := range tr.allPeers() {
		out[p.id] = tr.recvFrom[p.id].Load()
	}
	return out
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

// ackRetained drops the retained prefix a peer's checkpoint mark covers,
// unless the peer is marked dead: its frames will be replayed instead
// (over-replay is safe, under-retention is not).
func (tr *transport) ackRetained(node int, count uint64) {
	p := tr.peerAt(node)
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.dead {
		p.ret.release(count)
	}
	p.mu.Unlock()
}

// LogInit implements core's initLogger: the initiation goes to this node's
// checkpoint buddy as one fInitLog frame, numbered in log order, and the call
// returns once the buddy acked it — or the lane to the buddy died, or the
// node is shutting down — with by's PE released meanwhile.  Node 0 is not
// recoverable and keeps no log.
func (tr *transport) LogInit(by *mmos.Proc, l core.LoggedInit) {
	if !tr.haRetain || tr.nodeID == 0 {
		return
	}
	p := tr.peerAt(tr.buddy())
	if p == nil {
		return
	}
	// Numbered and enqueued under one lock, so the buddy's lane carries the
	// entries in log order.
	tr.logMu.Lock()
	count := tr.logged.Add(1)
	err := tr.sendControl(p.id, encodeInitLog(tr.nodeID, count, l))
	tr.logMu.Unlock()
	if err != nil {
		return
	}
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

// replayRetained replays the frames retained toward the dead node onto the
// buddy's lane, or through local (the node's own deliver path) when this
// node IS the buddy, then reroutes the dead node's clusters and returns the
// number replayed.  The caller holds routeMu exclusively, so the backlog
// precedes every newly routed frame, as the restored floors assume.
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
			return pb.enqueue(tr, false, false, func(batch []byte) []byte {
				return append(batch, payload...)
			})
		}
	}
	n, err := replay(frames, tr.topo.Clusters(dead), put)
	// The buddy counts every narrowed copy of a broadcast received; the
	// original enqueue counted one sent.
	tr.sent.Add(uint64(n - len(frames)))
	tr.reroute[dead] = buddy
	return n, err
}
