package node

import (
	"math"
	"slices"

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
// backlog onto B's lane under the route lock; B's restored admission floors
// drop whatever the blob already covers.
//
// B also holds X's initiation log.  Each sequenced initiation X's controllers
// start goes to B as one fInitLog entry before the child runs, and the child
// starts only after B's fInitLogAck.  fCkpt's n is X's log count taken before
// the cut; B drops the entries it covers and, when X dies, hands the rest to
// Restore, so a child started after the cut comes back under its first id.

// retFrame is one retained data frame: the encoded payload (kind byte +
// body, no length prefix) and its 1-based position in the lane's
// counted-frame order.
type retFrame struct {
	idx     uint64
	payload []byte
}

// setHA flips the transport into retention mode; buddy names the holder of
// its initiation log.  Must be called before any traffic flows.
func (tr *transport) setHA(buddy func() int) {
	tr.haRetain = true
	tr.reroute = make(map[int]int)
	tr.buddy = buddy
}

// countRecv counts one delivered counted frame from the given source lane
// (the node itself for a buddy's local replay).
func (tr *transport) countRecv(from int) {
	tr.recv.Add(1)
	if tr.haRetain && from >= 0 && from < len(tr.recvFrom) {
		tr.recvFrom[from].Add(1)
	}
}

// recvSnapshot returns the per-source delivered counts.  Taken immediately
// BEFORE a checkpoint cut, these are the marks to broadcast once the buddy
// acks the blob: every frame counted here reached the VM before the cut, so
// its effect is inside the checkpoint.
func (tr *transport) recvSnapshot() map[int]uint64 {
	out := make(map[int]uint64, len(tr.recvFrom))
	for _, p := range tr.allPeers() {
		out[p.id] = tr.recvFrom[p.id].Load()
	}
	return out
}

// retainPayloadLocked copies one counted frame into the lane's retention log.
// Caller holds p.mu and has already counted the frame sent.
func (p *peer) retainPayloadLocked(payload []byte) {
	p.sentIdx++
	p.retained = append(p.retained, retFrame{idx: p.sentIdx, payload: append([]byte(nil), payload...)})
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
		tr.lost.Add(p.ackIdx)
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

// ackRetained drops the retained prefix a peer's checkpoint mark covers.
// Marks from a peer already marked dead are ignored: the death accounting
// has settled and the frames will be replayed instead (over-replay is safe,
// under-retention is not).
func (tr *transport) ackRetained(node int, count uint64) {
	p := tr.peerAt(node)
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.dead && count > p.ackIdx {
		p.retained = slices.DeleteFunc(p.retained, func(rf retFrame) bool { return rf.idx <= count })
		p.ackIdx = count
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

// replayRetained hands every frame retained toward the dead node to the
// adopting buddy — onto the buddy's lane, or through local (the node's own
// deliver path) when this node IS the buddy — then reroutes the dead node's
// clusters.  The caller must hold routeMu exclusively: that is what
// guarantees the replayed backlog precedes every newly routed frame on the
// buddy's lane, the order the restored admission floors assume.  Returns the
// number of frames replayed.
func (tr *transport) replayRetained(dead, buddy int, local func(payload []byte) error) (int, error) {
	pd := tr.peerAt(dead)
	if pd == nil {
		return 0, nil
	}
	pd.mu.Lock()
	frames := pd.retained
	pd.retained = nil
	pd.replayed = true
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
	var firstErr error
	for _, rf := range frames {
		if err := put(rf.payload); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	tr.reroute[dead] = buddy
	return len(frames), firstErr
}
