package node

import (
	"repro/internal/core"
	"repro/internal/msgcodec"
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
//	  |                           | -- fCkpt{epoch,blob} ----> | (stores)
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

// retFrame is one retained data frame: the encoded payload (kind byte +
// body, no length prefix), its 1-based position in the lane's counted-frame
// order, and — for initiate requests — the ReplyID and, once the reply was
// observed, the taskid the request was answered with.
type retFrame struct {
	idx     uint64
	payload []byte
	replyID uint64
	initID  core.TaskID
}

// setHA flips the transport into retention mode.  Must be called before any
// traffic flows.
func (tr *transport) setHA() {
	tr.haRetain = true
	tr.reroute = make(map[int]int)
	tr.pendInit = make(map[uint64]*retFrame)
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
func (p *peer) retainPayloadLocked(tr *transport, payload []byte, replyID uint64) {
	p.sentIdx++
	rf := &retFrame{idx: p.sentIdx, payload: append([]byte(nil), payload...), replyID: replyID}
	p.retained = append(p.retained, rf)
	if replyID != 0 {
		tr.pendMu.Lock()
		tr.pendInit[replyID] = rf
		tr.pendMu.Unlock()
	}
}

// retainDeadLocked handles an enqueue on a dead lane: counted data frames are
// encoded into scratch space and retained for the rebalance replay (the
// sender must not see an error — the frame happened, its delivery is the
// buddy's), control frames are dropped, and frames arriving after the replay
// already ran are redundant with the buddy's own lane.  Caller holds p.mu.
func (p *peer) retainDeadLocked(tr *transport, counted bool, replyID uint64, encode func(batch []byte) []byte) error {
	if !counted || p.replayed {
		return nil
	}
	start := len(p.batch)
	batch, payloadStart := msgcodec.BeginFrame(p.batch)
	batch = encode(batch)
	batch, err := msgcodec.EndFrame(batch, payloadStart, 0)
	if err != nil {
		p.batch = batch[:start]
		return err
	}
	tr.sent.Add(1)
	p.retainPayloadLocked(tr, batch[payloadStart:], replyID)
	p.batch = batch[:start]
	return nil
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
	var freed []uint64
	p.mu.Lock()
	if !p.dead && count > p.ackIdx {
		drop := 0
		for drop < len(p.retained) && p.retained[drop].idx <= count {
			if id := p.retained[drop].replyID; id != 0 {
				freed = append(freed, id)
			}
			drop++
		}
		if drop > 0 {
			n := copy(p.retained, p.retained[drop:])
			for i := n; i < len(p.retained); i++ {
				p.retained[i] = nil
			}
			p.retained = p.retained[:n]
		}
		p.ackIdx = count
	}
	p.mu.Unlock()
	if len(freed) > 0 {
		tr.pendMu.Lock()
		for _, id := range freed {
			delete(tr.pendInit, id)
		}
		tr.pendMu.Unlock()
	}
}

// noteInitReply annotates the retained initiate-request frame the reply
// answers with the assigned taskid, so a replay of the request re-creates
// the task under the same identity (via a restore plan).
func (tr *transport) noteInitReply(replyID uint64, id core.TaskID) {
	if !tr.haRetain || replyID == 0 {
		return
	}
	tr.pendMu.Lock()
	if rf := tr.pendInit[replyID]; rf != nil {
		rf.initID = id
	}
	tr.pendMu.Unlock()
}

// replayRetained hands every frame retained toward the dead node to the
// adopting buddy — onto the buddy's lane, or through local (the node's own
// deliver path) when this node IS the buddy — then reroutes the dead node's
// clusters.  Each annotated initiate request is preceded by its restore plan
// so the controller re-creates the task under its recorded id.  The caller
// must hold routeMu exclusively: that is what guarantees the replayed backlog
// precedes every newly routed frame on the buddy's lane, the order the
// restored admission floors assume.  Returns the number of frames replayed.
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
			return pb.enqueue(tr, false, false, 0, func(batch []byte) []byte {
				return append(batch, payload...)
			})
		}
	}
	var firstErr error
	var m frame
	for _, rf := range frames {
		if rf.replyID != 0 {
			tr.pendMu.Lock()
			id := rf.initID
			delete(tr.pendInit, rf.replyID)
			tr.pendMu.Unlock()
			if id != core.NilTask {
				// The routing header of the retained request frame names the
				// initiate the plan is for.
				if _, err := decodeFrame(&m, rf.payload); err == nil {
					if err := put(encodeRestorePlan(m.msg.Dst, m.msg.Sender, m.msg.SendSeq, id)); err != nil && firstErr == nil {
						firstErr = err
					}
				}
			}
		}
		if err := put(rf.payload); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	tr.reroute[dead] = buddy
	return len(frames), firstErr
}
