package node

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Node-level fault tolerance: the heartbeat/checkpoint loop and the rebalance
// protocol.  The transport half (frame retention and replay) lives in ha.go;
// the VM half (admission floors, consumption-log replay, checkpoint encoding)
// in core/ha.go.
//
// Failure handling in three acts:
//
//  1. Detection.  Every node heartbeats every peer (uncredited control
//     frames); any inbound frame counts as a sign of life.  A peer silent for
//     SuspicionAfter is declared dead by the detector — finally, with no
//     resurrection.
//  2. Verdict.  The rebalance leader — the lowest live node id — picks the
//     dead node's buddy (the next live id after it, cyclically: the node that
//     holds its latest checkpoint) and broadcasts fRebalance.  A follower that
//     merely SUSPECTS a peer waits for the verdict, so the mesh agrees on one
//     membership change at a time.  Node 0 hosts the user controller and
//     cannot be replaced; followers that lose it shut down.
//  3. Recovery.  The buddy adopts the dead node's clusters, restores the last
//     checkpoint blob and the initiation log it holds, and broadcasts
//     fRebalanceReady.  On that signal every node replays its retained
//     post-checkpoint frames onto the buddy's lane and reroutes the dead
//     node's clusters there.  The restored admission floors drop whatever
//     the blob already covered, so over-replay is harmless.
//
// One failure per checkpoint interval is tolerated: a second node dying
// before the first recovery completes (or taking the only copy of a blob with
// it) is not recoverable.

// defaultCheckpointInterval balances recovery work (everything after the last
// cut is replayed from retention) against checkpoint traffic (each tick
// serialises the hosted clusters and ships the blob to the buddy).
const defaultCheckpointInterval = 250 * time.Millisecond

// haLoop is the HA heartbeat: every HeartbeatInterval on the backend clock
// it beats each live peer and sweeps the failure detector, and on the first
// beat CheckpointInterval after the last cut it cuts a checkpoint.  It ends
// when shutdown pulses haWake.  Deaths are handled in tasks of their own so
// a slow restore never pauses the heartbeats that keep THIS node alive in
// its peers' detectors.
func (n *Node) haLoop() {
	defer n.readers.Done()
	lastCut := n.be.Now()
	for !n.haWake.WaitTimeout(n.opts.HeartbeatInterval) {
		beat := encodeHeartbeat(n.opts.NodeID, n.tr.ageGen.Load())
		for _, id := range n.det.Alive() {
			if id != n.opts.NodeID {
				_ = n.tr.sendControl(id, beat)
			}
		}
		for _, dead := range n.det.Check() {
			n.spawn(func() { n.handleDeath(dead) })
		}
		if now := n.be.Now(); now.Sub(lastCut) >= n.opts.CheckpointInterval {
			lastCut = now
			n.checkpointTick()
		}
	}
}

// checkpointTick cuts one checkpoint of the hosted clusters and streams it to
// the buddy with the initiation log's count, and returns its epoch (0 when
// none was shipped).  The counts are taken with the cut and no delivery
// between (cutMu): a frame the receive counts include is in the blob, and a
// frame in the blob is counted, so its sender neither drops a frame the blob
// lacks nor replays one the blob holds.  The log count is taken before the
// cut, so its entries' effects are inside the blob.  The receive counts go
// out as retention marks only once the buddy acks the blob (fCkptAck), or
// the blob and the frames that rebuild it could die together.
func (n *Node) checkpointTick() uint64 {
	buddy := n.nextLive(n.opts.NodeID)
	if buddy < 0 {
		return 0 // no live peer to hold the blob
	}
	n.tr.cutMu.Lock()
	snap, inits := n.tr.recvSnapshot(), n.tr.logged.Load()
	blob, err := n.vm.Checkpoint(n.vm.HostedClusters()...)
	n.tr.cutMu.Unlock()
	if err != nil {
		fmt.Fprintf(n.opts.Log, "node %d: checkpoint failed: %v\n", n.opts.NodeID, err)
		return 0
	}
	n.mu.Lock()
	n.ckptEpoch++
	epoch := n.ckptEpoch
	n.pendMark[epoch] = snap
	n.mu.Unlock()
	if err := n.tr.sendControl(buddy, encodeCkpt(n.opts.NodeID, epoch, inits, blob)); err != nil {
		fmt.Fprintf(n.opts.Log, "node %d: shipping checkpoint %d to node %d: %v\n", n.opts.NodeID, epoch, buddy, err)
		return 0
	}
	n.reg.Emit(&obs.Event{Kind: obs.Checkpoint, A: int64(n.opts.NodeID), B: int64(epoch)})
	if n.reg.Has(obs.Metrics) {
		n.haCkptTx.Inc()
	}
	return epoch
}

// cutCheckpoint is one checkpoint tick waited on until the buddy acked the
// blob and the marks it releases are written; it reports whether that
// happened before the node shut down.  A node that dies between the ack and
// its marks leaves its peers retaining what the blob covers, and a replayed
// frame that carries no send sequence — a user's INITIATE — runs twice.
func (n *Node) cutCheckpoint() bool {
	epoch := n.checkpointTick()
	if epoch == 0 || !n.await(-1, func() bool { return n.marked >= epoch }) {
		return false
	}
	n.tr.Flush()
	return true
}

// storeCheckpoint is the buddy side of a checkpoint: keep the latest blob for
// the peer, drop the entries of its initiation log the blob covers (the
// first inits), and ack it, releasing the peer's retention marks.
func (n *Node) storeCheckpoint(from int, epoch, inits uint64, blob []byte) {
	n.store.store(from, inits, blob)
	// Record the stored epoch: a survivor's dump proves which checkpoint of a
	// dead peer it held at the moment of failure.
	n.reg.Emit(&obs.Event{Kind: obs.Checkpoint, A: int64(from), B: int64(epoch)})
	if n.reg.Has(obs.Metrics) {
		n.haCkptRx.Inc()
	}
	_ = n.tr.sendControl(from, encodeFromCount(fCkptAck, n.opts.NodeID, epoch))
}

// broadcastMarks releases the retention the acked checkpoint epoch covers:
// each peer may drop its retained frames up to the count this node had
// delivered from that peer when the checkpoint was cut.
func (n *Node) broadcastMarks(epoch uint64) {
	n.mu.Lock()
	snap := n.pendMark[epoch]
	for e := range n.pendMark {
		if e <= epoch {
			delete(n.pendMark, e)
		}
	}
	n.mu.Unlock()
	for id, mk := range snap {
		if id == n.opts.NodeID || n.det.Dead(id) {
			continue
		}
		_ = n.tr.sendControl(id, encodeMark(n.opts.NodeID, mk))
	}
	n.update(func() { n.marked = max(n.marked, epoch) })
}

// nextLive returns the next live node after the given id, cyclically, or -1:
// a node's buddy, or a dead node's adopter — the node its blob went to.
func (n *Node) nextLive(after int) int {
	total := len(n.opts.Addrs)
	for i := 1; i < total; i++ {
		if id := (after + i) % total; !n.det.Dead(id) {
			return id
		}
	}
	return -1
}

// handleDeath reacts to a locally detected death.  Only the rebalance leader
// (lowest live id) issues the verdict; everyone else waits for fRebalance so
// the mesh processes one agreed membership change, not N racing ones.
func (n *Node) handleDeath(dead int) {
	n.reg.Emit(&obs.Event{Kind: obs.HeartbeatMiss, A: int64(dead)})
	if n.reg.Has(obs.Metrics) {
		n.haDeaths.Inc()
	}
	if dead == 0 && n.opts.NodeID != 0 {
		// Node 0 hosts the user controller and the terminal cluster; no buddy
		// can impersonate it for the user.  The run is over.
		fmt.Fprintf(n.opts.Log, "node %d: coordinator (node 0) lost; shutting down\n", n.opts.NodeID)
		n.signalShutdown()
		return
	}
	alive := n.det.Alive()
	if len(alive) == 0 || alive[0] != n.opts.NodeID {
		return // not the leader; the verdict will arrive as fRebalance
	}
	buddy := n.nextLive(dead)
	if buddy < 0 {
		fmt.Fprintf(n.opts.Log, "node %d: node %d died with no live buddy; shutting down\n", n.opts.NodeID, dead)
		n.signalShutdown()
		return
	}
	fmt.Fprintf(n.opts.Log, "node %d: declaring node %d dead; node %d adopts clusters %v\n",
		n.opts.NodeID, dead, buddy, n.topo.Clusters(dead))
	verdict := encodeRebalance(fRebalance, dead, buddy)
	for _, id := range alive {
		if id != n.opts.NodeID && id != dead {
			_ = n.tr.sendControl(id, verdict)
		}
	}
	n.handleRebalance(dead, buddy, false)
}

// handleRebalance applies a rebalance verdict, or with ready the buddy's
// all-clear: mark the death; on the buddy, adopt, restore and send the
// all-clear; then replay the retained backlog and reroute.  The others wait
// for the all-clear: replaying into a buddy that has not restored yet would
// race the admission floors the replay depends on.  It travels on the
// buddy's lane and the verdict on the leader's, so it can arrive FIRST.
func (n *Node) handleRebalance(dead, buddy int, ready bool) {
	n.rebalMu.Acquire()
	defer n.rebalMu.Release()
	if n.shuttingDown() {
		return
	}
	n.det.MarkDead(dead)
	n.tr.markDead(dead)
	if !ready {
		if buddy != n.opts.NodeID {
			return
		}
		n.adoptAndRestore(dead)
		all := encodeRebalance(fRebalanceReady, dead, buddy)
		for _, id := range n.det.Alive() {
			if id != n.opts.NodeID {
				_ = n.tr.sendControl(id, all)
			}
		}
	}
	n.finishRebalance(dead, buddy)
}

// adoptAndRestore takes over the dead node's clusters and rebuilds them from
// the last checkpoint blob and the initiation log this node holds for it.  No
// blob means the peer died before its first checkpoint shipped: the clusters
// restart empty, and the log and the retained-frame replay rebuild them.
func (n *Node) adoptAndRestore(dead int) {
	clusters := n.topo.Clusters(dead)
	n.vm.AdoptClusters(clusters...)
	if n.afterAdopt != nil {
		n.afterAdopt()
	}
	blob, inits := n.store.held(dead)
	if len(blob) == 0 {
		fmt.Fprintf(n.opts.Log, "node %d: no checkpoint stored for node %d; clusters %v restart empty\n",
			n.opts.NodeID, dead, clusters)
	}
	if err := n.vm.Restore(blob, inits); err != nil {
		fmt.Fprintf(n.opts.Log, "node %d: restoring node %d's checkpoint: %v\n", n.opts.NodeID, dead, err)
	}
}

// finishRebalance replays this node's retained frames onto the buddy and
// flips the route, atomically with respect to every concurrent send (the
// exclusive route lock is what keeps the replayed backlog ahead of newly
// routed frames on the buddy's lane), and records how many it replayed.  No
// sender waits while holding the route lock, and neither does the replay,
// so taking it never parks.
func (n *Node) finishRebalance(dead, buddy int) {
	t0 := n.reg.SpanStart()
	// On the buddy the backlog takes the same deliver path as frames off a
	// lane, counted received on the node's own lane so the drain balance
	// matches the original send count.
	st := n.newStage(n.opts.NodeID, false)
	n.tr.routeMu.Lock()
	replayed, err := n.tr.replayRetained(dead, buddy, st.take)
	st.flush()
	n.tr.routeMu.Unlock()
	if err != nil {
		fmt.Fprintf(n.opts.Log, "node %d: replaying retained frames for node %d: %v\n", n.opts.NodeID, dead, err)
	}
	if n.reg.Has(obs.Metrics) {
		n.haReplayed.Add(int64(replayed))
	}
	pair := fmt.Sprintf("n%d->n%d", dead, buddy)
	n.reg.Emit(&obs.Event{Kind: obs.Rebalance, A: int64(n.opts.NodeID), Type: pair, Start: t0})
	fmt.Fprintf(n.opts.Log, "node %d: rerouted node %d's clusters to node %d (%d retained frames replayed)\n",
		n.opts.NodeID, dead, buddy, replayed)
	n.update(func() { n.replayed[dead] = replayed })
	// A rebalance IS a failure: leave the black box behind while the events
	// leading up to the death are still in the ring.
	n.dumpBlackbox("rebalance " + pair)
}

// Terminate tears the node down abruptly — no drain, no shutdown frames, no
// VM flush — simulating a kill -9 for fault-tolerance tests.  Peers see the
// connections drop and the heartbeats stop.  The VM's tasks are abandoned,
// not stopped: what they send from then on vanishes, with the batches not
// yet written, which is what a killed process's in-flight work looks like
// from the outside.
func (n *Node) Terminate() {
	n.closeOnce(func() {
		n.signalShutdown()
		n.tr.killed = true
		n.teardown()
	})
}
