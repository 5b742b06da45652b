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
//     ten heartbeat intervals is declared dead by the detector — finally,
//     with no resurrection.
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
//     node's clusters there.  The restored admission floors drop what the
//     blob covers; an unsequenced frame it covers was released, not kept.
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
// the buddy with the initiation log's count and the receive marks, which
// the buddy sends on (storeCheckpoint), and returns the buddy, the epoch (0
// when none was shipped) and the marks.  The marks are taken with the cut
// and no delivery between (cutMu): a frame they count is in the blob, and a
// frame in the blob is counted.  The log count is taken before the cut, so
// its entries' effects are inside the blob.
func (n *Node) checkpointTick() (buddy int, epoch uint64, marks []mark) {
	buddy = n.nextLive(n.opts.NodeID)
	if buddy < 0 {
		return buddy, 0, nil // no live peer to hold the blob
	}
	n.tr.cutMu.Lock()
	marks, inits := n.tr.recvSnapshot(), n.tr.logged.Load()
	blob, err := n.vm.Checkpoint(n.vm.HostedClusters()...)
	n.tr.cutMu.Unlock()
	if err != nil {
		fmt.Fprintf(n.opts.Log, "node %d: checkpoint failed: %v\n", n.opts.NodeID, err)
		return buddy, 0, nil
	}
	epoch = n.ckptEpoch.Add(1)
	if err := n.tr.sendControl(buddy, encodeCkpt(n.opts.NodeID, epoch, inits, marks, blob)); err != nil {
		fmt.Fprintf(n.opts.Log, "node %d: shipping checkpoint %d to node %d: %v\n", n.opts.NodeID, epoch, buddy, err)
		return buddy, 0, nil
	}
	n.reg.Emit(&obs.Event{Kind: obs.Checkpoint, A: int64(n.opts.NodeID), B: int64(epoch)})
	if n.reg.Has(obs.Metrics) {
		n.haCkptTx.Inc()
	}
	return buddy, epoch, marks
}

// storeCheckpoint is the buddy side of a checkpoint: keep a copy of the
// peer's blob, drop the entries of its initiation log the blob covers (the
// first m.count), and release the retention the blob covers on the peer's
// behalf — this node's own by ackRetained, every other live peer's by an
// fCkptMark.  Two orderings hold by construction, buddyStore.store holding
// the lock adopt takes:
//
//  1. every mark of a stored blob is enqueued before this node's
//     fRebalanceReady for the peer, so per-lane FIFO puts it ahead of the
//     replay, and this node's own release precedes its own replay;
//  2. a blob read after this node adopted the peer is dropped and releases
//     nothing: the restore lacks it, so the frames it covers must rebuild it.
func (n *Node) storeCheckpoint(from int, m *frame) {
	if !n.store.store(from, m.epoch, m.count, m.blob, func() {
		for _, mk := range m.marks {
			switch {
			case mk.peer == n.opts.NodeID:
				n.tr.ackRetained(from, mk.count, mk.gen)
			case mk.peer != from && !n.det.Dead(mk.peer):
				_ = n.tr.sendControl(mk.peer, encodeMark(from, mk))
			}
		}
	}) {
		return
	}
	// Record the stored epoch: a survivor's dump proves which checkpoint of a
	// dead peer it held at the moment of failure.
	n.reg.Emit(&obs.Event{Kind: obs.Checkpoint, A: int64(from), B: int64(m.epoch)})
	if n.reg.Has(obs.Metrics) {
		n.haCkptRx.Inc()
	}
	n.update(func() {}) // wake FaultMesh.Checkpoint
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
	blob, inits := n.store.adopt(dead)
	clusters := n.topo.Clusters(dead)
	n.vm.AdoptClusters(clusters...)
	if n.afterAdopt != nil {
		n.afterAdopt()
	}
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
		n.tr.killed.Store(true) // before signalShutdown releases LogInit
		n.signalShutdown()
		n.teardown()
	})
}
