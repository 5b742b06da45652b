package node

import (
	"time"

	"repro/internal/core"
)

// SetDrainRound installs the hook the coordinator's drainQuiesce reports
// every completed round to (TestBalancedDrainTakesTwoRoundsNoPause).
func (n *Node) SetDrainRound(f func(pause bool)) { n.drainRound = f }

// CutCheckpoint cuts one checkpoint of the node's clusters now and ships it
// to the buddy, as the HA loop's checkpoint tick does, and reports whether
// the buddy acked it within ten seconds.
func (n *Node) CutCheckpoint() bool {
	n.checkpointTick()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n.ckptMu.Lock()
		_, unacked := n.pendMark[n.ckptEpoch]
		n.ckptMu.Unlock()
		if !unacked {
			return true
		}
	}
	return false
}

// HeldInits returns the entries of the peer's initiation log this node holds
// as the peer's buddy.
func (n *Node) HeldInits(from int) []core.LoggedInit {
	_, inits := n.store.held(from)
	return inits
}
