package node

import "repro/internal/core"

// SetDrainRound installs the hook the coordinator's drainQuiesce reports
// every completed round to (TestBalancedDrainTakesTwoRoundsNoPause).
func (n *Node) SetDrainRound(f func(pause bool)) { n.drainRound = f }

// WireConfig sizes the batched wire path; SetWire gives a node one other
// than the production zero value, to reach the window-of-1 and small-batch
// boundaries.
type WireConfig = wireConfig

func SetWire(o *Options, w WireConfig) { o.wire = w }

// CutCheckpoint cuts one checkpoint of the node's clusters now, as the HA
// loop's tick does, and reports whether the buddy acked it before the node
// shut down.
func (n *Node) CutCheckpoint() bool { return n.cutCheckpoint() }

// HeldInits returns the entries of the peer's initiation log this node holds
// as the peer's buddy.
func (n *Node) HeldInits(from int) []core.LoggedInit {
	_, inits := n.store.held(from)
	return inits
}
