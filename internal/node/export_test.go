package node

// SetDrainRound installs the hook the coordinator's drainQuiesce reports
// every completed round to (TestBalancedDrainTakesTwoRoundsNoPause).
func (n *Node) SetDrainRound(f func(pause bool)) { n.drainRound = f }
