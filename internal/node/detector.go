package node

import (
	"sync"
	"time"
)

// detector is the per-node failure detector: a peer that has not been heard
// from for suspicionBeats heartbeat intervals is declared dead.  "Heard
// from" means any inbound frame on the peer's lane — data, credit, drain, or
// heartbeat — so a busy peer never needs to compete with its own payload
// traffic to stay alive; the dedicated heartbeat only matters for peers that
// would otherwise be silent.
//
// The clock is the node's backend's: on a FaultMesh (`pisces run -nodes N
// -sim`) it is virtual, so suspicion timeouts replay from the seed like
// every other timer; the wall clock is read only by nodes on TCP.
//
// Death is final: once a peer is declared dead it stays dead even if frames
// from it arrive later (a TCP segment can outlive the verdict).  Recovery
// reassigns the dead node's clusters rather than readmitting the node, so
// resurrection would split ownership.

// HA timing, on the node's backend clock.  A peer is suspected after
// suspicionBeats silent heartbeat intervals, whatever the interval: a
// -heartbeat-interval, or the kill sweep's beat on its program's time scale
// (conformance.RunKill), keeps the detector sound without a second knob.
// At the default interval the timeout clears one heartbeat interval plus
// MaxFaultDelay (112ms) with a ~2x margin, so a peer on a FaultMesh whose
// every heartbeat is maximally delayed and retransmitted is never falsely
// suspected (TestDetectorNoFalsePositiveUnderMaxLatency), and a loopback TCP
// peer has ten beats of slack.
const (
	defaultHeartbeatInterval = 25 * time.Millisecond
	suspicionBeats           = 10
)

type detector struct {
	mu       sync.Mutex
	now      func() time.Time
	after    time.Duration
	lastSeen map[int]time.Time
	dead     map[int]bool
	self     int
}

func newDetector(self int, peers []int, after time.Duration, now func() time.Time) *detector {
	d := &detector{
		now:      now,
		after:    after,
		lastSeen: make(map[int]time.Time, len(peers)),
		dead:     make(map[int]bool, len(peers)),
		self:     self,
	}
	start := now()
	for _, p := range peers {
		if p != self {
			d.lastSeen[p] = start
		}
	}
	return d
}

// Heard records a sign of life from peer.  Frames from already-dead peers do
// not resurrect them.
func (d *detector) Heard(peer int) {
	d.mu.Lock()
	if _, tracked := d.lastSeen[peer]; tracked && !d.dead[peer] {
		d.lastSeen[peer] = d.now()
	}
	d.mu.Unlock()
}

// Check sweeps the suspicion timeout and returns the peers that crossed it
// since the last sweep, in ascending id order for determinism.  Peers
// already marked dead (by Check or MarkDead) are not reported again.
func (d *detector) Check() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	cutoff := d.now().Add(-d.after)
	var newly []int
	for peer, seen := range d.lastSeen {
		if !d.dead[peer] && !seen.After(cutoff) {
			d.dead[peer] = true
			newly = append(newly, peer)
		}
	}
	sortInts(newly)
	return newly
}

// MarkDead records an externally decided death (a rebalance verdict from the
// leader, or a hard connection error) so Check never re-reports it.
func (d *detector) MarkDead(peer int) {
	d.mu.Lock()
	if _, tracked := d.lastSeen[peer]; tracked {
		d.dead[peer] = true
	}
	d.mu.Unlock()
}

// Dead reports whether peer has been declared dead.
func (d *detector) Dead(peer int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dead[peer]
}

// Alive returns the live membership including self, ascending.  The lowest
// id in this set is the rebalance leader.
func (d *detector) Alive() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	live := []int{d.self}
	for peer := range d.lastSeen {
		if !d.dead[peer] {
			live = append(live, peer)
		}
	}
	sortInts(live)
	return live
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
