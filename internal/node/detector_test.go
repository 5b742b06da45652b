package node

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// defaultSuspicionAfter is the detector's timeout at the default heartbeat
// interval.
const defaultSuspicionAfter = suspicionBeats * defaultHeartbeatInterval

// fakeClock drives the detector without wall time, the way the sim backend's
// virtual clock does in deterministic runs.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(0, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestDetectorNoFalsePositiveUnderMaxLatency pins the safety side of the
// default timing: a peer whose heartbeats all arrive, but each with an
// adversarial delay up to the fault profile's worst case (full jitter plus
// every retransmit slot), is never declared dead.  The delay schedule
// alternates 0 and MaxFaultDelay — the pattern that maximises the gap between
// consecutive arrivals (one interval plus the full delay bound) — and then a
// seeded random schedule sweeps the space in between.
func TestDetectorNoFalsePositiveUnderMaxLatency(t *testing.T) {
	p := defaultFaultProfile
	maxDelay := MaxFaultDelay
	if bound := p.batchWindow + p.base + p.jitter + maxRetransmits*p.retransmit; bound != maxDelay {
		t.Fatalf("MaxFaultDelay %v is not the fault network's worst delay %v", maxDelay, bound)
	}
	if defaultSuspicionAfter <= defaultHeartbeatInterval+maxDelay {
		t.Fatalf("defaults unsound: suspicion %v must exceed heartbeat %v + max delay %v",
			defaultSuspicionAfter, defaultHeartbeatInterval, maxDelay)
	}

	schedules := map[string]func(i int) time.Duration{
		"worst-case-alternating": func(i int) time.Duration {
			if i%2 == 0 {
				return 0
			}
			return maxDelay
		},
	}
	rng := rand.New(rand.NewSource(42))
	schedules["seeded-random"] = func(i int) time.Duration {
		return time.Duration(rng.Int63n(int64(maxDelay) + 1))
	}

	for name, delay := range schedules {
		t.Run(name, func(t *testing.T) {
			clk := newFakeClock()
			d := newDetector(0, []int{0, 1}, defaultSuspicionAfter, clk.now)
			// Heartbeat i is sent at i*interval and heard at send+delay(i).
			// Walk 200 intervals in 1ms steps, sweeping Check at every step.
			const beats = 200
			arrivals := make([]time.Duration, beats)
			for i := 0; i < beats; i++ {
				arrivals[i] = time.Duration(i)*defaultHeartbeatInterval + delay(i)
			}
			next := 0
			for elapsed := time.Duration(0); elapsed < beats*defaultHeartbeatInterval; elapsed += time.Millisecond {
				clk.advance(time.Millisecond)
				for next < beats && arrivals[next] <= elapsed {
					d.Heard(1)
					next++
				}
				if dead := d.Check(); len(dead) != 0 {
					t.Fatalf("false positive at %v: declared %v dead", elapsed, dead)
				}
			}
		})
	}
}

// TestDetectorDetectionLatencyBound pins the liveness side: a peer that goes
// silent is declared dead no earlier than the suspicion timeout and no later
// than the timeout plus one sweep interval.
func TestDetectorDetectionLatencyBound(t *testing.T) {
	clk := newFakeClock()
	d := newDetector(0, []int{0, 1, 2}, defaultSuspicionAfter, clk.now)
	sweep := defaultHeartbeatInterval

	// Both peers speak for a while; then peer 2 goes silent at silentFrom.
	var silentFrom time.Duration
	for elapsed := time.Duration(0); ; elapsed += sweep {
		clk.advance(sweep)
		d.Heard(1)
		if elapsed < 5*defaultHeartbeatInterval {
			d.Heard(2)
			silentFrom = elapsed
		}
		dead := d.Check()
		if len(dead) == 0 {
			if elapsed > silentFrom+defaultSuspicionAfter+sweep {
				t.Fatalf("peer 2 silent since %v still alive at %v (bound %v)",
					silentFrom, elapsed, silentFrom+defaultSuspicionAfter+sweep)
			}
			continue
		}
		if !reflect.DeepEqual(dead, []int{2}) {
			t.Fatalf("declared %v dead, want [2]", dead)
		}
		if elapsed < silentFrom+defaultSuspicionAfter {
			t.Fatalf("peer 2 declared dead at %v, before the suspicion bound %v",
				elapsed, silentFrom+defaultSuspicionAfter)
		}
		break
	}
	if d.Dead(1) || !d.Dead(2) {
		t.Fatalf("Dead() state wrong: 1=%v 2=%v", d.Dead(1), d.Dead(2))
	}
}

// TestDetectorFlappingPeer pins that death is final: a peer that times out
// and then starts talking again stays dead — Heard does not resurrect it,
// Check does not re-report it, and the live set excludes it permanently.
func TestDetectorFlappingPeer(t *testing.T) {
	clk := newFakeClock()
	d := newDetector(0, []int{0, 1, 2}, defaultSuspicionAfter, clk.now)

	clk.advance(defaultSuspicionAfter + time.Millisecond)
	d.Heard(1)
	if dead := d.Check(); !reflect.DeepEqual(dead, []int{2}) {
		t.Fatalf("declared %v dead, want [2]", dead)
	}

	// The flap: late frames from the dead peer arrive.
	for i := 0; i < 10; i++ {
		d.Heard(2)
		clk.advance(time.Millisecond)
		if dead := d.Check(); len(dead) != 0 {
			t.Fatalf("re-reported death: %v", dead)
		}
		if !d.Dead(2) {
			t.Fatal("late frames resurrected peer 2")
		}
	}
	if got := d.Alive(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("Alive() = %v, want [0 1]", got)
	}

	// MarkDead on an already-dead or unknown peer is a no-op.
	d.MarkDead(2)
	d.MarkDead(99)
	if dead := d.Check(); len(dead) != 0 {
		t.Fatalf("MarkDead leaked into Check: %v", dead)
	}
}

// TestDetectorSeedStable pins that a detector run is a pure function of its
// heartbeat schedule: the same seed produces the identical sequence of
// (sweep, deaths) events, so a recovery schedule replays like a fault
// schedule does.
func TestDetectorSeedStable(t *testing.T) {
	trial := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		clk := newFakeClock()
		d := newDetector(0, []int{0, 1, 2, 3}, defaultSuspicionAfter, clk.now)
		var events string
		for sweep := 0; sweep < 400; sweep++ {
			clk.advance(defaultHeartbeatInterval)
			for peer := 1; peer <= 3; peer++ {
				// Per-sweep chance a peer's heartbeat is heard decays with the
				// peer id, so higher ids die at seed-dependent sweeps.
				if rng.Float64() < 1.0-0.2*float64(peer) {
					d.Heard(peer)
				}
			}
			if dead := d.Check(); len(dead) != 0 {
				events += fmt.Sprintf("%d:%v;", sweep, dead)
			}
		}
		return events
	}
	for _, seed := range []int64{0, 7, 12345} {
		a, b := trial(seed), trial(seed)
		if a != b {
			t.Fatalf("seed %d not reproducible:\n%s\nvs\n%s", seed, a, b)
		}
	}
	if trial(0) == "" {
		t.Fatal("no deaths across 400 sweeps; the trial exercises nothing")
	}
}

// TestDetectorLeaderElection pins the leader rule used by rebalancing: the
// lowest live id leads, and leadership moves down the id order as nodes die.
func TestDetectorLeaderElection(t *testing.T) {
	clk := newFakeClock()
	d := newDetector(2, []int{0, 1, 2, 3}, defaultSuspicionAfter, clk.now)
	if got := d.Alive(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("Alive() = %v, want [0 1 2 3]", got)
	}
	d.MarkDead(0)
	if got := d.Alive(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("after node 0 death Alive() = %v, want [1 2 3]", got)
	}
	d.MarkDead(1)
	if got := d.Alive(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("after node 1 death Alive() = %v, want [2 3]", got)
	}
}
