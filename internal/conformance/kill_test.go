package conformance

import (
	"fmt"
	"testing"
	"time"
)

// killQuiet lists programs for which the kill is expected to find cluster 2
// idle: single-task and force/shared-memory programs place every task on
// cluster 1 (the force cluster), so killing the VM that hosts cluster 2
// exercises the no-op recovery path (checkpoint, kill, adoption and restore
// of an empty partition) and the sweep asserts only output identity, not
// recovery activity.  Every corpus program stays in the sweep — none needs a
// byte-identity exemption.
var killQuiet = map[string]bool{
	"barrier-counter.pf": true,
	"force-presched.pf":  true,
	"parseg.pf":          true,
	"selfsched.pf":       true,
	"sequential.pf":      true,
	"timeout.pf":         true,
	"example:sumsq.pf":   true,
	"example:program.pf": true,
}

// killSchedule derives a (killAt, ckptEvery) pair for one seed from the
// reference run's virtual elapsed time: kills land at 8 distinct fractions of
// the run (cycling with the seed) and checkpoints cut roughly five times per
// run, so the sweep covers kills before the first checkpoint, between
// checkpoints, and near completion.
func killSchedule(elapsed time.Duration, seed int64) (killAt, ckptEvery time.Duration) {
	frac := 0.15 + 0.6*float64(seed%8)/8
	killAt = time.Duration(float64(elapsed) * frac)
	if killAt <= 0 {
		killAt = time.Millisecond
	}
	ckptEvery = elapsed / 5
	if ckptEvery <= 0 {
		ckptEvery = time.Millisecond
	}
	return killAt, ckptEvery
}

// TestKillANodeConformance is the kill-a-node sweep: every corpus program
// runs on the fault mesh's two HA nodes, each checkpointing periodically,
// and the node hosting cluster 2 dies mid-run at a seed-derived virtual
// time; the survivor's detector declares it dead, and as leader and buddy
// the survivor adopts the cluster, restores its last checkpoint and
// initiation log and replays the retained post-checkpoint frames.  The
// terminal output must be byte-identical to the fault-free single-process
// baseline on every seed, no schedule may deadlock, and every heap shard of
// both machines — the dead one's included — must come back empty, with every
// other region of memory balanced: a node death is invisible in the
// program's observable behaviour.
func TestKillANodeConformance(t *testing.T) {
	names, srcs := corpusPrograms(t)
	totalVictims, totalDeaths := 0, 0
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			baseline := Run(srcs[name], 0)
			if baseline.Err != nil {
				t.Fatalf("baseline: %v", baseline.Err)
			}
			ref := RunFault(srcs[name], 0)
			if ref.Err != nil {
				t.Fatalf("fault reference: %v", ref.Err)
			}
			recovered := false
			for seed := int64(0); seed < int64(*seedCount); seed++ {
				killAt, ckptEvery := killSchedule(ref.VirtualElapsed, seed)
				res, rec := RunKill(srcs[name], seed, killAt, ckptEvery)
				ctx := fmt.Sprintf("seed %d killAt=%v ckptEvery=%v", seed, killAt, ckptEvery)
				if rec.Err != nil {
					recordFailure(name, seed, "kill schedule error: "+rec.Err.Error())
					t.Fatalf("%s: checkpoint/restore: %v", ctx, rec.Err)
				}
				if res.Err != nil {
					recordFailure(name, seed, "kill run error: "+res.Err.Error())
					t.Fatalf("%s: %v", ctx, res.Err)
				}
				if res.Output != baseline.Output {
					recordFailure(name, seed, "kill output diverges from baseline")
					t.Fatalf("%s: output diverges (victims=%d ckpts=%d replayed=%d):\nbaseline:\n%s\nkill:\n%s",
						ctx, rec.Victims, rec.Checkpoints, rec.Replayed, baseline.Output, res.Output)
				}
				// The survivor's shards, then the dead VM's.
				perVM := len(res.HeapShardsInUse) / 2
				for i, in := range res.HeapShardsInUse {
					if in != 0 {
						machine := [2]string{"survivor", "dead VM"}[i/perVM]
						recordFailure(name, seed, fmt.Sprintf("kill heap leak: %d bytes on the %s's shard %d", in, machine, i%perVM))
						t.Errorf("%s: %d heap bytes on the %s's shard %d after shutdown", ctx, in, machine, i%perVM)
					}
				}
				checkBalanced(t, name, "kill", seed, res)
				if rec.Victims > 0 || rec.Replayed > 0 {
					recovered = true
				}
				totalVictims += rec.Victims
				totalDeaths += rec.Deaths
			}
			// Guard the harness: across the seed matrix at least one kill must
			// have caught live tasks or forced a frame replay — except for the
			// programs that place no work on cluster 2 at all.
			if !recovered && !killQuiet[name] {
				t.Error("no seed's kill caught live tasks or replayed frames on cluster 2; the sweep is inert for this program")
			}
		})
	}
	// The matrix as a whole must have killed real tasks mid-flight somewhere,
	// or the whole suite degenerated into no-op recoveries.
	if totalVictims == 0 {
		t.Errorf("no kill across the whole matrix caught a live task; the sweep exercises nothing")
	}
	// Recovery is the production one: the survivor's detector declared the
	// death and its rebalance ran.
	if totalDeaths == 0 {
		t.Errorf("no kill across the whole matrix went through the detector's verdict")
	}
}

// TestKillSeedStable pins recovery reproducibility: the same (seed, killAt,
// ckptEvery) replays the same kill, the same restore, the same replayed
// frames, and byte-identical output — a recovery schedule is as replayable
// as a fault schedule.
func TestKillSeedStable(t *testing.T) {
	_, srcs := Corpus()
	for _, name := range []string{"crosscluster.pf", "pipeline.pf", "fanin.pf"} {
		src := srcs[name]
		ref := RunFault(src, 0)
		if ref.Err != nil {
			t.Fatalf("%s: fault reference: %v", name, ref.Err)
		}
		for _, seed := range []int64{0, 7, 12345} {
			killAt, ckptEvery := killSchedule(ref.VirtualElapsed, seed)
			a, ra := RunKill(src, seed, killAt, ckptEvery)
			b, rb := RunKill(src, seed, killAt, ckptEvery)
			if a.Err != nil || b.Err != nil || ra.Err != nil || rb.Err != nil {
				t.Fatalf("%s seed %d: %v / %v / %v / %v", name, seed, a.Err, b.Err, ra.Err, rb.Err)
			}
			if a.Output != b.Output || a.Steps != b.Steps {
				t.Fatalf("%s seed %d not reproducible: %d vs %d steps", name, seed, a.Steps, b.Steps)
			}
			if *ra != *rb {
				t.Fatalf("%s seed %d recovery not reproducible: %+v vs %+v", name, seed, *ra, *rb)
			}
		}
	}
}
