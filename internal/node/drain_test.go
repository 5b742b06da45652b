package node_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pfi"
	"repro/internal/sim"
)

// TestBalancedDrainTakesTwoRoundsNoPause counts the coordinator's drain
// rounds, as node 0's drain-round spans, on a simulated mesh.  The
// two-identical-observations rule needs two rounds; a mesh that is already
// quiet gets exactly those, back to back.  A node answers a round once its
// tasks are idle, so a follower task still running when the drain starts
// makes the first round last until it is done, and the second confirms the
// first at once: two rounds again, and no pause between them.
func TestBalancedDrainTakesTwoRoundsNoPause(t *testing.T) {
	const src = `TASKTYPE MAIN
      ON CLUSTER 2 INITIATE %s
      ACCEPT 1 OF DONE
      PRINT *, 'DONE'
END TASKTYPE

TASKTYPE WORK
      TO PARENT SEND DONE
END TASKTYPE

TASKTYPE LINGER
      TO PARENT SEND DONE
      ACCEPT 1 OF
        NEVER
      DELAY 4 THEN
        CONTINUE
      END ACCEPT
END TASKTYPE
`
	drain := func(t *testing.T, child string) []obs.Span {
		t.Helper()
		prog, err := pfi.Compile(strings.Replace(src, "%s", child, 1))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		reg.Enable(obs.Spans)
		var out bytes.Buffer
		mesh, err := node.NewFaultMesh(config.Simple(2, 4), sim.New(1), 2, func(i int) node.Options {
			o := node.Options{AcceptTimeout: 30 * time.Second}
			if i == 0 {
				o.Out, o.Metrics = &out, reg
			}
			return o
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mesh.Run(prog, pfi.Options{}); err != nil {
			t.Fatalf("run: %v", err)
		}
		spans, _ := reg.Spans()
		if err := mesh.Shutdown(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if out.String() != "DONE\n" {
			t.Fatalf("printed %q", out.String())
		}
		var rounds []obs.Span
		for _, s := range spans {
			if s.Lane == "node/0 drain" {
				rounds = append(rounds, s)
			}
		}
		return rounds
	}
	backToBack := func(t *testing.T, rounds []obs.Span) {
		t.Helper()
		if len(rounds) != 2 {
			t.Fatalf("the drain took %d rounds %+v, want 2", len(rounds), rounds)
		}
		if gap := rounds[1].Start - (rounds[0].Start + rounds[0].Dur); gap != 0 {
			t.Errorf("the coordinator paused %v between the two rounds", gap)
		}
	}

	t.Run("idle mesh", func(t *testing.T) {
		backToBack(t, drain(t, "WORK"))
	})

	// LINGER reports to its parent and then stays alive on node 1 for four
	// seconds: node 1 answers round 1 once it is done.
	t.Run("follower task running", func(t *testing.T) {
		rounds := drain(t, "LINGER")
		backToBack(t, rounds)
		if rounds[0].Dur < 3*time.Second {
			t.Errorf("round 1 took %v; node 1's task runs for more than 3s of it", rounds[0].Dur)
		}
	})
}
