package node_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/node"
)

// TestBalancedDrainTakesTwoRoundsNoPause counts the coordinator's drain
// rounds and the pauses between them.  The two-identical-observations rule
// needs two rounds; a mesh that is already quiet gets exactly those, back to
// back.  A round that finds a task still running is followed by the pause,
// and the count starts over.
func TestBalancedDrainTakesTwoRoundsNoPause(t *testing.T) {
	const src = `TASKTYPE MAIN
      ON CLUSTER 3 INITIATE %s
      ACCEPT 1 OF DONE
      PRINT *, 'DONE'
END TASKTYPE

TASKTYPE WORK
      TO PARENT SEND DONE
END TASKTYPE
`
	drain := func(t *testing.T, child string, register func(*core.VM), onPause func()) (rounds, pauses int) {
		var out bytes.Buffer
		nodes := startMesh(t, 2, config.Simple(4, 4), strings.Replace(src, "%s", child, 1), &out,
			func(_ int, o *node.Options) { o.Register = register })
		served := make(chan error, 1)
		go func() { served <- nodes[1].ServeUntilShutdown() }()
		if err := nodes[0].RunMain(); err != nil {
			t.Fatalf("run: %v", err)
		}
		nodes[0].SetDrainRound(func(pause bool) {
			rounds++
			if pause {
				pauses++
				onPause()
			}
		})
		if err := nodes[0].Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := <-served; err != nil {
			t.Fatalf("follower: %v", err)
		}
		if out.String() != "DONE\n" {
			t.Fatalf("printed %q", out.String())
		}
		return rounds, pauses
	}

	t.Run("idle mesh", func(t *testing.T) {
		rounds, pauses := drain(t, "WORK", nil, func() {})
		if rounds != 2 || pauses != 0 {
			t.Errorf("an idle mesh drained in %d rounds with %d pauses, want 2 and 0", rounds, pauses)
		}
	})

	// LINGER reports to its parent and then stays alive on node 1 until the
	// coordinator's first pause: round 1 waits out the follower's idle check
	// (two seconds) and comes back unbalanced.
	t.Run("unbalanced first round", func(t *testing.T) {
		release := make(chan struct{})
		register := func(vm *core.VM) {
			vm.Register("LINGER", func(task *core.Task) {
				if err := task.SendParent("DONE"); err != nil {
					t.Errorf("linger: %v", err)
				}
				<-release
			})
		}
		rounds, pauses := drain(t, "LINGER", register, func() { close(release) })
		if rounds != 3 || pauses != 1 {
			t.Errorf("a mesh with one task running through round 1 drained in %d rounds with %d pauses, want 3 and 1", rounds, pauses)
		}
	})
}
