package node_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/msgcodec"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pfi"
	"repro/internal/sim"
)

// haKillSource spreads timed workers over all three clusters so a mid-run
// node kill lands while tasks hold live state on the dying node.  Each
// STEPPER grinds through 12 timed steps (a never-satisfied ACCEPT whose
// DELAY paces the loop at 50ms), so the run lasts long enough for a
// checkpoint to cut and for the failure detector to fire mid-flight.  The
// printed total is a pure function of the worker ids — arrival order,
// scheduling, and recovery cannot change it.
const haKillSource = `
TASKTYPE MAIN
      INTEGER W, NW
      INTEGER TOTAL
      SIGNAL RES
      NW = 6
      ON CLUSTER 3 INITIATE STEPPER(1)
      ON CLUSTER 3 INITIATE STEPPER(2)
      ON CLUSTER 2 INITIATE STEPPER(3)
      ON CLUSTER 2 INITIATE STEPPER(4)
      ON CLUSTER 1 INITIATE STEPPER(5)
      ON CLUSTER 3 INITIATE STEPPER(6)
      ACCEPT NW OF RES
      TOTAL = 0
      DO 20 W = 1, NW
        TOTAL = TOTAL + MSGI('RES', W, 1)
20    CONTINUE
      PRINT *, 'TOTAL', TOTAL
END TASKTYPE

TASKTYPE STEPPER(ME)
      INTEGER ME
      INTEGER I, ACC
      SIGNAL TICK
      ACC = 0
      DO 10 I = 1, 12
        ACC = ACC + ME * I
        ACCEPT 1 OF
          TICK
        DELAY 0.05 THEN
          ACC = ACC + 0
        END ACCEPT
10    CONTINUE
      TO PARENT SEND RES(ACC)
END TASKTYPE
`

// TestHAKillNodeMatchesSingleProcess is the tentpole acceptance: a 3-node HA
// mesh on the simulator whose node 2 is killed mid-run (abrupt teardown, no
// drain) produces byte-identical user output to the single-process run.
// Node 2's workers die with it; node 0 — its checkpoint buddy — detects the
// death, adopts cluster 3, restores the last blob, and the restored workers
// finish the job.
func TestHAKillNodeMatchesSingleProcess(t *testing.T) {
	cfg := config.Simple(3, 4)
	want := singleProcessOutput(t, cfg, haKillSource)
	if !strings.Contains(want, "TOTAL") {
		t.Fatalf("reference output unexpected:\n%s", want)
	}
	prog, err := pfi.Compile(haKillSource)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	reg.Enable(obs.Metrics | obs.Spans)
	var out bytes.Buffer
	var logs [3]bytes.Buffer
	s := sim.New(1)
	mesh, err := node.NewFaultMesh(cfg, s, 3, func(i int) node.Options {
		o := node.Options{AcceptTimeout: 30 * time.Second, HA: true, CheckpointInterval: 50 * time.Millisecond, Log: &logs[i]}
		if i == 0 {
			o.Out, o.Metrics = &out, reg
		}
		return o
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill node 2 a few checkpoints in, while its steppers are mid-loop.
	victims := 0
	killed := s.NewGate()
	s.AfterFunc(250*time.Millisecond, func() {
		s.Spawn("kill node 2", func() {
			for _, ti := range mesh.VMs[2].RunningTasks() {
				if !ti.Controller {
					victims++
				}
			}
			mesh.Kill(2)
			killed.Open()
		})
	})
	if err := mesh.Run(prog, pfi.Options{}); err != nil {
		t.Errorf("run: %v", err)
	}
	killed.Wait()
	if err := mesh.Shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if victims == 0 {
		t.Errorf("node 2 ran no stepper when it was killed")
	}

	if got := out.String(); got != want {
		t.Fatalf("output diverges after node kill:\n--- got ---\n%s--- want ---\n%s--- node logs ---\n0:\n%s1:\n%s2:\n%s",
			got, want, logs[0].String(), logs[1].String(), logs[2].String())
	}
	// The run must actually have recovered, or the kill landed after the work
	// was done and the test pinned nothing.
	counterOf := func(s *obs.Snapshot, name string) int64 {
		for _, c := range s.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		return -1
	}
	snap := reg.Snapshot()
	if v := counterOf(snap, "node.ha.deaths"); v < 1 {
		t.Errorf("node.ha.deaths = %d, want >= 1; node 0 log:\n%s", v, logs[0].String())
	}
	if v := counterOf(snap, "node.ha.ckpt.rx"); v < 1 {
		t.Errorf("node.ha.ckpt.rx = %d, want >= 1 (node 0 is node 2's buddy)", v)
	}
	if !strings.Contains(logs[0].String(), "rerouted node 2's clusters to node 0") {
		t.Errorf("node 0 never completed the rebalance; log:\n%s", logs[0].String())
	}
	// The rebalance is a span on the survivor's HA lane.
	spans, _ := reg.Spans()
	rebalanced := false
	for _, s := range spans {
		rebalanced = rebalanced || s.Lane == "node/0 ha" && s.Name == "rebalance n2->n0"
	}
	if !rebalanced {
		t.Errorf("node 0 captured no rebalance n2->n0 span on lane node/0 ha (%d spans)", len(spans))
	}
	// Failure forensics: the survivor's flight recorder must hold the dead
	// node's story — the checkpoints it stored as node 2's buddy (proving
	// which epoch the restore came from) and the death declaration itself.
	dump, err := reg.Recorder().Dump()
	if err != nil {
		t.Fatalf("blackbox dump: %v", err)
	}
	_, _, events, err := msgcodec.DecodeBlackbox(dump)
	if err != nil {
		t.Fatalf("blackbox decode: %v", err)
	}
	lastEpoch, death := int64(-1), false
	for _, ev := range events {
		switch ev.Kind {
		case msgcodec.EvCheckpoint:
			if ev.A == 2 && ev.B > lastEpoch {
				lastEpoch = ev.B
			}
		case msgcodec.EvHeartbeatMiss:
			if ev.A == 2 {
				death = true
			}
		}
	}
	if lastEpoch < 1 {
		t.Errorf("survivor's dump holds no checkpoint of node 2 (last epoch %d, %d events)", lastEpoch, len(events))
	}
	if !death {
		t.Errorf("survivor's dump holds no heartbeat-miss for node 2 (%d events)", len(events))
	}
}

// TestHAMeshSurvivesWithoutFailure pins that HA mode is inert when nothing
// dies: the heartbeats, checkpoints, and retention accounting must not change
// the program's output or wedge the shutdown drain.
func TestHAMeshSurvivesWithoutFailure(t *testing.T) {
	src := corpusSource(t, "crosscluster.pf")
	cfg := config.Simple(2, 4)
	want := singleProcessOutput(t, cfg, src)

	var out bytes.Buffer
	nodes := startMesh(t, 2, cfg, src, &out, func(i int, o *node.Options) {
		o.HA = true
		o.CheckpointInterval = 20 * time.Millisecond
	})
	runDistributed(t, nodes)
	if got := out.String(); got != want {
		t.Fatalf("HA-mode output differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
