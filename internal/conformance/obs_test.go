package conformance

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestInstrumentationTransparent: running a corpus program with the full
// observability surface enabled (metrics + spans at every layer) must not
// change what the program does — identical terminal output and an identical
// number of scheduling decisions as the uninstrumented run of the same seed.
// Under the sim backend every metric and span timestamp comes from the
// virtual clock, so observing cannot perturb the schedule; this test is the
// guard that keeps it that way.
func TestInstrumentationTransparent(t *testing.T) {
	names, srcs := Corpus()
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{0, 1, 5} {
				plain := Run(srcs[name], seed)
				if plain.Err != nil {
					t.Fatalf("seed %d: %v", seed, plain.Err)
				}
				instr := RunInstrumented(srcs[name], seed)
				if instr.Err != nil {
					recordFailure(name, seed, "instrumented run error: "+instr.Err.Error())
					t.Fatalf("seed %d instrumented: %v", seed, instr.Err)
				}
				if instr.Output != plain.Output {
					recordFailure(name, seed, "instrumentation changed program output")
					t.Fatalf("seed %d: instrumented output differs:\nplain:\n%s\ninstrumented:\n%s",
						seed, plain.Output, instr.Output)
				}
				if instr.Steps != plain.Steps {
					recordFailure(name, seed, "instrumentation changed the schedule")
					t.Fatalf("seed %d: %d steps instrumented vs %d plain", seed, instr.Steps, plain.Steps)
				}
				for shard, in := range instr.HeapShardsInUse {
					if in != 0 {
						recordFailure(name, seed, "heap leak under instrumentation")
						t.Errorf("seed %d: %d heap bytes on shard %d after instrumented shutdown", seed, in, shard)
					}
				}
			}
		})
	}
}

// TestInstrumentationSeedStable: the metric snapshot and the Chrome trace of
// an instrumented sim run are part of the deterministic contract — the same
// seed must reproduce them byte for byte (all timestamps are virtual), and a
// different seed must generally produce a different trace (the spans really
// follow the schedule, not a fixed script).
func TestInstrumentationSeedStable(t *testing.T) {
	names, srcs := Corpus()
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{0, 7} {
				a := RunInstrumented(srcs[name], seed)
				b := RunInstrumented(srcs[name], seed)
				if a.Err != nil || b.Err != nil {
					t.Fatalf("seed %d: %v / %v", seed, a.Err, b.Err)
				}
				if len(a.ObsSnapshot) == 0 || len(a.ObsTrace) == 0 {
					t.Fatalf("seed %d: instrumented run captured no snapshot (%d bytes) or trace (%d bytes)",
						seed, len(a.ObsSnapshot), len(a.ObsTrace))
				}
				if !bytes.Equal(a.ObsSnapshot, b.ObsSnapshot) {
					recordFailure(name, seed, "metric snapshot not seed-stable")
					t.Fatalf("seed %d: metric snapshots differ between identical runs", seed)
				}
				if !bytes.Equal(a.ObsTrace, b.ObsTrace) {
					recordFailure(name, seed, "span trace not seed-stable")
					t.Fatalf("seed %d: chrome traces differ between identical runs:\nrun1:\n%s\nrun2:\n%s",
						seed, a.ObsTrace, b.ObsTrace)
				}
			}
		})
	}
}

// TestInstrumentedTracesFollowSchedule guards the sweep itself: on a program
// with real scheduling freedom, different seeds must yield different span
// traces, or the byte-stability assertions above are vacuous.
func TestInstrumentedTracesFollowSchedule(t *testing.T) {
	_, srcs := Corpus()
	src := srcs["fanin.pf"]
	distinct := map[string]bool{}
	for seed := int64(0); seed < 8; seed++ {
		res := RunInstrumented(src, seed)
		if res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		distinct[string(res.ObsTrace)] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("8 seeds produced %d distinct instrumented traces; spans are not schedule-driven", len(distinct))
	}
}

// TestAllSinksTransparentAndSeedStable sweeps the corpus with the Section 12
// trace, the flight recorder, metrics and spans all on (RunObserved).  Being
// watched by everything at once must change nothing — output, schedule and
// trace-line sequence equal the plain run's — every artefact must equal what
// the run with only its own sink on produces (the sinks share one event and
// one clock but must not see each other), and a second run of the same seed
// must reproduce all of them byte for byte.
func TestAllSinksTransparentAndSeedStable(t *testing.T) {
	names, srcs := Corpus()
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{0, 1, 5} {
				plain := Run(srcs[name], seed)
				if plain.Err != nil {
					t.Fatalf("seed %d: %v", seed, plain.Err)
				}
				all := RunObserved(srcs[name], seed)
				if all.Err != nil {
					recordFailure(name, seed, "all-sinks run error: "+all.Err.Error())
					t.Fatalf("seed %d with every sink on: %v", seed, all.Err)
				}
				if all.Output != plain.Output || all.Steps != plain.Steps {
					recordFailure(name, seed, "all sinks on changed the output or the schedule")
					t.Fatalf("seed %d: every sink on: %d steps, output\n%s\nplain: %d steps, output\n%s",
						seed, all.Steps, all.Output, plain.Steps, plain.Output)
				}
				if strings.Join(all.Trace, "\n") != strings.Join(plain.Trace, "\n") {
					recordFailure(name, seed, "all sinks on changed the Section 12 trace")
					t.Fatalf("seed %d: trace lines differ with every sink on", seed)
				}
				for shard, in := range all.HeapShardsInUse {
					if in != 0 {
						t.Errorf("seed %d: %d heap bytes on shard %d after shutdown with every sink on", seed, in, shard)
					}
				}
				instr, rec, again := RunInstrumented(srcs[name], seed), RunRecorded(srcs[name], seed), RunObserved(srcs[name], seed)
				for _, c := range []struct {
					what      string
					got, want []byte
				}{
					{"blackbox dump vs the recorder-only run", all.RecorderDump, rec.RecorderDump},
					{"chrome trace vs the spans-only run", all.ObsTrace, instr.ObsTrace},
					{"metric snapshot vs the metrics-only run", all.ObsSnapshot, instr.ObsSnapshot},
					{"blackbox dump vs a second run", all.RecorderDump, again.RecorderDump},
					{"chrome trace vs a second run", all.ObsTrace, again.ObsTrace},
					{"metric snapshot vs a second run", all.ObsSnapshot, again.ObsSnapshot},
				} {
					if len(c.got) == 0 || !bytes.Equal(c.got, c.want) {
						recordFailure(name, seed, "all sinks on: "+c.what+" differs")
						t.Errorf("seed %d: %s: %d bytes vs %d, not identical", seed, c.what, len(c.got), len(c.want))
					}
				}
			}
		})
	}
}

// activitySeries are the core's activity counters, each a registry series.
var activitySeries = []string{"core.task.initiate", "core.task.complete", "core.msg.send", "core.msg.accept", "core.window.op", "core.window.bytes"}

// broadcastSrc sends one broadcast from cluster 1 to a task on each cluster,
// so on the mesh one copy crosses to the other node as a broadcast frame.
const broadcastSrc = `TASKTYPE MAIN
      SIGNAL HELLO
      SIGNAL DONE
      ON CLUSTER 1 INITIATE W
      ON CLUSTER 2 INITIATE W
      ACCEPT 2 OF HELLO
      TO ALL SEND GO
      ACCEPT 2 OF DONE
      PRINT *, 'DONE', NMSG('DONE')
END TASKTYPE

TASKTYPE W
      SIGNAL GO
      TO PARENT SEND HELLO
      ACCEPT 1 OF GO
      TO PARENT SEND DONE
END TASKTYPE
`

// TestActivityCountsMatchAcrossMeshForms: a run counts what it did once, in
// whichever form it runs.  For each corpus program, and a broadcast, at seeds
// 1-3, the activity series of a metrics-on single-VM run equal those of the
// metrics-on two-node fault mesh, whose nodes share one registry.  Two
// findings shaped the series.  Every node boots its own controllers, so the
// mesh's run-time exchanges more of its own messages than one VM does: each
// node's four controllers accept a pisces.shutdown and each node's user
// controller a pisces.user-sync.  Their sends were never counted, and
// core.msg.accept does not count their accepts either.  And a broadcast's
// copies for another node travel as one frame: the receiving node counts a
// send for each copy it delivers, as one VM counts each copy it sends.
func TestActivityCountsMatchAcrossMeshForms(t *testing.T) {
	names, srcs := Corpus()
	names = append(names, "broadcast")
	srcs["broadcast"] = broadcastSrc
	for _, name := range names {
		for seed := int64(1); seed <= 3; seed++ {
			single, mesh := obs.New(), obs.New()
			single.Enable(obs.Metrics)
			mesh.Enable(obs.Metrics)
			if res := run(srcs[name], seed, single, nil); res.Deadlock != nil {
				t.Fatalf("%s seed %d: %v", name, seed, res.Err)
			}
			if res := runMesh(srcs[name], seed, mesh, nil, 0, nil, nil); res.Deadlock != nil {
				t.Fatalf("%s seed %d on the mesh: %v", name, seed, res.Err)
			}
			total := int64(0)
			for _, series := range activitySeries {
				one, two := single.Counter(series).Load(), mesh.Counter(series).Load()
				total += one
				if one != two {
					t.Errorf("%s seed %d: %s is %d on one VM, %d on the mesh", name, seed, series, one, two)
				}
			}
			if total == 0 {
				t.Errorf("%s seed %d: the single-VM run counted nothing", name, seed)
			}
		}
	}
}
