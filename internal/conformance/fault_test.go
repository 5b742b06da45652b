package conformance

import (
	"fmt"
	"strings"
	"testing"
)

// TestFaultTransportScheduleIndependence sweeps the corpus on the fault mesh,
// one cluster per node: every write between nodes pays a seeded
// virtual-network delay (some a retransmission penalty), which produces
// interleavings no in-process schedule reaches — yet the programs' output
// must still match the undelayed seed-0 baseline, no schedule may deadlock,
// and every heap shard of every VM must be empty after shutdown.
func TestFaultTransportScheduleIndependence(t *testing.T) {
	names, srcs := corpusPrograms(t)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			baseline := Run(srcs[name], 0)
			if baseline.Err != nil {
				t.Fatalf("baseline: %v", baseline.Err)
			}
			for seed := int64(0); seed < int64(*seedCount); seed++ {
				res := RunFault(srcs[name], seed)
				if res.Err != nil {
					recordFailure(name, seed, "fault-transport run error: "+res.Err.Error())
					t.Fatalf("fault seed %d: %v", seed, res.Err)
				}
				if res.Output != baseline.Output {
					recordFailure(name, seed, "fault-transport output diverges from baseline")
					t.Fatalf("fault seed %d output diverges:\nbaseline:\n%s\nfault:\n%s",
						seed, baseline.Output, res.Output)
				}
				for shard, in := range res.HeapShardsInUse {
					if in != 0 {
						recordFailure(name, seed, fmt.Sprintf("fault-transport heap leak: %d bytes on shard %d", in, shard))
						t.Errorf("fault seed %d: %d heap bytes on shard %d after shutdown", seed, in, shard)
					}
				}
			}
		})
	}
}

// TestFaultTransportSeedStable pins reproducibility: the same seed replays
// the same delays and therefore the same run, byte for byte.
func TestFaultTransportSeedStable(t *testing.T) {
	_, srcs := Corpus()
	src := srcs["crosscluster.pf"]
	for _, seed := range []int64{0, 7, 12345} {
		a := RunFault(src, seed)
		b := RunFault(src, seed)
		if a.Err != nil || b.Err != nil {
			t.Fatalf("seed %d: %v / %v", seed, a.Err, b.Err)
		}
		if a.Output != b.Output || a.Steps != b.Steps {
			t.Fatalf("seed %d not reproducible: %d vs %d steps", seed, a.Steps, b.Steps)
		}
		if strings.Join(a.Trace, "\n") != strings.Join(b.Trace, "\n") {
			t.Fatalf("seed %d trace not reproducible", seed)
		}
	}
}

// TestFaultTransportActuallyDelays guards the harness: with faults injected,
// at least one corpus program must take a different schedule than without,
// or the sweep exercises nothing new.
func TestFaultTransportActuallyDelays(t *testing.T) {
	_, srcs := Corpus()
	src := srcs["crosscluster.pf"]
	plain := Run(src, 0)
	faulty := RunFault(src, 0)
	if plain.Err != nil || faulty.Err != nil {
		t.Fatalf("%v / %v", plain.Err, faulty.Err)
	}
	if plain.Steps == faulty.Steps &&
		strings.Join(plain.Trace, "\n") == strings.Join(faulty.Trace, "\n") {
		t.Fatal("fault transport produced the identical schedule; injection is inert")
	}
}
