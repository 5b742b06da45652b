// Benchmarks that regenerate the paper's evaluation artifacts (one benchmark
// per table/figure; see DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded results).  Benchmarks report the headline quantity of each
// experiment through b.ReportMetric so `go test -bench=.` reproduces the
// numbers without a separate harness.
package pisces_test

import (
	"io"
	"testing"
	"time"

	pisces "repro"
	"repro/internal/experiments"
)

// BenchmarkE1StorageOverhead regenerates the Section 13 storage-overhead
// table: PISCES system share of local memory, system-table share of shared
// memory, and message-heap recovery.
func BenchmarkE1StorageOverhead(b *testing.B) {
	b.ReportAllocs()
	var local, table float64
	var recovered int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE1(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		local = res.LocalPercent
		table = res.TablePercent
		recovered = res.HeapAfterBurst
	}
	b.ReportMetric(local, "local-mem-%")
	b.ReportMetric(table, "shared-tables-%")
	b.ReportMetric(float64(recovered), "heap-bytes-after-accept")
}

// BenchmarkE2Figure1 regenerates Figure 1 (the virtual-machine organisation
// rendering) from a live system.
func BenchmarkE2Figure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunE2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3MappingVariants regenerates the Section 9 worked example,
// including the live FORCESPLIT member counts for the three mapping variants
// (no secondaries, 5 secondaries, 9 shared secondaries).
func BenchmarkE3MappingVariants(b *testing.B) {
	b.ReportAllocs()
	var mp8 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE3(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		mp8 = float64(res.MaxMultiprogramming[7])
	}
	b.ReportMetric(mp8, "max-multiprog-pe7")
}

// BenchmarkE4ForcePresched and BenchmarkE4ForceSelfsched regenerate the force
// performance series (the timing measurements the paper defers): speedup of
// the regular and irregular workloads at the largest force size.
func BenchmarkE4ForcePresched(b *testing.B) {
	b.ReportAllocs()
	benchE4(b, "PRESCHED")
}

// BenchmarkE4ForceSelfsched is the SELFSCHED half of the E4 series.
func BenchmarkE4ForceSelfsched(b *testing.B) {
	b.ReportAllocs()
	benchE4(b, "SELFSCHED")
}

func benchE4(b *testing.B, discipline string) {
	p := experiments.E4Params{
		RegularIterations:   1024,
		RegularCost:         8,
		IrregularIterations: 128,
		IrregularMaxCost:    256,
		ForceSizes:          []int{1, 8},
	}
	var regular, irregular float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE4(io.Discard, p)
		if err != nil {
			b.Fatal(err)
		}
		regular = res.Best(discipline, "regular")
		irregular = res.Best(discipline, "irregular")
	}
	b.ReportMetric(regular, "speedup-regular-8pe")
	b.ReportMetric(irregular, "speedup-irregular-8pe")
}

// BenchmarkE5MessagePingPong measures the message-system round trip of the
// E5 table.
func BenchmarkE5MessagePingPong(b *testing.B) {
	b.ReportAllocs()
	vm, err := pisces.NewVM(pisces.SimpleConfiguration(2, 2), pisces.Options{AcceptTimeout: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer vm.Shutdown()

	ready := make(chan pisces.TaskID, 1)
	vm.Register("echo", func(t *pisces.Task) {
		ready <- t.ID()
		for {
			m, err := t.AcceptOne("ping", "stop")
			if err != nil || m.Type == "stop" {
				return
			}
			if err := t.SendSender("pong"); err != nil {
				return
			}
		}
	})
	done := make(chan struct{})
	vm.Register("pinger", func(t *pisces.Task) {
		to := pisces.MustID(t.Arg(0))
		for i := 0; i < b.N; i++ {
			if err := t.Send(to, "ping"); err != nil {
				b.Error(err)
				break
			}
			if _, err := t.AcceptOne("pong"); err != nil {
				b.Error(err)
				break
			}
		}
		_ = t.Send(to, "stop")
		close(done)
	})
	echoID, err := vm.Initiate("echo", pisces.OnCluster(1))
	if err != nil {
		b.Fatal(err)
	}
	<-ready
	b.ResetTimer()
	if _, err := vm.Initiate("pinger", pisces.OnCluster(2), pisces.ID(echoID)); err != nil {
		b.Fatal(err)
	}
	<-done
}

// BenchmarkE5MessageFanIn measures many-to-one delivery from the E5 table.
func BenchmarkE5MessageFanIn(b *testing.B) {
	b.ReportAllocs()
	p := experiments.DefaultE5Params()
	p.PingPongRounds = 50
	p.FanInSenders = 4
	p.FanInMessages = 50
	p.QueueGrowthMessages = 64
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE5(io.Discard, p)
		if err != nil {
			b.Fatal(err)
		}
		rate = res.FanInMessagesPerSec
	}
	b.ReportMetric(rate, "fanin-msgs/s")
}

// BenchmarkE6WindowPartitioning regenerates the Section 8 window-vs-shipping
// comparison and reports the traffic ratio.
func BenchmarkE6WindowPartitioning(b *testing.B) {
	b.ReportAllocs()
	p := experiments.E6Params{N: 64, Groups: 2, WorkersPerGroup: 2}
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE6(io.Discard, p)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Ratio
	}
	b.ReportMetric(ratio, "shipped/window-bytes")
}

// BenchmarkE7ScheduleBaseline and BenchmarkE7PiscesMapped regenerate the
// Section 3 comparison between automatic (SCHEDULE-style) and
// programmer-controlled (PISCES) mapping of the same layered task graph.
func BenchmarkE7ScheduleBaseline(b *testing.B) {
	b.ReportAllocs()
	benchE7(b, true)
}

// BenchmarkE7PiscesMapped is the PISCES half of the E7 comparison.
func BenchmarkE7PiscesMapped(b *testing.B) {
	b.ReportAllocs()
	benchE7(b, false)
}

func benchE7(b *testing.B, scheduleSide bool) {
	p := experiments.E7Params{Layers: 4, UnitsPerLayer: 8, UnitCost: 20, Workers: 4}
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE7(io.Discard, p)
		if err != nil {
			b.Fatal(err)
		}
		if scheduleSide {
			speedup = res.ScheduleSpeedup
		} else {
			speedup = res.PiscesSpeedup
		}
	}
	b.ReportMetric(speedup, "speedup-4pe")
}

// BenchmarkE8Trace regenerates the Section 12 trace demonstration and reports
// how many events the run produced.
func BenchmarkE8Trace(b *testing.B) {
	b.ReportAllocs()
	var events float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE8(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		events = float64(len(res.Events))
	}
	b.ReportMetric(events, "trace-events")
}

// BenchmarkTaskInitiation measures the cost of the INITIATE path through the
// task controller (used in the E5 discussion of run-time overheads).
func BenchmarkTaskInitiation(b *testing.B) {
	b.ReportAllocs()
	vm, err := pisces.NewVM(pisces.SimpleConfiguration(2, 4), pisces.Options{AcceptTimeout: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer vm.Shutdown()
	vm.Register("noop", func(*pisces.Task) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Run("noop", pisces.Any()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForceSplit measures the cost of FORCESPLIT plus a barrier for a
// four-member force (the fixed overhead visible in the E4 series).
func BenchmarkForceSplit(b *testing.B) {
	b.ReportAllocs()
	cfg := pisces.SimpleConfiguration(1, 2).WithForces(1, 7, 8, 9)
	vm, err := pisces.NewVM(cfg, pisces.Options{AcceptTimeout: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer vm.Shutdown()
	done := make(chan struct{})
	vm.Register("splitter", func(t *pisces.Task) {
		for i := 0; i < b.N; i++ {
			if err := t.ForceSplit(func(m *pisces.ForceMember) { m.Barrier(nil) }); err != nil {
				b.Error(err)
				break
			}
		}
		close(done)
	})
	b.ResetTimer()
	if _, err := vm.Initiate("splitter", pisces.OnCluster(1)); err != nil {
		b.Fatal(err)
	}
	<-done
}

// BenchmarkPreprocessor measures the Pisces Fortran preprocessor on a small
// program (Section 10 tooling).
func BenchmarkPreprocessor(b *testing.B) {
	src := `TASKTYPE HOST(N)
      INTEGER N, I
      PRESCHED DO 10 I = 1, N
      X = X + I
10    CONTINUE
      TO PARENT SEND DONE(X)
END TASKTYPE
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pisces.Preprocess(src); err != nil {
			b.Fatal(err)
		}
	}
}
