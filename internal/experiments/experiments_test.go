package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestDescribeAndRunUnknown(t *testing.T) {
	for _, n := range Names {
		if Describe(n) == "unknown experiment" {
			t.Errorf("experiment %s has no description", n)
		}
	}
	if Describe("e99") != "unknown experiment" {
		t.Error("unknown experiment should say so")
	}
	if err := Run("e99", io.Discard); err == nil {
		t.Error("running an unknown experiment should fail")
	}
}

func TestSpeedupAndPercent(t *testing.T) {
	if speedup(100, 25) != 4 || speedup(100, 0) != 0 {
		t.Errorf("speedup(100, 25) = %v, speedup(100, 0) = %v; want 4 and 0", speedup(100, 25), speedup(100, 0))
	}
	if percent(1, 8) != 12.5 || percent(1, 0) != 0 {
		t.Errorf("percent(1, 8) = %v, percent(1, 0) = %v; want 12.5 and 0", percent(1, 8), percent(1, 0))
	}
}

func TestE1StorageMatchesPaperBounds(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunE1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Section 13 claims.
	if res.LocalPercent >= 2.5 {
		t.Errorf("system local memory share %.2f%%, paper claims < 2.5%%", res.LocalPercent)
	}
	if res.TablePercent >= 0.3 {
		t.Errorf("system table share %.3f%%, paper claims < 0.3%%", res.TablePercent)
	}
	// Message storage grows while unaccepted and is recovered afterwards.
	if res.HeapHighWater <= 0 {
		t.Error("message heap never grew during the burst")
	}
	if res.HeapAfterBurst != 0 {
		t.Errorf("message heap not recovered: %d bytes still in use", res.HeapAfterBurst)
	}
	if !strings.Contains(buf.String(), "E1: storage overhead") {
		t.Error("report missing its table")
	}
}

func TestE2RendersFigure1(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE2(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"VIRTUAL MACHINE ORGANIZATION", "Task controller", "User controller", "User task", "<not in use>", "Message-passing network"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure missing %q", want)
		}
	}
}

func TestE3MappingMatchesSection9(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunE3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.ForceSizes[1] != 1 || res.ForceSizes[2] != 6 || res.ForceSizes[3] != 10 || res.ForceSizes[4] != 10 {
		t.Errorf("force sizes %v", res.ForceSizes)
	}
	if res.MaxMultiprogramming[7] != 8 || res.MaxMultiprogramming[16] != 4 {
		t.Errorf("max multiprogramming %v", res.MaxMultiprogramming)
	}
	// The live FORCESPLIT member counts must equal the configured force sizes.
	for _, cl := range []int{1, 2, 3} {
		if res.MeasuredMembers[cl] != res.ForceSizes[cl] {
			t.Errorf("cluster %d measured %d members, configured %d", cl, res.MeasuredMembers[cl], res.ForceSizes[cl])
		}
	}
}

func TestE4ForceSpeedupShape(t *testing.T) {
	var buf bytes.Buffer
	p := E4Params{
		RegularIterations:   512,
		RegularCost:         8,
		IrregularIterations: 96,
		IrregularMaxCost:    256,
		ForceSizes:          []int{1, 4, 8},
	}
	res, err := RunE4(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	// Who wins and by roughly what factor: the regular workload must show
	// substantial speedup for both disciplines at 8 members, and
	// self-scheduling must not lose to prescheduling on the irregular
	// workload by more than a small margin (it usually wins).
	if best := res.Best("PRESCHED", "regular"); best < 5 {
		t.Errorf("PRESCHED regular best speedup %.2f, want >= 5 at 8 members", best)
	}
	if best := res.Best("SELFSCHED", "regular"); best < 4 {
		t.Errorf("SELFSCHED regular best speedup %.2f, want >= 4 at 8 members", best)
	}
	pre := res.Best("PRESCHED", "irregular")
	self := res.Best("SELFSCHED", "irregular")
	if self < pre*0.9 {
		t.Errorf("SELFSCHED irregular best %.2f much worse than PRESCHED %.2f", self, pre)
	}
	// Every row's speedup is at most the member count (no super-linear
	// artefacts from the accounting).
	for _, row := range res.Rows {
		if row.Speedup > float64(row.Members)+0.01 {
			t.Errorf("row %+v shows super-linear speedup", row)
		}
	}
}

func TestE5MessageSystem(t *testing.T) {
	var buf bytes.Buffer
	p := E5Params{
		PingPongRounds:      50,
		FanInSenders:        3,
		FanInMessages:       20,
		QueueGrowthMessages: 64,
		PayloadReals:        4,
	}
	res, err := RunE5(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.PingPongPerRound <= 0 {
		t.Error("ping-pong latency not measured")
	}
	if res.PingPongTicks <= 0 {
		t.Error("ping-pong tick cost not measured")
	}
	if res.FanInMessagesPerSec <= 0 || res.FanInDelivered < p.FanInSenders*p.FanInMessages {
		t.Errorf("fan-in: rate %.0f delivered %d", res.FanInMessagesPerSec, res.FanInDelivered)
	}
	// Each queued message costs at least a header's worth of shared memory
	// and the heap must be recovered after draining.
	if res.BytesPerQueuedMessage < 64 {
		t.Errorf("bytes per queued message %.0f, want >= 64 (header)", res.BytesPerQueuedMessage)
	}
	if !res.HeapRecovered {
		t.Error("message heap was not recovered after the queue drained")
	}
}

func TestE6WindowTrafficRatio(t *testing.T) {
	var buf bytes.Buffer
	p := E6Params{N: 48, Groups: 2, WorkersPerGroup: 2}
	res, err := RunE6(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	// Windows move each element exactly twice (one read + one write).
	if res.WindowBytes != 2*res.ArrayBytes {
		t.Errorf("window bytes %d, want exactly 2x array (%d)", res.WindowBytes, 2*res.ArrayBytes)
	}
	// Shipping through two partitioning levels costs about twice as much.
	if res.Ratio < 1.9 || res.Ratio > 2.1 {
		t.Errorf("shipped/window ratio %.2f, want about 2", res.Ratio)
	}
}

func TestE7ScheduleComparison(t *testing.T) {
	var buf bytes.Buffer
	p := E7Params{Layers: 4, UnitsPerLayer: 8, UnitCost: 20, Workers: 4}
	res, err := RunE7(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.SerialTicks != 4*8*20 {
		t.Errorf("serial ticks %d", res.SerialTicks)
	}
	// Both systems must get a real speedup on 4 workers, and be within ~30%
	// of one another on this regular graph (the paper's point is that they
	// differ in who controls the mapping, not in achievable performance).
	if res.ScheduleSpeedup < 2.5 || res.PiscesSpeedup < 2.5 {
		t.Errorf("speedups too low: SCHEDULE %.2f, PISCES %.2f", res.ScheduleSpeedup, res.PiscesSpeedup)
	}
	ratio := res.PiscesSpeedup / res.ScheduleSpeedup
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("systems diverge too much: SCHEDULE %.2f vs PISCES %.2f", res.ScheduleSpeedup, res.PiscesSpeedup)
	}
}

func TestE8TraceCoversAllEventKinds(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunE8(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Analysis
	if a.CountByKind == nil {
		t.Fatal("no analysis produced")
	}
	// The demonstration program must exercise every one of the eight
	// traceable event kinds of Section 12.
	counts := map[string]int{}
	for k, n := range a.CountByKind {
		counts[k.String()] = n
	}
	for _, kind := range []string{"TASK-INIT", "TASK-TERM", "MSG-SEND", "MSG-ACCEPT", "LOCK", "UNLOCK", "BARRIER", "FORCE-SPLIT"} {
		if counts[kind] == 0 {
			t.Errorf("trace has no %s events", kind)
		}
	}
	if !strings.Contains(buf.String(), "Trace analysis") {
		t.Error("report missing the analysis section")
	}
}

func TestRunAllWritesEverySection(t *testing.T) {
	if testing.Short() {
		t.Skip("running every experiment is slow")
	}
	var buf bytes.Buffer
	if err := Run("all", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, n := range Names {
		if !strings.Contains(out, "==== "+n) {
			t.Errorf("combined run missing section %s", n)
		}
	}
}
