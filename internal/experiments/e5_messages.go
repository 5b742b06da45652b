package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
)

// E5Params controls the message-system experiment.
type E5Params struct {
	// PingPongRounds is the number of request/reply round trips measured.
	PingPongRounds int
	// FanInSenders and FanInMessages define the fan-in workload: each sender
	// sends FanInMessages messages to one collector.
	FanInSenders  int
	FanInMessages int
	// FanInWindows is how many measurement windows the fan-in delivery is
	// split into: the reported rate is the median window's, which a single
	// slow scheduling hiccup (the noise flagged in the PR 4 numbers) cannot
	// drag around the way it dragged a single whole-run measurement.  Zero
	// means 5.
	FanInWindows int
	// QueueGrowthMessages is the number of unaccepted messages queued while
	// heap growth is sampled.
	QueueGrowthMessages int
	// PayloadReals is the number of REAL values carried by each message.
	PayloadReals int
}

// DefaultE5Params returns the parameters used by cmd/experiments.
func DefaultE5Params() E5Params {
	return E5Params{
		PingPongRounds:      500,
		FanInSenders:        6,
		FanInMessages:       100,
		FanInWindows:        5,
		QueueGrowthMessages: 256,
		PayloadReals:        8,
	}
}

// E5Result holds the message-system measurements.
type E5Result struct {
	// PingPongPerRound is the mean wall-clock time of one send/accept round
	// trip, and PingPongTicks the simulated ticks charged per round trip.
	PingPongPerRound time.Duration
	PingPongTicks    float64
	// FanInMessagesPerSec is the median per-window wall-clock delivery rate
	// of the fan-in; FanInRateMin/Max bound the spread across the windows
	// and FanInWindowRates holds every window's rate, delivery order.
	// FanInRateP50/P95 summarise the window-rate distribution through the
	// runtime histogram type, which is what the printed report shows — a
	// median/p95 pair is comparable across runs in a way min..max (one
	// scheduling hiccup wide) never was.
	FanInMessagesPerSec float64
	FanInRateMin        float64
	FanInRateMax        float64
	FanInRateP50        float64
	FanInRateP95        float64
	FanInWindowRates    []float64
	FanInDelivered      int
	// Queue growth: heap bytes per queued message and whether the heap
	// returned to its baseline after the queue was drained.
	BytesPerQueuedMessage float64
	HeapRecovered         bool
}

// RunE5 measures the asynchronous message system of Section 6: round-trip
// latency between two tasks in different clusters, many-to-one throughput,
// and the shared-memory cost of letting messages wait unaccepted in an
// in-queue.
func RunE5(w io.Writer, p E5Params) (*E5Result, error) {
	res := &E5Result{}

	// --- ping-pong latency ---------------------------------------------------
	{
		vm, err := core.NewVM(config.Simple(2, 2), core.Options{AcceptTimeout: 30 * time.Second})
		if err != nil {
			return nil, err
		}
		echoReady := make(chan core.TaskID, 1)
		vm.Register("echo", func(t *core.Task) {
			echoReady <- t.ID()
			for {
				m, err := t.AcceptOne("ping", "stop")
				if err != nil || m.Type == "stop" {
					return
				}
				if err := t.SendSender("pong", m.Arg(0)); err != nil {
					return
				}
			}
		})
		done := make(chan [2]int64, 1) // {elapsed ns, ticks}
		vm.Register("pinger", func(t *core.Task) {
			to := core.MustID(t.Arg(0))
			machine := t.VM().Machine()
			startTicks := machine.TotalTicks()
			start := time.Now()
			for i := 0; i < p.PingPongRounds; i++ {
				if err := t.Send(to, "ping", core.Int(int64(i))); err != nil {
					t.Printf("pinger: %v\n", err)
					break
				}
				if _, err := t.AcceptOne("pong"); err != nil {
					t.Printf("pinger: %v\n", err)
					break
				}
			}
			elapsed := time.Since(start)
			_ = t.Send(to, "stop")
			done <- [2]int64{int64(elapsed), machine.TotalTicks() - startTicks}
		})
		echoID, err := vm.Initiate("echo", core.OnCluster(1))
		if err != nil {
			vm.Shutdown()
			return nil, err
		}
		<-echoReady
		if _, err := vm.Initiate("pinger", core.OnCluster(2), core.ID(echoID)); err != nil {
			vm.Shutdown()
			return nil, err
		}
		r := <-done
		vm.WaitIdle()
		vm.Shutdown()
		res.PingPongPerRound = time.Duration(r[0] / int64(p.PingPongRounds))
		res.PingPongTicks = float64(r[1]) / float64(p.PingPongRounds)
	}

	// --- fan-in throughput ---------------------------------------------------
	{
		vm, err := core.NewVM(config.Simple(4, 4), core.Options{AcceptTimeout: 60 * time.Second})
		if err != nil {
			return nil, err
		}
		total := p.FanInSenders * p.FanInMessages
		windows := p.FanInWindows
		if windows <= 0 {
			windows = 5
		}
		if windows > total {
			windows = total
		}
		collectorReady := make(chan core.TaskID, 1)
		collected := make(chan []float64, 1)
		vm.Register("collector", func(t *core.Task) {
			collectorReady <- t.ID()
			// Accept the stream in fixed-count windows, timing each: the
			// per-window rates expose the spread a single whole-run window
			// hides, and their median is robust against one slow window.
			rates := make([]float64, 0, windows)
			remaining := total
			for w := 0; w < windows; w++ {
				count := remaining / (windows - w)
				if count == 0 {
					continue
				}
				start := time.Now()
				if _, err := t.AcceptN(count, "datum"); err != nil {
					t.Printf("collector: %v\n", err)
					break
				}
				if elapsed := time.Since(start); elapsed > 0 {
					rates = append(rates, float64(count)/elapsed.Seconds())
				}
				remaining -= count
			}
			collected <- rates
		})
		vm.Register("producer", func(t *core.Task) {
			to := core.MustID(t.Arg(0))
			payload := make([]float64, p.PayloadReals)
			for i := 0; i < p.FanInMessages; i++ {
				if err := t.Send(to, "datum", core.Reals(payload)); err != nil {
					t.Printf("producer: %v\n", err)
					return
				}
			}
		})
		collectorID, err := vm.Initiate("collector", core.OnCluster(1))
		if err != nil {
			vm.Shutdown()
			return nil, err
		}
		<-collectorReady
		for i := 0; i < p.FanInSenders; i++ {
			if _, err := vm.Initiate("producer", core.Any(), core.ID(collectorID)); err != nil {
				vm.Shutdown()
				return nil, err
			}
		}
		rates := <-collected
		vm.WaitIdle()
		st := vm.Stats()
		vm.Shutdown()
		res.FanInDelivered = int(st.MessagesAccepted)
		res.FanInWindowRates = rates
		if len(rates) > 0 {
			sorted := append([]float64(nil), rates...)
			sort.Float64s(sorted)
			res.FanInRateMin = sorted[0]
			res.FanInRateMax = sorted[len(sorted)-1]
			mid := len(sorted) / 2
			if len(sorted)%2 == 0 {
				res.FanInMessagesPerSec = (sorted[mid-1] + sorted[mid]) / 2
			} else {
				res.FanInMessagesPerSec = sorted[mid]
			}
			// Summarise the window rates through the runtime histogram so the
			// report's spread line uses the same quantile machinery as the
			// -stats distributions.
			hreg := obs.New()
			h := hreg.Histogram("e5.fanin.window.rate", "")
			for _, r := range rates {
				h.Observe(int64(r + 0.5))
			}
			hs := hreg.Snapshot().Hists[0]
			res.FanInRateP50 = hs.Quantile(0.50)
			res.FanInRateP95 = hs.Quantile(0.95)
		}
	}

	// --- unaccepted-queue growth ----------------------------------------------
	{
		vm, err := core.NewVM(config.Simple(2, 2), core.Options{AcceptTimeout: 30 * time.Second})
		if err != nil {
			return nil, err
		}
		// Machine-wide heap usage is the per-cluster shard roll-up.
		heap := vm.Machine().Shared()
		baseline := heap.HeapStats().InUse
		hoardReady := make(chan core.TaskID, 1)
		vm.Register("hoard", func(t *core.Task) {
			hoardReady <- t.ID()
			if _, err := t.Accept(core.AcceptSpec{Total: 1, Types: []core.TypeCount{{Type: "drain"}}, Delay: core.Forever}); err != nil {
				return
			}
			_, _ = t.Accept(core.AcceptSpec{Types: []core.TypeCount{{Type: "datum", Count: core.All}}})
		})
		id, err := vm.Initiate("hoard", core.OnCluster(1))
		if err != nil {
			vm.Shutdown()
			return nil, err
		}
		<-hoardReady
		payload := make([]float64, p.PayloadReals)
		for i := 0; i < p.QueueGrowthMessages; i++ {
			if err := vm.SendFromUser(id, "datum", core.Reals(payload)); err != nil {
				vm.Shutdown()
				return nil, err
			}
		}
		grown := heap.HeapStats().InUse
		res.BytesPerQueuedMessage = float64(grown-baseline) / float64(p.QueueGrowthMessages)
		if err := vm.SendFromUser(id, "drain"); err != nil {
			vm.Shutdown()
			return nil, err
		}
		vm.WaitIdle()
		after := heap.HeapStats().InUse
		res.HeapRecovered = after <= baseline
		vm.Shutdown()
	}

	t := obs.NewTable("E5: message system behaviour (Section 6/11)",
		"measurement", "value")
	t.AddRow("ping-pong round trip (wall clock)", res.PingPongPerRound.String())
	t.AddRow("ping-pong round trip (simulated ticks)", fmt.Sprintf("%.1f", res.PingPongTicks))
	t.AddRow(fmt.Sprintf("fan-in delivery rate (median of %d windows)", len(res.FanInWindowRates)),
		fmt.Sprintf("%.0f messages/s", res.FanInMessagesPerSec))
	t.AddRow(fmt.Sprintf("fan-in window rate (p50 / p95 of %d windows)", len(res.FanInWindowRates)),
		fmt.Sprintf("%.0f / %.0f messages/s", res.FanInRateP50, res.FanInRateP95))
	t.AddRow("shared-memory cost per queued message", fmt.Sprintf("%.0f bytes", res.BytesPerQueuedMessage))
	t.AddRow("heap recovered after queue drained", fmt.Sprintf("%v", res.HeapRecovered))
	fmt.Fprint(w, t.String())
	return res, nil
}
