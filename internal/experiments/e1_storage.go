package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
)

// E1Result holds the Section 13 storage-overhead measurements.
type E1Result struct {
	// SystemLocalBytes and LocalPercent are the per-PE PISCES system
	// footprint; the paper reports "less than 2.5% of each PE's local memory".
	SystemLocalBytes int
	LocalPercent     float64
	// TableBytes and TablePercent are the shared-memory system tables; the
	// paper reports "less than 0.3% of shared memory".
	TableBytes   int
	TablePercent float64
	// Message-heap behaviour: bytes in use while messages sit unaccepted,
	// the high-water mark, and bytes in use after every message is accepted
	// ("Storage used for message passing is dynamically recovered and
	// reused").
	HeapDuringBurst int
	HeapHighWater   int
	HeapAfterBurst  int
	BurstMessages   int
}

// RunE1 measures the storage overhead of the running system, reproducing the
// only numbers the paper reports (Section 13).
func RunE1(w io.Writer) (*E1Result, error) {
	vm, err := core.NewVM(config.Section9Example(), core.Options{AcceptTimeout: 10 * time.Second})
	if err != nil {
		return nil, err
	}
	defer vm.Shutdown()

	res := &E1Result{}
	st := vm.SystemStorage()
	res.SystemLocalBytes = st.SystemLocalBytesPerPE
	res.LocalPercent = st.LocalPercent
	res.TableBytes = st.TableBytes
	res.TablePercent = st.TablePercent

	// Message-heap recovery: a sender floods a receiver that does not accept
	// until told to; the heap grows while the messages wait in the in-queue
	// and returns to its baseline once they are accepted.
	const burst = 200
	res.BurstMessages = burst
	// The heap is sharded per cluster; the Section 13 numbers are the
	// machine-wide roll-up over every shard (memory.Aggregate via HeapStats).
	heap := vm.Machine().Shared()

	ready := make(chan core.TaskID, 1)
	accepted := make(chan struct{})
	vm.Register("hoarder", func(t *core.Task) {
		ready <- t.ID()
		if _, err := t.Accept(core.AcceptSpec{Total: 1, Types: []core.TypeCount{{Type: "go"}}, Delay: core.Forever}); err != nil {
			return
		}
		if _, err := t.AcceptN(burst, "datum"); err != nil {
			return
		}
		close(accepted)
	})
	vm.Register("flooder", func(t *core.Task) {
		to := core.MustID(t.Arg(0))
		payload := make([]float64, 16)
		for i := 0; i < burst; i++ {
			if err := t.Send(to, "datum", core.Reals(payload)); err != nil {
				t.Printf("flooder: %v\n", err)
				return
			}
		}
		if err := t.Send(to, "go"); err != nil {
			t.Printf("flooder: %v\n", err)
		}
	})

	hoarderID, err := vm.Initiate("hoarder", core.OnCluster(1))
	if err != nil {
		return nil, err
	}
	<-ready
	if _, err := vm.Initiate("flooder", core.OnCluster(2), core.ID(hoarderID)); err != nil {
		return nil, err
	}
	vm.WaitIdle()
	<-accepted

	// During the burst is approximated by the high-water mark (the burst has
	// completed by the time we sample), which is what Section 13 cares about:
	// "the amount of shared memory used for message passing only becomes
	// significant when large numbers of messages ... are sent and left
	// waiting in a task's in-queue without being accepted."
	hs := heap.HeapStats()
	res.HeapHighWater = hs.HighWater
	res.HeapDuringBurst = res.HeapHighWater
	res.HeapAfterBurst = hs.InUse

	t := obs.NewTable("E1: storage overhead (paper, Section 13)",
		"quantity", "measured", "share", "paper")
	t.AddRow("PISCES system code+data per PE",
		fmt.Sprintf("%d bytes", res.SystemLocalBytes),
		fmt.Sprintf("%.2f%% of 1 MB local", res.LocalPercent),
		"< 2.5%")
	t.AddRow("system tables in shared memory",
		fmt.Sprintf("%d bytes", res.TableBytes),
		fmt.Sprintf("%.3f%% of 2.25 MB shared", res.TablePercent),
		"< 0.3%")
	t.AddRow(fmt.Sprintf("message heap, %d unaccepted messages", burst),
		fmt.Sprintf("%d bytes high water", res.HeapHighWater),
		fmt.Sprintf("%.2f%% of shared", percent(float64(res.HeapHighWater), float64(vm.Machine().Shared().Total()))),
		"grows only while unaccepted")
	t.AddRow("message heap after all accepted",
		fmt.Sprintf("%d bytes", res.HeapAfterBurst),
		"",
		"dynamically recovered and reused")
	fmt.Fprint(w, t.String())
	return res, nil
}
