// heat2d: parallel Jacobi iteration on a 2-D temperature grid using the
// Section 8 "window" pattern for parallel data partitioning.
//
// A host task owns the grid as a file-resident array (the file controller is
// its owner, as for "large arrays on secondary storage").  The host
// partitions the interior into horizontal bands by creating windows, sends
// one window to each solver task, and the solvers iterate: read the band plus
// its halo rows through the window machinery, relax, and write the band back.
// Only the band data ever moves — the host never copies the array through
// itself, which is exactly the point of windows.
//
// Run with:
//
//	go run ./examples/heat2d [-n 64] [-workers 4] [-iters 50]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	pisces "repro"
)

func main() {
	n := flag.Int("n", 64, "grid size (n x n)")
	workers := flag.Int("workers", 4, "number of solver tasks")
	iters := flag.Int("iters", 50, "Jacobi iterations")
	flag.Parse()

	cfg := pisces.SimpleConfiguration(4, 4)
	reg := pisces.NewObsRegistry()
	reg.Enable(pisces.ObsMetrics) // counts the window traffic reported below
	vm, err := pisces.NewVM(cfg, pisces.Options{UserOutput: os.Stdout, Metrics: reg})
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	defer vm.Shutdown()

	// The grid lives in a file-resident array owned by the file controller;
	// boundary conditions: top edge held at 100 degrees, the rest at 0.
	grid, err := vm.CreateFileArray("temperature", *n, *n)
	if err != nil {
		log.Fatalf("create grid: %v", err)
	}
	arr, _ := vm.FileArray("temperature")
	for c := 1; c <= *n; c++ {
		arr.Set(1, c, 100)
	}

	registerSolver(vm, *n, *iters)
	registerHost(vm, grid, *n, *workers, *iters)

	if _, err := vm.Run("host", pisces.OnCluster(1)); err != nil {
		log.Fatalf("run: %v", err)
	}
	vm.WaitIdle()
	vm.FlushUserOutput()

	// Report the final centre temperature and the window traffic.
	centre, _ := arr.Get(*n/2, *n/2)
	ops, bytes := reg.Counter("core.window.op").Load(), reg.Counter("core.window.bytes").Load()
	fmt.Printf("grid %dx%d, %d workers, %d iterations\n", *n, *n, *workers, *iters)
	fmt.Printf("centre temperature %.4f\n", centre)
	fmt.Printf("window traffic: %d operations, %d bytes moved\n", ops, bytes)
}

// registerHost registers the host tasktype: partition the interior rows into
// bands, hand each band's window to a solver, and wait for completion.
func registerHost(vm *pisces.VM, grid pisces.Window, n, workers, iters int) {
	vm.Register("host", func(t *pisces.Task) {
		// Interior rows 2..n-1 are partitioned; each solver also reads one
		// halo row above and below its band.
		interior, err := grid.Shrink(pisces.NewRect(2, n-1, 1, n))
		if err != nil {
			t.Printf("host: %v\n", err)
			return
		}
		bands, err := interior.RowBands(workers)
		if err != nil {
			t.Printf("host: %v\n", err)
			return
		}
		for i, band := range bands {
			if err := t.Initiate(pisces.Any(), "solver", pisces.Win(band), pisces.Int(int64(i))); err != nil {
				t.Printf("host initiate: %v\n", err)
				return
			}
		}
		res, err := t.AcceptN(len(bands), "band-done")
		if err != nil {
			t.Printf("host accept: %v\n", err)
			return
		}
		var maxResidual float64
		for _, m := range res.ByType("band-done") {
			if r := pisces.MustReal(m.Arg(0)); r > maxResidual {
				maxResidual = r
			}
		}
		t.Printf("host: all %d bands relaxed, max final residual %.6f\n", len(bands), maxResidual)
	})
}

// registerSolver registers the solver tasktype: Jacobi-relax one band.
func registerSolver(vm *pisces.VM, n, iters int) {
	vm.Register("solver", func(t *pisces.Task) {
		band := pisces.MustWin(t.Arg(0))

		// The halo window covers one extra row above and below the band.
		halo, err := pisces.Window{
			Owner:   band.Owner,
			ArrayID: band.ArrayID,
			Region:  pisces.WholeRect(n, n),
		}.Shrink(pisces.NewRect(band.Region.Row1-1, band.Region.Row2+1, 1, n))
		if err != nil {
			t.Printf("solver %s: %v\n", t.ID(), err)
			return
		}

		rows, cols := halo.Rows(), halo.Cols()
		var residual float64
		for iter := 0; iter < iters; iter++ {
			// Read the band plus halo, relax the interior of the band,
			// write the band back.
			data, err := t.ReadWindow(halo)
			if err != nil {
				t.Printf("solver %s read: %v\n", t.ID(), err)
				return
			}
			out := make([]float64, band.Size())
			residual = 0
			for r := 1; r < rows-1; r++ {
				for c := 0; c < cols; c++ {
					idx := r*cols + c
					if c == 0 || c == cols-1 {
						out[(r-1)*cols+c] = data[idx] // boundary columns fixed
						continue
					}
					v := 0.25 * (data[idx-cols] + data[idx+cols] + data[idx-1] + data[idx+1])
					out[(r-1)*cols+c] = v
					if d := math.Abs(v - data[idx]); d > residual {
						residual = d
					}
				}
			}
			if err := t.WriteWindow(band, out); err != nil {
				t.Printf("solver %s write: %v\n", t.ID(), err)
				return
			}
			t.Charge(int64(band.Size())) // model the relaxation work
		}
		if err := t.SendParent("band-done", pisces.Real(residual)); err != nil {
			t.Printf("solver %s: %v\n", t.ID(), err)
		}
	})
}
