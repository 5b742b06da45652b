// Quickstart: boot a two-cluster PISCES 2 virtual machine, initiate a small
// dynamic set of tasks that talk to each other with asynchronous messages,
// and print what happened.
//
// This is the "hello world" of the environment: a coordinator task spreads
// worker tasks over the clusters with ON ... INITIATE, each worker reports
// its partial result TO PARENT, and the coordinator ACCEPTs the replies.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	pisces "repro"
)

func main() {
	// 1. Choose a configuration: two clusters, four user-task slots each.
	//    (This is the "mapping of the virtual machine onto the hardware" the
	//    programmer controls before each run.)
	cfg := pisces.SimpleConfiguration(2, 4)

	// 2. Boot the virtual machine on the simulated FLEX/32, with metrics on
	//    so the run-time counts what it does.
	reg := pisces.NewObsRegistry()
	reg.Enable(pisces.ObsMetrics)
	vm, err := pisces.NewVM(cfg, pisces.Options{UserOutput: os.Stdout, Metrics: reg})
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	defer vm.Shutdown()

	// 3. Register tasktypes.  A worker squares its argument and reports back.
	vm.Register("worker", func(t *pisces.Task) {
		n := pisces.MustInt(t.Arg(0))
		if err := t.SendParent("result", pisces.Int(n*n)); err != nil {
			t.Printf("worker %s: %v\n", t.ID(), err)
		}
	})

	// The coordinator initiates one worker per input value, spreading them
	// over the clusters, then accepts all the replies.
	const inputs = 6
	vm.Register("coordinator", func(t *pisces.Task) {
		for i := 1; i <= inputs; i++ {
			placement := pisces.Same()
			if i%2 == 0 {
				placement = pisces.Other()
			}
			if err := t.Initiate(placement, "worker", pisces.Int(int64(i))); err != nil {
				t.Printf("initiate: %v\n", err)
			}
		}
		res, err := t.AcceptN(inputs, "result")
		if err != nil {
			t.Printf("accept: %v\n", err)
			return
		}
		sum := int64(0)
		for _, m := range res.ByType("result") {
			sum += pisces.MustInt(m.Arg(0))
		}
		t.Printf("sum of squares 1..%d = %d (from %d workers)\n", inputs, sum, res.Count("result"))
	})

	// 4. Initiate the top-level task from the execution environment and wait.
	if _, err := vm.Run("coordinator", pisces.OnCluster(1)); err != nil {
		log.Fatalf("run: %v", err)
	}
	vm.WaitIdle()
	vm.FlushUserOutput()

	// 5. Show what the run did.
	fmt.Printf("\ntasks initiated: %d   messages sent: %d   accepted: %d\n",
		reg.Counter("core.task.initiate").Load(), reg.Counter("core.msg.send").Load(), reg.Counter("core.msg.accept").Load())
	storage := vm.SystemStorage()
	fmt.Printf("PISCES system uses %.2f%% of each PE's local memory and %.3f%% of shared memory for tables\n",
		storage.LocalPercent, storage.TablePercent)
}
