// pipeline: a dynamic communication topology built from TASKID values, the
// Section 6 programming model.
//
// The paper explains that the initial topology is a root-directed tree (each
// task only knows its parent), and that programs grow richer topologies by
// exchanging TASKID values in messages.  This example builds a processing
// pipeline that way: a source task initiates the stage tasks, which each
// report their taskid to the source; the source then tells every stage who
// its successor is, creating a chain that did not exist at initiation time.
// Work items then flow source -> stage 1 -> ... -> stage N -> sink, each
// stage applying its own transformation, and the sink reports the results to
// the user.
//
// Run with:
//
//	go run ./examples/pipeline [-stages 4] [-items 10]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	pisces "repro"
)

func main() {
	stages := flag.Int("stages", 4, "number of pipeline stages")
	items := flag.Int("items", 10, "number of work items to push through")
	flag.Parse()

	cfg := pisces.SimpleConfiguration(3, 4)
	vm, err := pisces.NewVM(cfg, pisces.Options{UserOutput: os.Stdout})
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	defer vm.Shutdown()

	registerStage(vm)
	registerSink(vm)
	registerSource(vm, *stages, *items)

	if _, err := vm.Run("source", pisces.OnCluster(1)); err != nil {
		log.Fatalf("run: %v", err)
	}
	vm.WaitIdle()
	vm.FlushUserOutput()

	st := vm.Stats()
	fmt.Printf("pipeline of %d stages processed %d items: %d tasks, %d messages\n",
		*stages, *items, st.TasksInitiated, st.MessagesSent)
}

// registerSource builds the pipeline and pushes the work items through it.
func registerSource(vm *pisces.VM, stages, items int) {
	vm.Register("source", func(t *pisces.Task) {
		// Initiate the stages and the sink; they report their ids back, which
		// is how the source learns the taskids it needs.
		for i := 1; i <= stages; i++ {
			if err := t.Initiate(pisces.Any(), "stage", pisces.Int(int64(i))); err != nil {
				t.Printf("source: %v\n", err)
				return
			}
		}
		if err := t.Initiate(pisces.Other(), "sink", pisces.Int(int64(items))); err != nil {
			t.Printf("source: %v\n", err)
			return
		}

		stageIDs := make([]pisces.TaskID, stages)
		var sinkID pisces.TaskID
		res, err := t.Accept(pisces.AcceptSpec{
			Types: []pisces.TypeCount{
				{Type: "stage-ready", Count: stages},
				{Type: "sink-ready", Count: 1},
			},
		})
		if err != nil {
			t.Printf("source accept: %v\n", err)
			return
		}
		for _, m := range res.ByType("stage-ready") {
			idx := pisces.MustInt(m.Arg(0))
			stageIDs[idx-1] = m.Sender
		}
		sinkID = res.ByType("sink-ready")[0].Sender

		// Wire the topology: stage i forwards to stage i+1, the last stage to
		// the sink.  The successor taskid travels inside an ordinary message.
		for i := 0; i < stages; i++ {
			next := sinkID
			if i+1 < stages {
				next = stageIDs[i+1]
			}
			if err := t.Send(stageIDs[i], "successor", pisces.ID(next)); err != nil {
				t.Printf("source: %v\n", err)
				return
			}
		}

		// Push the work items into the head of the pipeline, then a single
		// flush that travels down the chain behind them (in-queues preserve
		// arrival order, so the flush cannot overtake the items).
		for item := 1; item <= items; item++ {
			if err := t.Send(stageIDs[0], "item", pisces.Int(int64(item))); err != nil {
				t.Printf("source: %v\n", err)
			}
		}
		if err := t.Send(stageIDs[0], "flush"); err != nil {
			t.Printf("source: %v\n", err)
		}
	})
}

// registerStage registers the pipeline stage: learn the successor, then
// transform and forward items until flushed.
func registerStage(vm *pisces.VM) {
	vm.Register("stage", func(t *pisces.Task) {
		index := pisces.MustInt(t.Arg(0))
		if err := t.SendParent("stage-ready", pisces.Int(index)); err != nil {
			t.Printf("stage %d: %v\n", index, err)
			return
		}
		m, err := t.AcceptOne("successor")
		if err != nil {
			t.Printf("stage %d: %v\n", index, err)
			return
		}
		next := pisces.MustID(m.Arg(0))

		for {
			m, err := t.AcceptOne("item", "flush")
			if err != nil {
				t.Printf("stage %d: %v\n", index, err)
				return
			}
			if m.Type == "flush" {
				// Propagate the flush downstream and retire this stage.
				if err := t.Send(next, "flush"); err != nil {
					t.Printf("stage %d flush: %v\n", index, err)
				}
				return
			}
			v := pisces.MustInt(m.Arg(0))
			t.Charge(20)
			if err := t.Send(next, "item", pisces.Int(v*10+index)); err != nil {
				t.Printf("stage %d: %v\n", index, err)
				return
			}
		}
	})
}

// registerSink registers the pipeline sink: collect the processed items.
func registerSink(vm *pisces.VM) {
	vm.Register("sink", func(t *pisces.Task) {
		want := int(pisces.MustInt(t.Arg(0)))
		if err := t.SendParent("sink-ready"); err != nil {
			t.Printf("sink: %v\n", err)
			return
		}
		got := 0
		var last int64
		for {
			m, err := t.AcceptOne("item", "flush")
			if err != nil {
				t.Printf("sink: %v\n", err)
				return
			}
			if m.Type == "flush" {
				break
			}
			last = pisces.MustInt(m.Arg(0))
			got++
		}
		t.Printf("sink received %d of %d item(s); last value %d\n", got, want, last)
	})
}
