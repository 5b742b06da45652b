package schedule

import (
	"testing"
	"testing/quick"
)

// diamond builds a diamond-shaped graph a -> (b, c) -> d and records the
// execution order.
func diamond(order *[]string) *Graph {
	add := func(name string) func() {
		return func() { *order = append(*order, name) }
	}
	g := NewGraph()
	g.Call("a", 10, add("a"))
	g.Call("b", 10, add("b")).Depends("b", "a")
	g.Call("c", 10, add("c")).Depends("c", "a")
	g.Call("d", 10, add("d")).Depends("d", "b", "c")
	return g
}

func indexOf(ss []string, want string) int {
	for i, s := range ss {
		if s == want {
			return i
		}
	}
	return -1
}

// TestRunSerialRespectsDependencies runs the diamond on one worker, the
// sequential baseline.
func TestRunSerialRespectsDependencies(t *testing.T) {
	var order []string
	g := diamond(&order)
	res, _, err := g.RunVirtual(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 4 || len(g.units) != 4 || res.PerWorker[0] != 4 {
		t.Fatalf("completed %v, per worker %v", res.Completed, res.PerWorker)
	}
	if indexOf(order, "a") != 0 || indexOf(order, "d") != 3 {
		t.Fatalf("serial order %v violates dependencies", order)
	}
}

func TestRunParallelRespectsDependencies(t *testing.T) {
	var order []string
	g := diamond(&order)
	res, _, err := g.RunVirtual(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 4 {
		t.Fatalf("completed %v", res.Completed)
	}
	if indexOf(order, "a") != 0 {
		t.Errorf("a must run first: %v", order)
	}
	if indexOf(order, "d") != 3 {
		t.Errorf("d must run last: %v", order)
	}
	total := 0
	for _, n := range res.PerWorker {
		total += n
	}
	if total != 4 {
		t.Errorf("per-worker counts %v do not sum to 4", res.PerWorker)
	}
}

func TestRunDistributesIndependentWork(t *testing.T) {
	// A wide graph of independent units must be spread over every worker,
	// and the work's cost must be divided between them.
	g := NewGraph()
	count := 0
	for i := 0; i < 32; i++ {
		name := string(rune('A' + i%26))
		g.Call(name+string(rune('0'+i/26)), 5, func() { count++ })
	}
	res, makespan, err := g.RunVirtual(4)
	if err != nil {
		t.Fatal(err)
	}
	if count != 32 {
		t.Fatalf("ran %d units", count)
	}
	for w, n := range res.PerWorker {
		if n != 8 {
			t.Errorf("automatic mapping gave worker %d %d units, want 8 each: %v", w, n, res.PerWorker)
		}
	}
	if makespan != 32*5/4 {
		t.Errorf("makespan %d, want %d (32 units of cost 5 on 4 workers)", makespan, 32*5/4)
	}
}

func TestValidationErrors(t *testing.T) {
	// Missing dependency definition.
	g := NewGraph()
	g.Call("a", 1, func() {})
	g.Depends("a", "ghost")
	if _, _, err := g.RunVirtual(1); err == nil {
		t.Error("undefined dependency accepted")
	}

	// Depends before Call leaves the unit without a body.
	g2 := NewGraph()
	g2.Depends("x", "y")
	g2.Call("y", 1, func() {})
	if _, _, err := g2.RunVirtual(1); err == nil {
		t.Error("unit without a body accepted")
	}

	// Cycle.
	g3 := NewGraph()
	g3.Call("a", 1, func() {}).Depends("a", "b")
	g3.Call("b", 1, func() {}).Depends("b", "a")
	if _, _, err := g3.RunVirtual(1); err != ErrCycle {
		t.Errorf("cycle: got %v", err)
	}
}

// Property: for random layered DAGs on any worker count, the work queue
// completes every unit exactly once, never runs a unit before its
// dependencies, and takes no less than the critical path (one unit per
// layer) and no more than the serial time.
func TestQuickParallelCorrectness(t *testing.T) {
	f := func(widths [3]uint8, workersRaw uint8) bool {
		g := NewGraph()
		finished := make(map[string]bool)
		okOrder := true
		var names [][]string
		for layer := 0; layer < 3; layer++ {
			w := int(widths[layer]%3) + 1
			var layerNames []string
			for i := 0; i < w; i++ {
				name := string(rune('a'+layer)) + string(rune('0'+i))
				deps := []string{}
				if layer > 0 {
					deps = names[layer-1]
				}
				depsCopy := append([]string(nil), deps...)
				g.Call(name, 1, func() {
					for _, d := range depsCopy {
						if !finished[d] {
							okOrder = false
						}
					}
					finished[name] = true
				})
				if len(deps) > 0 {
					g.Depends(name, deps...)
				}
				layerNames = append(layerNames, name)
			}
			names = append(names, layerNames)
		}
		res, makespan, err := g.RunVirtual(int(workersRaw%6) + 1)
		if err != nil {
			return false
		}
		return okOrder && len(res.Completed) == len(finished) && len(finished) == len(g.units) &&
			makespan >= 3 && makespan <= int64(len(g.units))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVirtualDiamond(t *testing.T) {
	var order []string
	g := diamond(&order)
	res, makespan, err := g.RunVirtual(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 4 {
		t.Fatalf("completed %v", res.Completed)
	}
	// a (10) then b and c in parallel (10) then d (10) = 30.
	if makespan != 30 {
		t.Fatalf("makespan = %d, want 30", makespan)
	}
	// One worker: fully serial.
	g2 := diamond(&order)
	_, serial, err := g2.RunVirtual(1)
	if err != nil {
		t.Fatal(err)
	}
	if serial != 40 {
		t.Fatalf("serial makespan = %d, want 40", serial)
	}
	if _, _, err := g2.RunVirtual(0); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func TestRunVirtualWideGraphScales(t *testing.T) {
	g := NewGraph()
	for j := 0; j < 16; j++ {
		g.Call(string(rune('a'+j)), 10, func() {})
	}
	_, ms4, err := g.RunVirtual(4)
	if err != nil {
		t.Fatal(err)
	}
	if ms4 != 40 {
		t.Fatalf("16 independent units of cost 10 on 4 workers: makespan %d, want 40", ms4)
	}
	_, ms16, err := g.RunVirtual(16)
	if err != nil {
		t.Fatal(err)
	}
	if ms16 != 10 {
		t.Fatalf("one unit per worker: makespan %d, want 10", ms16)
	}
}

func BenchmarkScheduleWideGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := NewGraph()
		for j := 0; j < 64; j++ {
			g.Call(string(rune('a'+j%26))+string(rune('0'+j/26)), 1, func() {})
		}
		if _, _, err := g.RunVirtual(4); err != nil {
			b.Fatal(err)
		}
	}
}
