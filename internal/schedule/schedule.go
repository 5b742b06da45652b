// Package schedule implements a small work-queue scheduler in the style of
// Dongarra and Sorensen's SCHEDULE package, which the paper contrasts with
// PISCES 2 in Section 3: "The programmer defines the dependency relations
// between the routines (via SCHEDULE calls), and then SCHEDULE maps the
// program onto the available hardware in an appropriate way for parallel
// execution.  In contrast, PISCES 2 expects the programmer to control the
// mapping."
//
// The package is the baseline for the E7 comparison experiment: the same
// task graph is expressed once as a SCHEDULE-style dependency graph with
// automatic mapping, and once as PISCES tasks and forces with an explicit
// configuration.  Its one executor, Graph.RunVirtual, replays the decisions
// of SCHEDULE's dynamic work queue in simulated time, so the comparison
// measures the simulated machine and not the host.
//
// Units communicate through shared variables (ordinary Go closures over
// shared data), exactly as SCHEDULE's Fortran routines communicated through
// COMMON; the scheduler provides only dependency ordering and worker
// placement.
package schedule

import (
	"errors"
	"fmt"
)

// ErrCycle is returned when the dependency graph has a cycle.
var ErrCycle = errors.New("schedule: dependency graph has a cycle")

// Unit is one schedulable routine.
type Unit struct {
	// Name identifies the unit.
	Name string
	// Work is the routine body.
	Work func()
	// Cost is the simulated time the unit occupies its worker.
	Cost int64

	deps []string
}

// Graph is a dependency graph of units, built by Call/Depends in the style of
// SCHEDULE's "schedule calls".
type Graph struct {
	units map[string]*Unit
	order []string
}

// NewGraph returns an empty dependency graph.
func NewGraph() *Graph {
	return &Graph{units: make(map[string]*Unit)}
}

// Call declares a unit of work.  Declaring a name twice replaces its body.
func (g *Graph) Call(name string, cost int64, work func()) *Graph {
	if _, exists := g.units[name]; !exists {
		g.order = append(g.order, name)
	}
	g.units[name] = &Unit{Name: name, Work: work, Cost: cost}
	return g
}

// Depends records that unit name cannot start until all of the listed units
// have completed.
func (g *Graph) Depends(name string, on ...string) *Graph {
	if u, ok := g.units[name]; ok {
		u.deps = append(u.deps, on...)
	} else {
		g.order = append(g.order, name)
		g.units[name] = &Unit{Name: name, deps: append([]string(nil), on...)}
	}
	return g
}

// validate checks that every dependency exists and the graph is acyclic, and
// returns a topological order.
func (g *Graph) validate() ([]string, error) {
	for _, u := range g.units {
		if u.Work == nil {
			return nil, fmt.Errorf("schedule: unit %q was named in Depends but never defined by Call", u.Name)
		}
		for _, d := range u.deps {
			if _, ok := g.units[d]; !ok {
				return nil, fmt.Errorf("schedule: unit %q depends on undefined unit %q", u.Name, d)
			}
		}
	}
	// Kahn's algorithm for cycle detection and a deterministic topo order.
	indeg := make(map[string]int, len(g.units))
	succs := make(map[string][]string, len(g.units))
	for _, name := range g.order {
		indeg[name] = len(g.units[name].deps)
		for _, d := range g.units[name].deps {
			succs[d] = append(succs[d], name)
		}
	}
	var ready []string
	for _, name := range g.order {
		if indeg[name] == 0 {
			ready = append(ready, name)
		}
	}
	var topo []string
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		topo = append(topo, n)
		for _, s := range succs[n] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(topo) != len(g.units) {
		return nil, ErrCycle
	}
	return topo, nil
}

// Result reports what RunVirtual did.
type Result struct {
	// Completed lists unit names in completion order.
	Completed []string
	// PerWorker counts units executed by each worker index.
	PerWorker []int
}

// RunVirtual simulates the graph's execution by `workers` identical workers
// in virtual time: whenever a worker becomes idle it takes the oldest ready
// unit, spending the unit's Cost in simulated time.  It returns the result,
// the makespan in simulated time, and an error for invalid graphs.  Unit
// bodies are still executed (once each, on the calling goroutine) so that
// results computed through shared variables are available afterwards.
//
// The scheduling decisions a dynamic work queue would make are reproduced
// in simulated time, independent of how many host CPUs the simulator has;
// with one worker the run is the sequential baseline.
func (g *Graph) RunVirtual(workers int) (*Result, int64, error) {
	topo, err := g.validate()
	if err != nil {
		return nil, 0, err
	}
	if workers <= 0 {
		return nil, 0, fmt.Errorf("schedule: worker count must be positive, got %d", workers)
	}

	remaining := make(map[string]int, len(topo))
	succs := make(map[string][]string, len(topo))
	readyAt := make(map[string]int64, len(topo)) // earliest virtual time the unit may start
	var ready []string
	for _, name := range topo {
		u := g.units[name]
		remaining[name] = len(u.deps)
		for _, d := range u.deps {
			succs[d] = append(succs[d], name)
		}
		if len(u.deps) == 0 {
			ready = append(ready, name)
		}
	}

	workerFree := make([]int64, workers)
	res := &Result{PerWorker: make([]int, workers)}
	var makespan int64
	for len(res.Completed) < len(topo) {
		if len(ready) == 0 {
			return nil, 0, fmt.Errorf("schedule: no ready units but %d still incomplete", len(topo)-len(res.Completed))
		}
		// Oldest ready unit goes to the earliest-free worker, but cannot
		// start before its dependencies finished.
		name := ready[0]
		ready = ready[1:]
		w := 0
		for i := 1; i < workers; i++ {
			if workerFree[i] < workerFree[w] {
				w = i
			}
		}
		start := workerFree[w]
		if r := readyAt[name]; r > start {
			start = r
		}
		u := g.units[name]
		u.Work()
		finish := start + u.Cost
		workerFree[w] = finish
		if finish > makespan {
			makespan = finish
		}
		res.Completed = append(res.Completed, name)
		res.PerWorker[w]++
		for _, s := range succs[name] {
			remaining[s]--
			if readyAt[s] < finish {
				readyAt[s] = finish
			}
			if remaining[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return res, makespan, nil
}
