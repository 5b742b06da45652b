package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/obs"
)

// E4Params controls the force-performance experiment.
type E4Params struct {
	// RegularIterations and RegularCost define the regular workload: many
	// iterations of identical cost.
	RegularIterations int
	RegularCost       int64
	// IrregularIterations and IrregularMaxCost define the irregular workload:
	// few iterations whose costs vary pseudo-randomly between 1 and
	// IrregularMaxCost ticks, so a static (prescheduled) partition can be
	// unlucky while self-scheduling balances the load dynamically.
	IrregularIterations int
	IrregularMaxCost    int64
	// ForceSizes lists the force sizes (members) to measure; 1 is the serial
	// baseline.
	ForceSizes []int
}

// DefaultE4Params returns the parameters used by cmd/experiments.
func DefaultE4Params() E4Params {
	return E4Params{
		RegularIterations:   4096,
		RegularCost:         8,
		IrregularIterations: 192,
		IrregularMaxCost:    512,
		ForceSizes:          []int{1, 2, 4, 8, 12},
	}
}

// irregularCost is a deterministic pseudo-random per-iteration cost.
func irregularCost(i int, max int64) int64 {
	h := uint64(i) * 2654435761
	h ^= h >> 13
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 31
	return 1 + int64(h%uint64(max))
}

// E4Row is one measured configuration.
type E4Row struct {
	Members    int
	Discipline string // PRESCHED or SELFSCHED
	Workload   string // regular or irregular
	Ticks      int64
	Speedup    float64
}

// E4Result holds all measured rows.
type E4Result struct {
	Rows []E4Row
}

// Best returns the measured speedup for the given discipline/workload at the
// largest force size.
func (r *E4Result) Best(discipline, workload string) float64 {
	best := 0.0
	for _, row := range r.Rows {
		if row.Discipline == discipline && row.Workload == workload && row.Speedup > best {
			best = row.Speedup
		}
	}
	return best
}

// RunE4 measures force performance: the same parallel loop run serially and
// under forces of increasing size, with PRESCHED and SELFSCHED scheduling and
// with regular and irregular per-iteration cost.  Time is measured in
// simulated ticks (the makespan over the PEs used), which makes the results
// deterministic.  These are the "detailed timing measurements" the paper
// defers in Section 13.
func RunE4(w io.Writer, p E4Params) (*E4Result, error) {
	res := &E4Result{}
	serial := map[string]int64{} // workload -> serial ticks

	for _, workload := range []string{"regular", "irregular"} {
		for _, discipline := range []string{"PRESCHED", "SELFSCHED"} {
			for _, members := range p.ForceSizes {
				ticks, err := runForceWorkload(p, workload, discipline, members)
				if err != nil {
					return nil, err
				}
				if members == 1 {
					// Serial reference: identical for both disciplines, keep
					// the first measurement.
					if _, ok := serial[workload]; !ok {
						serial[workload] = ticks
					}
					ticks = serial[workload]
				}
				row := E4Row{Members: members, Discipline: discipline, Workload: workload, Ticks: ticks}
				row.Speedup = speedup(float64(serial[workload]), float64(ticks))
				res.Rows = append(res.Rows, row)
			}
		}
	}

	t := obs.NewTable("E4: force performance in simulated ticks (lower is better)",
		"workload", "discipline", "members", "ticks", "speedup", "efficiency")
	for _, row := range res.Rows {
		t.AddRowf(row.Workload, row.Discipline, row.Members, row.Ticks,
			fmt.Sprintf("%.2f", row.Speedup),
			fmt.Sprintf("%.2f", row.Speedup/float64(row.Members)))
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "expected shape: near-linear speedup for the regular workload under both disciplines;\n")
	fmt.Fprintf(w, "SELFSCHED tracks or beats PRESCHED on the irregular workload at larger force sizes.\n")
	return res, nil
}

// runForceWorkload measures one (workload, discipline, members) cell.
func runForceWorkload(p E4Params, workload, discipline string, members int) (int64, error) {
	// One cluster on PE 3; members-1 secondary PEs starting at PE 7.
	cfg := config.Simple(1, 2)
	if members > 1 {
		pes := make([]int, 0, members-1)
		for pe := 7; len(pes) < members-1 && pe <= 20; pe++ {
			pes = append(pes, pe)
		}
		cfg = cfg.WithForces(1, pes...)
	}
	vm, err := core.NewVM(cfg, core.Options{AcceptTimeout: 30 * time.Second})
	if err != nil {
		return 0, err
	}
	defer vm.Shutdown()

	iterations := p.RegularIterations
	cost := func(i int) int64 { return p.RegularCost }
	if workload == "irregular" {
		iterations = p.IrregularIterations
		cost = func(i int) int64 { return irregularCost(i, p.IrregularMaxCost) }
	}

	// For SELFSCHED the iteration-to-member assignment is the one dynamic
	// claiming produces in *simulated* time (the member whose clock is
	// furthest behind claims the next iteration).  Precomputing it with
	// loops.ListSchedule keeps the measurement independent of how many host
	// CPUs the simulator happens to run on; the live members then execute
	// exactly that assignment on their PEs.  selfschedClaimCost models the
	// shared-counter access each claim performs.
	const selfschedClaimCost = 1
	var selfAssign [][]int
	if discipline == "SELFSCHED" {
		costs := make([]int64, iterations)
		for i := range costs {
			costs[i] = cost(i + 1)
		}
		var err error
		selfAssign, _, err = loops.ListSchedule(costs, members, selfschedClaimCost)
		if err != nil {
			return 0, err
		}
	}

	ticksCh := make(chan int64, 1)
	vm.Register("loop", func(t *core.Task) {
		machine := t.VM().Machine()
		start := machine.MaxTicks()
		err := t.ForceSplit(func(m *core.ForceMember) {
			// All members rendezvous before the timed loop so the measurement
			// starts from a common point (member start-up is not part of the
			// loop's load balance).
			m.Barrier(nil)
			switch discipline {
			case "PRESCHED":
				m.Presched(1, iterations, 1, func(i int) { m.Charge(cost(i)) })
			default:
				for _, pos := range selfAssign[m.Member()] {
					m.Charge(selfschedClaimCost + cost(pos+1))
				}
			}
			m.Barrier(nil)
		})
		if err != nil {
			t.Printf("loop: %v\n", err)
			ticksCh <- -1
			return
		}
		ticksCh <- machine.MaxTicks() - start
	})
	if _, err := vm.Run("loop", core.OnCluster(1)); err != nil {
		return 0, err
	}
	ticks := <-ticksCh
	if ticks < 0 {
		return 0, fmt.Errorf("experiments: force workload failed")
	}
	return ticks, nil
}
