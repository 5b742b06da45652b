package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// E7Params controls the SCHEDULE-comparison experiment.
type E7Params struct {
	// Layers and UnitsPerLayer define the dependency graph: every unit in
	// layer k depends on every unit in layer k-1 (a layered DAG, the shape of
	// a blocked triangular solve or a multi-stage assembly).
	Layers        int
	UnitsPerLayer int
	// UnitCost is the tick cost of one unit of work.
	UnitCost int64
	// Workers is the number of PEs given to both systems.
	Workers int
}

// DefaultE7Params returns the parameters used by cmd/experiments.
func DefaultE7Params() E7Params {
	return E7Params{Layers: 6, UnitsPerLayer: 12, UnitCost: 40, Workers: 4}
}

// E7Result compares the two programming systems on the same task graph and
// the same simulated hardware.
type E7Result struct {
	SerialTicks   int64
	ScheduleTicks int64
	PiscesTicks   int64
	// Speedups relative to the serial execution.
	ScheduleSpeedup float64
	PiscesSpeedup   float64
}

// RunE7 reproduces the Section 3 comparison: the same layered task graph is
// executed (a) under a SCHEDULE-style scheduler that maps units onto workers
// automatically, and (b) as a PISCES 2 program in which the programmer maps
// the work explicitly — a force whose members take the units of each layer
// with a prescheduled partition and synchronise with a barrier between
// layers.  Both run on the same number of PEs of the same simulated FLEX/32;
// the measure is the simulated makespan in ticks.
func RunE7(w io.Writer, p E7Params) (*E7Result, error) {
	res := &E7Result{}
	res.SerialTicks = int64(p.Layers) * int64(p.UnitsPerLayer) * p.UnitCost

	// --- SCHEDULE-style automatic mapping -------------------------------------
	// The dependency graph is declared exactly as a SCHEDULE user would
	// declare it; the work-queue execution is simulated in virtual time
	// (RunVirtual) so the measured makespan reflects the 20-PE machine rather
	// than the host running the simulator.
	{
		g := schedule.NewGraph()
		for layer := 0; layer < p.Layers; layer++ {
			for u := 0; u < p.UnitsPerLayer; u++ {
				name := fmt.Sprintf("L%dU%d", layer, u)
				g.Call(name, p.UnitCost, func() {})
				if layer > 0 {
					for prev := 0; prev < p.UnitsPerLayer; prev++ {
						g.Depends(name, fmt.Sprintf("L%dU%d", layer-1, prev))
					}
				}
			}
		}
		_, makespan, err := g.RunVirtual(p.Workers)
		if err != nil {
			return nil, err
		}
		res.ScheduleTicks = makespan
	}

	// --- PISCES 2 with programmer-controlled mapping ---------------------------
	{
		cfg := config.Simple(1, 2)
		pes := make([]int, 0, p.Workers-1)
		for pe := 7; len(pes) < p.Workers-1 && pe <= 20; pe++ {
			pes = append(pes, pe)
		}
		cfg = cfg.WithForces(1, pes...)
		vm, err := core.NewVM(cfg, core.Options{AcceptTimeout: 60 * time.Second})
		if err != nil {
			return nil, err
		}
		ticksCh := make(chan int64, 1)
		vm.Register("layered", func(t *core.Task) {
			machine := t.VM().Machine()
			start := machine.MaxTicks()
			err := t.ForceSplit(func(m *core.ForceMember) {
				for layer := 0; layer < p.Layers; layer++ {
					m.Presched(1, p.UnitsPerLayer, 1, func(int) { m.Charge(p.UnitCost) })
					m.Barrier(nil)
				}
			})
			if err != nil {
				t.Printf("layered: %v\n", err)
				ticksCh <- -1
				return
			}
			ticksCh <- machine.MaxTicks() - start
		})
		if _, err := vm.Run("layered", core.OnCluster(1)); err != nil {
			vm.Shutdown()
			return nil, err
		}
		ticks := <-ticksCh
		vm.Shutdown()
		if ticks < 0 {
			return nil, fmt.Errorf("experiments: PISCES layered run failed")
		}
		res.PiscesTicks = ticks
	}

	res.ScheduleSpeedup = speedup(float64(res.SerialTicks), float64(res.ScheduleTicks))
	res.PiscesSpeedup = speedup(float64(res.SerialTicks), float64(res.PiscesTicks))

	t := obs.NewTable(fmt.Sprintf("E7: layered task graph (%d layers x %d units, cost %d) on %d PEs",
		p.Layers, p.UnitsPerLayer, p.UnitCost, p.Workers),
		"system", "mapping", "simulated ticks", "speedup vs serial")
	t.AddRowf("serial", "single PE", res.SerialTicks, "1.00")
	t.AddRowf("SCHEDULE-style", "automatic (work queue)", res.ScheduleTicks, fmt.Sprintf("%.2f", res.ScheduleSpeedup))
	t.AddRowf("PISCES 2", "programmer-controlled (force + barrier)", res.PiscesTicks, fmt.Sprintf("%.2f", res.PiscesSpeedup))
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "expected shape: both systems reach similar speedups on this regular graph; the\n")
	fmt.Fprintf(w, "difference is who chose the mapping (SCHEDULE's scheduler vs the PISCES configuration).\n")
	return res, nil
}
