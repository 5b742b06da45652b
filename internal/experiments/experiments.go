// Package experiments regenerates every quantitative artifact of the paper's
// evaluation (see DESIGN.md, "Per-experiment index"):
//
//	E1  Section 13 storage-overhead measurements
//	E2  Figure 1, the virtual-machine organisation diagram
//	E3  the Section 9 worked mapping example
//	E4  force performance (PRESCHED vs SELFSCHED vs serial) — the timing
//	    measurements the paper defers
//	E5  message-system behaviour (latency, fan-in, unaccepted-queue growth)
//	E6  window-based partitioning vs shipping array data through every level
//	E7  the Section 3 comparison against a SCHEDULE-style scheduler
//	E8  the Section 12 tracing facility
//
// Each experiment has a Run function that performs the measurement on the
// simulated FLEX/32 and writes a report; the structured results are returned
// so the benchmark harness and tests can check the shape of the outcome
// (who wins, by roughly what factor) without parsing text.
package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Experiment names in canonical order.
var Names = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"}

// Describe returns a one-line description of an experiment.
func Describe(name string) string {
	switch name {
	case "e1":
		return "Section 13 storage overhead (system local memory, shared-memory tables, message-heap recovery)"
	case "e2":
		return "Figure 1: virtual machine organization rendered from a live system"
	case "e3":
		return "Section 9 worked example: mapping clusters and forces onto the 18 MMOS PEs"
	case "e4":
		return "Force performance: PRESCHED vs SELFSCHED vs serial over force sizes"
	case "e5":
		return "Message system: ping-pong latency, fan-in, broadcast, unaccepted-queue growth"
	case "e6":
		return "Windows: hierarchical partitioning vs shipping array data through every level"
	case "e7":
		return "Comparison with a SCHEDULE-style automatically mapped scheduler"
	case "e8":
		return "Section 12 tracing facility and off-line analysis"
	default:
		return "unknown experiment"
	}
}

// Run executes the named experiment (or "all") and writes its report to w.
func Run(name string, w io.Writer) error {
	run := map[string]func(io.Writer) error{
		"e1": func(w io.Writer) error { _, err := RunE1(w); return err },
		"e2": RunE2,
		"e3": func(w io.Writer) error { _, err := RunE3(w); return err },
		"e4": func(w io.Writer) error { _, err := RunE4(w, DefaultE4Params()); return err },
		"e5": func(w io.Writer) error { _, err := RunE5(w, DefaultE5Params()); return err },
		"e6": func(w io.Writer) error { _, err := RunE6(w, DefaultE6Params()); return err },
		"e7": func(w io.Writer) error { _, err := RunE7(w, DefaultE7Params()); return err },
		"e8": func(w io.Writer) error { _, err := RunE8(w); return err },
	}
	if name == "all" {
		names := make([]string, len(Names))
		copy(names, Names)
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "==== %s: %s ====\n", n, Describe(n))
			if err := run[n](w); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	f, ok := run[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (want one of %v or all)", name, Names)
	}
	return f(w)
}

// speedup returns serial/parallel, the conventional speedup ratio; it returns
// 0 when parallel is 0.
func speedup(serial, parallel float64) float64 {
	if parallel == 0 {
		return 0
	}
	return serial / parallel
}

// percent returns 100*part/whole (0 when whole is 0).
func percent(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}
