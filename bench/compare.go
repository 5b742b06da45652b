package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareFiles prints, for every workload and end-to-end metric the two -out
// files share, both medians, how much worse the second is than the first,
// and the metric's bound.  It reports false when a pair is outside its bound
// or the second file has failed operations.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	byWorkload := map[string]*result{}
	for _, r := range b.Results {
		if !r.Trace {
			byWorkload[r.Workload] = r
		}
	}
	ok, pairs := true, 0
	fmt.Fprintf(w, "%-11s %-14s %-5s %14s %14s %9s %7s\n", "workload", "metric", "unit", "first", "second", "worse by", "bound")
	for _, ra := range a.Results {
		rb := byWorkload[ra.Workload]
		if ra.Trace || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, okA := ra.Metrics[d.Name]
			mb, okB := rb.Metrics[d.Name]
			if !okA || !okB || ma.Value == 0 {
				continue
			}
			pairs++
			worse := (mb.Value - ma.Value) / ma.Value
			if d.Better == higher {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound {
				verdict, ok = "  OUTSIDE BOUND", false
			}
			fmt.Fprintf(w, "%-11s %-14s %-5s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				ra.Workload, d.Name, d.Unit, ma.Value, mb.Value, 100*worse, 100*d.Bound, verdict)
		}
		if rb.Failed > 0 {
			fmt.Fprintf(w, "%-11s failed %d of %d operations in the second file  OUTSIDE BOUND\n", rb.Workload, rb.Failed, rb.Attempted)
			ok = false
		}
	}
	if pairs == 0 {
		return false, fmt.Errorf("%s and %s share no untraced workload", pathA, pathB)
	}
	return ok, nil
}
