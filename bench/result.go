package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// sample is one metric of one run.  Value is what the run reports: for an
// end-to-end metric the decile of its trials on the metric's better side
// (reported), for a per-layer row the median; the spread of the trials is
// beside it.
type sample struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
	// Share is the value as a share of the traced run's end-to-end time per
	// operation, for the per-layer rows where that ratio means something.
	Share float64 `json:"share,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"` // first few reasons
	Metrics   map[string]sample `json:"metrics"`
}

// fail counts n failed operations and keeps the first few reasons.
func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// set records one per-layer value derived from others (a difference or a
// ratio), which has no trials of its own.
func (r *result) set(name string, v float64) {
	series{name: {v}}.intoLayers(r)
}

// value reads a recorded metric.
func (r *result) value(name string) float64 { return r.Metrics[name].Value }

// budget writes the workload's layer budget.  parts maps a recorded per-layer
// row to the factor that turns its value into nanoseconds of one end-to-end
// operation of e2eNS nanoseconds: how often the operation pays the row, times
// the row's unit.  Each part gets its share, and what the parts leave
// unexplained is bench.budget.residual_share.
func (r *result) budget(e2eNS float64, parts map[string]float64) {
	sum := 0.0
	for name, factor := range parts {
		m := r.Metrics[name]
		m.Share = m.Value * factor / e2eNS
		r.Metrics[name] = m
		sum += m.Share
	}
	r.set("bench.budget.residual_share", 1-sum)
}

// series collects per-trial values by metric name.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// reported is where an end-to-end metric is read in the ascending order of a
// run's trials: the decile on the metric's better side.  A neighbour on the
// shared host slows trials down for seconds at a time and nothing speeds them
// up, so the slow side of a run's trials says how busy the host was and the
// fast side what the program costs; the median of a run that was disturbed
// for half its time sits in the slow half.  A tenth of the trials still
// reach the decile, so it is no lucky shot.  Memory is not slowed down by a
// neighbour and is read at the median.
func reported(d metricDef) float64 {
	switch {
	case d.Unit == "MB":
		return 0.5
	case d.Better == higher:
		return 0.9
	}
	return 0.1
}

// intoEndToEnd writes the run's end-to-end metrics into r.
func (s series) intoEndToEnd(r *result) { s.write(r, endToEnd, reported) }

// intoLayers writes per-layer rows into r, each the median of its trials.
func (s series) intoLayers(r *result) {
	s.write(r, perLayer, func(metricDef) float64 { return 0.5 })
}

// write writes every collected series into r, read at p(its definition),
// with min and max beside it, taking units from defs; a name outside defs is
// a harness bug.
func (s series) write(r *result, defs []metricDef, p func(metricDef) float64) {
	for name, xs := range s {
		d, ok := findMetric(defs, name)
		if !ok {
			panic("bench: metric " + name + " is not in the catalogue")
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		r.Metrics[name] = sample{Unit: d.Unit, Value: quantile(sorted, p(d)), Min: sorted[0], Max: sorted[len(sorted)-1], N: len(sorted)}
	}
}

// quantile reads the p-quantile of an ascending slice by linear
// interpolation; 0 for an empty slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantile(sorted, 0.5)
}

// meta records the machine state a result was taken under.
type meta struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load1"`
	BuildS     float64 `json:"build_s"`
}

func readMeta(buildS float64) meta {
	m := meta{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown", BuildS: buildS}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			m.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return m
}

// report is what -out writes and -compare reads.
type report struct {
	Meta    meta      `json:"meta"`
	Results []*result `json:"results"`
}

// printTable prints a result's metrics in catalogue order.
func printTable(w io.Writer, r *result, m meta) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s seed %d trace %v: nproc %d GOMAXPROCS %d %s commit %s load1 %.2f build %.2fs\n",
		r.Workload, r.Seed, r.Trace, m.NProc, m.GOMAXPROCS, m.GoVersion, m.Commit, m.Load1, m.BuildS)
	fmt.Fprintf(w, "  %-38s %-6s %14s %14s %14s %4s %8s\n", "metric", "unit", "value", "min", "max", "n", "share")
	for _, d := range defs {
		s, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		share := ""
		if s.Share != 0 {
			share = fmt.Sprintf("%.1f%%", 100*s.Share)
		}
		fmt.Fprintf(w, "  %-38s %-6s %14.4f %14.4f %14.4f %4d %8s\n", d.Name, d.Unit, s.Value, s.Min, s.Max, s.N, share)
	}
	fmt.Fprintf(w, "  attempted %d failed %d failed_share %g\n", r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// contractLine renders the one-line JSON object the driver reads from the
// last line of standard output.
func contractLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]mv{}}
	for name, s := range r.Metrics {
		out.Metrics[name] = mv{Value: s.Value, Unit: s.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // floats and strings only; NaN would be a harness bug
	}
	return string(b)
}
