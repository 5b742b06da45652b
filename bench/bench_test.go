package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the driver's view of the benchmark, at the repository
// root.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the harness's
// catalogue identical, and both inside the driver's limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the catalogue %d", len(bj.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if bj.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the catalogue %+v", i, bj.Workloads[i], w)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name, or a why that is not one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
		if seen[w.Name] {
			t.Errorf("name %q is used twice", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, declared, catalogue []metricDef, bounded bool) {
		if len(declared) != len(catalogue) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, the catalogue %d", len(declared), kind, len(catalogue))
		}
		for i, d := range catalogue {
			if declared[i] != d {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the catalogue %+v", kind, i, declared[i], d)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
				t.Errorf("%s metric %+v: bad name, unit or direction", kind, d)
			}
			if bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("%s metric %q: bound %v", kind, d.Name, d.Bound)
			}
			if seen[d.Name] {
				t.Errorf("name %q is used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end-to-end", bj.EndToEnd, endToEnd, true)
	check("per-layer", bj.PerLayer, perLayer, false)
	if d, ok := findMetric(endToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != lower {
		t.Errorf("the end-to-end metrics must include setup_s in s, lower is better")
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", bj.Paths, bj.RunSeconds)
	}
}

// TestExpectedOutputs pins the Go formulas of the expected outputs to the
// hand-written .out files: the formulas compute what a generated program
// must print, the files say what the checked-in programs print.
func TestExpectedOutputs(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: root}
	templates, err := e.serveTemplates()
	if err != nil {
		t.Fatal(err)
	}
	for _, tmpl := range templates {
		if got := tmpl.formula(templateK); got != tmpl.out {
			t.Errorf("serve/%s: formula gives %q at K=%d, %s.out says %q", tmpl.name, got, templateK, tmpl.name, tmpl.out)
		}
		if tmpl.formula(templateK+1) == tmpl.out {
			t.Errorf("serve/%s: the formula does not depend on K", tmpl.name)
		}
	}
	fanin, err := e.readProgram("fanin.pf")
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.readProgram("fanin.out")
	if err != nil {
		t.Fatal(err)
	}
	p, err := pfGenerate(fanin, pfRounds, [producers]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.src != fanin || p.want != want {
		t.Errorf("fanin.pf generated with its own constants differs from the file, or expects %q where fanin.out says %q", p.want, want)
	}
}

// TestSmoke runs all four workloads and their traced ladders at tiny counts
// and checks that the names they emit are exactly the catalogue's, that
// nothing failed, that the span files exist and that no child is left.
func TestSmoke(t *testing.T) {
	procs := newProcSet()
	defer procs.killAll()
	e, err := newEnv(procs)
	if err != nil {
		t.Fatal(err)
	}
	e.seed, e.seconds, e.scale = 7, 0.1, 0.01
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			e.workload, e.trace = w.Name, trace
			res, err := runWorkload(e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d failed %d: %v", w.Name, trace, res.Attempted, res.Failed, res.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("%s trace=%v: %s is declared but was not emitted", w.Name, trace, d.Name)
				}
			}
			for name, m := range res.Metrics {
				if _, ok := findMetric(defs, name); !ok {
					t.Errorf("%s trace=%v: %s was emitted but is not declared", w.Name, trace, name)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", w.Name, name, m.Value)
				}
			}
			var line struct {
				Correct   bool                       `json:"correct"`
				Attempted int64                      `json:"attempted"`
				Failed    int64                      `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil || !line.Correct || len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: contract line %s: %v", w.Name, trace, contractLine(res), err)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
		}
		if left := procs.leftovers(); len(left) > 0 {
			t.Fatalf("%s left child process groups %v", w.Name, left)
		}
	}
}

// TestCompare checks the verdicts of -compare on a pair inside and a pair
// outside the bounds.
func TestCompare(t *testing.T) {
	write := func(name string, opsPerS float64) string {
		rep := report{Results: []*result{{Workload: "wire_fanin", Attempted: 1, Metrics: map[string]sample{
			"ops_per_s": {Unit: "1/s", Value: opsPerS, N: 5},
		}}}}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound, _ := findMetric(endToEnd, "ops_per_s")
	base := write("a.json", 1000)
	for _, c := range []struct {
		second float64
		ok     bool
	}{{1000 * (1 - bound.Bound/2), true}, {2000, true}, {1000 * (1 - 2*bound.Bound), false}} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, write("b.json", c.second))
		if err != nil || ok != c.ok {
			t.Errorf("second median %v: ok=%v err=%v, want ok=%v\n%s", c.second, ok, err, c.ok, out.String())
		}
	}
}
