// Command bench is this repository's benchmark (see README.md beside it and
// BENCHMARK.json at the repository root).
//
//	bash bench/run.sh -workload <name|all> -seed N [-seconds S] [-trace 1] [-out file.json]
//	bash bench/run.sh -compare a.json b.json
//
// A run builds the real cmd/pisces binary, then for S seconds sets the
// workload up and runs a few fixed-count trials on each set-up, verifies
// every output, and prints each metric as the better quartile of its trials
// with min and max beside it.  The last line of standard output is one JSON
// object for the driver.  -trace 1 runs the workload's ladder instead and
// prints the per-layer table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// minSetUps is the least number of set-ups, each with its trials, behind a
// run's values.
const minSetUps = 3

// gomaxprocs is the GOMAXPROCS of the harness and of every child: one thread
// of Go code per process, each process on a processor of its own
// (affinity.go).
const gomaxprocs = 1

// errBroken ends the trials of one set-up early, after a failure that has
// already been counted in the result: a fan-in that lost a message leaves its
// tasks parked and cannot be reused.
var errBroken = errors.New("set-up is broken")

// env is what a run of one workload works with.
type env struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64 // multiplies every operation count; 1 except in the smoke test
	trace    bool
	root     string // repository root
	outDir   string // bench/out: generated programs and span files
	pisces   string // the built cmd/pisces
	buildS   float64
	procs    *procSet
	spans    *spanLog
}

func (e *env) newResult() *result {
	return &result{Workload: e.workload, Seed: e.seed, Trace: e.trace, Metrics: map[string]sample{}}
}

// instance is one set-up of a workload: a mesh, a daemon, a warmed-up
// machine.  trial runs one fixed-count, verified trial and records it; it
// returns errBroken when the set-up cannot take another.
type instance struct {
	trial func() error
	close func() error
}

// measure sets the workload up again and again, up to perSetUp trials on
// each set-up, until the run's seconds are used and at least minSetUps were
// made.  Every set-up is timed into setup_s, so setup_s is taken over all of
// them, and the trial values run over set-ups too: a long-lived mesh or
// daemon settles for many seconds into one of several regimes (README.md,
// "Why every few trials get a fresh set-up"), and a run on a single set-up
// reports whichever regime it happened to land in.
func (e *env) measure(s series, perSetUp int, setUp func() (instance, error)) error {
	t0 := time.Now()
	for n := 0; n < minSetUps || time.Since(t0).Seconds() < e.seconds; n++ {
		e.procs.moveHome(n)
		s0 := time.Now()
		inst, err := setUp()
		if err != nil {
			return err
		}
		s.add("setup_s", time.Since(s0).Seconds())
		// Once the seconds are used a set-up ends after the trial it is in,
		// so a run overshoots by one trial, not by one set-up.
		for i := 0; i < perSetUp && err == nil && (i == 0 || n < minSetUps || time.Since(t0).Seconds() < e.seconds); i++ {
			err = inst.trial()
		}
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil && !errors.Is(err, errBroken) {
			return err
		}
	}
	return nil
}

// runWorkload runs one workload, traced or not.
func runWorkload(e *env) (*result, error) {
	type runner struct{ run, trace func(*env) (*result, error) }
	runners := map[string]runner{
		"wire_fanin": {
			func(e *env) (*result, error) { return runWire(e, wireFaninShape) },
			func(e *env) (*result, error) { return traceWire(e, wireFaninShape) }},
		"wire_bulk": {
			func(e *env) (*result, error) { return runWire(e, wireBulkShape) },
			func(e *env) (*result, error) { return traceWire(e, wireBulkShape) }},
		"pf_fanin":  {runPF, tracePF},
		"serve_mix": {runServe, traceServe},
	}
	r, ok := runners[e.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", e.workload)
	}
	if !e.trace {
		return r.run(e)
	}
	e.spans = &spanLog{workload: e.workload}
	root := e.spans.begin("trace "+e.workload, -1)
	res, err := r.trace(e)
	e.spans.end(root)
	if err != nil {
		return nil, err
	}
	// Every traced run prints every per-layer row: a layer that does no work
	// on this workload reads 0.
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.Metrics[d.Name] = sample{Unit: d.Unit}
		}
	}
	if err := e.spans.writeChrome(filepath.Join(e.outDir, "trace-"+e.workload+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// newEnv prepares the output directory and builds cmd/pisces.
func newEnv(procs *procSet) (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	outDir := filepath.Join(root, "bench", "out")
	buildDir := filepath.Join(root, ".bench_build")
	for _, dir := range []string{outDir, buildDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	bin, buildS, err := buildPisces(root, buildDir)
	if err != nil {
		return nil, err
	}
	// After the build, which may use every processor: the harness and what
	// it starts from here on stay on the home processor.
	runtime.GOMAXPROCS(gomaxprocs)
	procs.moveHome(0)
	return &env{scale: 1, root: root, outDir: outDir, pisces: bin, buildS: buildS, procs: procs}, nil
}

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	workload := flag.String("workload", "all", "workload to run: wire_fanin, wire_bulk, pf_fanin, serve_mix, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs (payload values, serve mix order, unique-source constants)")
	seconds := flag.Float64("seconds", 30, "how long one run keeps setting up and running its fixed-count trials")
	trace := flag.Int("trace", 0, "1 runs the workload's ladder and prints the per-layer table instead of the end-to-end metrics")
	out := flag.String("out", "", "also write the results as JSON to this file (the input of -compare)")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}

	procs := newProcSet()
	procs.killOnSignal()
	// Children die with the harness on every path out of here, a panic
	// included; a child still registered after a clean run fails it.
	defer procs.killAll()

	e, err := newEnv(procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	e.seed, e.seconds, e.trace = *seed, *seconds, *trace != 0

	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	rep := report{}
	var last *result
	for _, name := range names {
		e.workload = name
		res, err := runWorkload(e)
		if err == nil && len(procs.leftovers()) > 0 {
			err = fmt.Errorf("child process groups %v are still registered after the run", procs.leftovers())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		rep.Meta = readMeta(e.buildS)
		rep.Results = append(rep.Results, res)
		printTable(os.Stdout, res, rep.Meta)
		last = res
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The driver runs one workload at a time and reads this line.
	fmt.Println(contractLine(last))
	return 0
}
