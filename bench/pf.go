package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pfc"
	"repro/internal/pfi"
)

// The constants of programs/fanin.pf as checked in: two producers, 250
// rounds each of a 128-message window.
const (
	pfRounds = 250
	pfWindow = 128
	pfMsgs   = producers * pfRounds * pfWindow
)

// pfProgram is one generated instance of programs/fanin.pf.
type pfProgram struct {
	src  string
	msgs int
	want string // the program's whole standard output
}

// pfExpected is what fanin.pf prints for the given message count and PROD
// arguments: MAIN sums argument 8 of every DATUM, and each producer sends
// half the messages.  REAL prints in the interpreter's list-directed format,
// Go's shortest 'g'.
func pfExpected(msgs int, x [producers]int) string {
	total := 0.0
	for _, v := range x {
		total += float64(msgs/producers) * float64(v)
	}
	return fmt.Sprintf("GOT %d %s\n", msgs, strconv.FormatFloat(total, 'g', -1, 64))
}

// pfGenerate instantiates the fan-in template for rounds per producer and
// the seeded PROD arguments.
func pfGenerate(template string, rounds int, x [producers]int) (pfProgram, error) {
	msgs := producers * rounds * pfWindow
	src := template
	for _, sub := range [][2]string{
		{fmt.Sprintf("WANT = %d\n", pfMsgs), fmt.Sprintf("WANT = %d\n", msgs)},
		{fmt.Sprintf("WFL = %d\n", producers*pfRounds), fmt.Sprintf("WFL = %d\n", producers*rounds)},
		{fmt.Sprintf("DO 20 R = 1, %d\n", pfRounds), fmt.Sprintf("DO 20 R = 1, %d\n", rounds)},
		{"PROD(1.0)", fmt.Sprintf("PROD(%d.0)", x[0])},
		{"PROD(2.0)", fmt.Sprintf("PROD(%d.0)", x[1])},
	} {
		if !strings.Contains(src, sub[0]) {
			return pfProgram{}, fmt.Errorf("programs/fanin.pf no longer contains %q", sub[0])
		}
		src = strings.Replace(src, sub[0], sub[1], 1)
	}
	return pfProgram{src: src, msgs: msgs, want: pfExpected(msgs, x)}, nil
}

// pfArgs draws the seeded PROD arguments, small enough that the total prints
// without an exponent.
func pfArgs(rng *rand.Rand) [producers]int {
	return [producers]int{1 + rng.Intn(7), 1 + rng.Intn(7)}
}

func (e *env) readProgram(name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(e.root, "bench", "programs", name))
	return string(b), err
}

// pfJob runs one generated fan-in under pisces run -clusters 4 -nodes 2 and
// verifies it.  The error reports a failed job; the outcome is valid either
// way.
func (e *env) pfJob(p pfProgram, tag string) (runOutcome, error) {
	path := filepath.Join(e.outDir, "fanin-"+tag+".pf")
	if err := os.WriteFile(path, []byte(p.src), 0o644); err != nil {
		return runOutcome{}, err
	}
	out, err := e.procs.runToEnd(trialTimeout, e.pisces, "run", "-clusters", "4", "-nodes", "2", path)
	switch {
	case err != nil:
		return out, fmt.Errorf("pisces run: %v\n%s", err, out.stderr)
	case strings.Contains(out.stderr, "did not quiesce"), strings.Contains(out.stderr, "dropping"):
		return out, fmt.Errorf("pisces run: %s", out.stderr)
	case out.stdout != p.want:
		return out, fmt.Errorf("pisces run printed %q, want %q", out.stdout, p.want)
	}
	return out, nil
}

func (e *env) pfRounds() int { return max(int(pfRounds*e.scale), 1) }

// pfJobsPerSetUp is how many full jobs follow one set-up.
const pfJobsPerSetUp = 4

// runPF measures pf_fanin.  Every job is a process tree of its own, so there
// is nothing to keep between trials; set-up is what a user pays before a
// full job: writing the program and one job a tenth of the size, which also
// proves the binary and the mesh work.
func runPF(e *env) (*result, error) {
	template, err := e.readProgram("fanin.pf")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	r := e.newResult()
	s := series{}
	err = e.measure(s, pfJobsPerSetUp, func() (instance, error) {
		warm, err := pfGenerate(template, max(e.pfRounds()/10, 1), pfArgs(rng))
		if err != nil {
			return instance{}, err
		}
		if _, err := e.pfJob(warm, "warmup"); err != nil {
			return instance{}, fmt.Errorf("warm-up: %w", err)
		}
		return instance{
			trial: func() error {
				p, err := pfGenerate(template, e.pfRounds(), pfArgs(rng))
				if err != nil {
					return err
				}
				r.Attempted += int64(p.msgs)
				out, err := e.pfJob(p, "trial")
				if err != nil {
					r.fail(int64(p.msgs), "%v", err)
					return nil
				}
				s.add("ops_per_s", float64(p.msgs)/out.wall.Seconds())
				s.add("cpu_us_per_op", float64(out.cpu)/float64(time.Microsecond)/float64(p.msgs))
				s.add("peak_rss_mb", float64(out.peakRSSKB)/1024)
				return nil
			},
			close: func() error { return nil },
		}, nil
	})
	if err != nil {
		return nil, err
	}
	s.intoEndToEnd(r)
	return r, nil
}

// runInVM compiles src and runs it once on a fresh VM of the shape pisces
// run -clusters 4 boots, in the harness process.  It verifies the output and
// returns the run's wall time and how many statements it interpreted.
func (e *env) runInVM(parent int, src, want string) (time.Duration, int64, error) {
	var out lockedBuffer
	vm, err := core.NewVM(config.Simple(4, 4), core.Options{
		UserOutput:     &out,
		AcceptTimeout:  30 * time.Second,
		FlightRecorder: obs.NewRecorder(0, 0, 0),
	})
	if err != nil {
		return 0, 0, err
	}
	defer vm.Shutdown()
	prog, err := pfi.CompileUncached(src)
	if err != nil {
		return 0, 0, err
	}
	sp := e.spans.begin("Program.Run", parent)
	t0 := time.Now()
	err = prog.Run(vm, pfi.Options{})
	wall := time.Since(t0)
	e.spans.end(sp)
	if err != nil || out.String() != want {
		return 0, 0, fmt.Errorf("Program.Run: %v, printed %q, want %q", err, out.String(), want)
	}
	return wall, prog.Counters().Get("statements"), nil
}

// compileProbes prices the front end on the given sources: pfc.Parse alone,
// the whole uncached compile, and a compile-cache hit.
func (e *env) compileProbes(s series, parent int, sources []string) error {
	reps := max(int(200*e.scale), 2)
	n := reps * len(sources)
	var err error
	e.probe(s, parent, "pfc.parse.us_per_prog", time.Microsecond, n, func() {
		for i := 0; i < reps; i++ {
			for _, src := range sources {
				if _, perr := pfc.Parse(src); perr != nil {
					err = perr
				}
			}
		}
	})
	e.probe(s, parent, "pfi.compile.us_per_prog", time.Microsecond, n, func() {
		for i := 0; i < reps; i++ {
			for _, src := range sources {
				if _, cerr := pfi.CompileUncached(src); cerr != nil {
					err = cerr
				}
			}
		}
	})
	_, objects := allocDelta(func() {
		for _, src := range sources {
			_, _ = pfi.CompileUncached(src)
		}
	})
	s.add("pfi.compile.allocs_per_prog", objects/float64(len(sources)))
	cache := pfi.NewUnitCache(0)
	for _, src := range sources {
		if _, cerr := cache.Compile(src); cerr != nil {
			err = cerr
		}
	}
	e.probe(s, parent, "pfi.cache_hit.us_per_prog", time.Microsecond, n, func() {
		for i := 0; i < reps; i++ {
			for _, src := range sources {
				_, _ = cache.Compile(src)
			}
		}
	})
	return err
}

// tracePF is the traced run of pf_fanin.
func tracePF(e *env) (*result, error) {
	template, err := e.readProgram("fanin.pf")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	r := e.newResult()
	s := series{}
	const root = 0

	// The rung the workload measures: real processes.
	sp := e.spans.begin("pisces run -nodes 2 fanin.pf", root)
	msgs := 0
	for i := 0; i <= rungTrials; i++ {
		p, err := pfGenerate(template, e.pfRounds(), pfArgs(rng))
		if err != nil {
			return nil, err
		}
		tsp := e.spans.begin("job", sp)
		out, err := e.pfJob(p, "trace")
		e.spans.end(tsp)
		if err != nil {
			return nil, err
		}
		msgs = p.msgs
		r.Attempted += int64(p.msgs)
		if i > 0 {
			s.add("e2e.ns_per_op", float64(out.wall)/float64(p.msgs))
			s.add("e2e.round_p50_ms", float64(out.wall)/float64(time.Millisecond))
		}
	}
	e.spans.end(sp)

	sp = e.spans.begin("pisces run -nodes 2 empty.pf", root)
	for i := 0; i < probeReps; i++ {
		out, err := e.procs.runToEnd(trialTimeout, e.pisces, "run", "-clusters", "4", "-nodes", "2",
			filepath.Join(e.root, "bench", "programs", "empty.pf"))
		if err != nil || out.stdout != "UP\n" {
			return nil, fmt.Errorf("empty.pf: %v, printed %q\n%s", err, out.stdout, out.stderr)
		}
		s.add("node.procs.boot_ms", float64(out.wall)/float64(time.Millisecond))
	}
	e.spans.end(sp)

	// The same program in one process: the interpreter and core, no wire.
	sp = e.spans.begin("pfi.single", root)
	var stmtsPerMsg float64
	for i := 0; i <= rungTrials; i++ {
		p, err := pfGenerate(template, e.pfRounds(), pfArgs(rng))
		if err != nil {
			return nil, err
		}
		wall, stmts, err := e.runInVM(sp, p.src, p.want)
		if err != nil {
			return nil, fmt.Errorf("fanin.pf in one VM: %w", err)
		}
		if i > 0 {
			s.add("pfi.single.ns_per_msg", float64(wall)/float64(p.msgs))
		}
		// A count, so it must read the same on every trial.
		stmtsPerMsg = float64(stmts) / float64(p.msgs)
		s.add("pfi.stmts_per_msg", stmtsPerMsg)
	}
	e.spans.end(sp)

	// One interpreted statement, from a message-free loop.
	kernel, err := e.readProgram("kernel.pf")
	if err != nil {
		return nil, err
	}
	sp = e.spans.begin("pfi.exec", root)
	for i := 0; i < probeReps; i++ {
		wall, stmts, err := e.runInVM(sp, kernel, "KERNEL 20000100000\n")
		if err != nil {
			return nil, fmt.Errorf("kernel.pf: %w", err)
		}
		s.add("pfi.exec.ns_per_stmt", float64(wall)/float64(stmts))
	}
	e.spans.end(sp)

	// The message path without the interpreter: the Go fan-in of the same
	// shape, inside one VM and across the node wire.
	shape := pfShape.scaled(e.scale)
	if err := e.vmRungs(s, root, shape, rng); err != nil {
		return nil, err
	}
	wireNS, err := e.wireRung(s, root, shape, rng, false)
	if err != nil {
		return nil, err
	}
	e.recorderProbe(s, root)
	if err := e.compileProbes(s, root, []string{template}); err != nil {
		return nil, err
	}
	s.add("bench.build_s", e.buildS)
	s.intoLayers(r)

	e2eNS := r.value("e2e.ns_per_op")
	r.set("node.wire.added_ns_per_msg", wireNS-r.value("core.routed.ns_per_msg"))
	r.set("pf.wire.added_ns_per_msg", e2eNS-r.value("pfi.single.ns_per_msg"))
	// A message costs its interpreted statements, one trip along the Go
	// message path, what the wire adds to that trip, and its share of the
	// process tree's boot and drain.
	r.budget(e2eNS, map[string]float64{
		"pfi.exec.ns_per_stmt":       stmtsPerMsg,
		"core.routed.ns_per_msg":     1,
		"node.wire.added_ns_per_msg": 1,
		"node.procs.boot_ms":         1e6 / float64(msgs),
	})
	return r, nil
}
