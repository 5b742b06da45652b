// Command pisces is the PISCES 2 configuration and execution environment
// (paper, Sections 9 and 11).  It builds or loads a configuration (the
// mapping of the virtual machine onto the simulated FLEX/32), boots the
// virtual machine with a set of built-in demonstration tasktypes, and then
// enters the menu-driven execution environment where tasks can be initiated,
// killed, sent messages, and inspected.
//
// Usage:
//
//	pisces [-config file] [machine] [-trace events] [-save file] [-show] [-menu]
//	       [-script file]
//	pisces run [machine] [-main T] [-accept-timeout d] [-trace events] [observe]
//	       [-repeat n] [-sim] [-seed N] [-nodes N [ha]] <program.pf>
//	pisces serve -node K -peers addr0,addr1,... [machine] [-main T]
//	       [-accept-timeout d] [observe] [-trace-collect] [-debug-addr a]
//	       [-connect-timeout d] [ha] <program.pf>
//	pisces serve [-addr host:port] [machine] [-accept-timeout d] [-max-programs n]
//	       [-queue-depth n] [-cache-bytes n] [-limit-heap-bytes n] [-limit-tasks n]
//	       [-limit-wallclock d] [-limit-output-bytes n] [-tenant-metrics]
//	       [-drain-timeout d] [-history-file f] [-log-json]
//	pisces loadgen -addr host:port [-tenants n] [-duration d] [-program f]
//	pisces blackbox [-last N] <dump> [dump ...]
//
// where each flag group means the same on every verb that takes it:
//
//	machine  [-clusters n] [-slots k] [-forces "7,8,9"]
//	observe  [-stats] [-trace-out file] [-blackbox-out dir]
//	ha       [-ha] [-heartbeat-interval d] [-checkpoint-interval d]
//
// The run form interprets a Pisces Fortran program directly on the in-memory
// virtual machine (paper, Section 10, without the Fortran compiler leg).
// With -nodes N the clusters are partitioned across N OS processes (forked
// automatically) exchanging wire frames over loopback TCP; serve -peers runs
// one such node process by hand, e.g. on separate machines.  With -sim too,
// the same N nodes run in this process on the simulator, joined by an
// in-memory network whose writes land after seeded delays, so a seed replays
// the whole mesh run byte for byte.  Without -peers,
// serve is the multi-tenant daemon: programs are POSTed to /programs over
// HTTP and run as isolated quota-bounded sessions sharing one compile cache;
// loadgen drives such a daemon and reports throughput and latency.
//
// Examples:
//
//	pisces -clusters 4 -slots 4 -show            # show the configuration and exit
//	pisces -config section9 -script run.txt      # run a scripted session
//	pisces -clusters 2 -slots 2                  # interactive session
//	pisces run examples/sumsq.pf                 # interpret a .pf program
//	pisces run -forces 7,8 -stats examples/sumsq.pf
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	pisces "repro"
	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/obs"
)

// verbs are the subcommands; any other command line configures and boots a
// VM for the menu-driven execution environment.
var verbs = map[string]func(args []string, out io.Writer) error{
	"run":      runInterpreted,
	"serve":    runServeVerb,
	"loadgen":  runLoadgen,
	"blackbox": runBlackbox,
}

func main() {
	cmd, args := runConfigure, os.Args[1:]
	if len(args) > 0 && verbs[args[0]] != nil {
		cmd, args = verbs[args[0]], args[1:]
	}
	if err := cmd(args, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pisces: %v\n", err)
		os.Exit(1)
	}
}

// runConfigure implements "pisces [flags]": build or load a configuration,
// then show or save it, or boot the VM and run the execution environment.
func runConfigure(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pisces", flag.ContinueOnError)
	configPath := fs.String("config", "", "configuration file to load, or the name \"section9\"")
	mach, prog := meshMachine, programFlags{}
	mach.bind(fs)
	prog.bind(fs, "trace")
	save := fs.String("save", "", "save the configuration to this file and exit")
	show := fs.Bool("show", false, "print the configuration summary and exit")
	script := fs.String("script", "", "read execution-environment commands from this file instead of stdin")
	menu := fs.Bool("menu", false, "build the configuration interactively through the configuration-environment menus")
	if help, err := parseFlags(fs, args, out); help || err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unknown verb %q (want run, serve, loadgen or blackbox, or flags only)", fs.Arg(0))
	}
	var cfg *pisces.Configuration
	var err error
	if *menu {
		builder := config.NewBuilder(pisces.FlexDefaultConfig(), os.Stdin, out)
		cfg, err = builder.Build("menu")
	} else {
		cfg, err = buildConfiguration(*configPath, mach, prog.trace)
	}
	if err != nil {
		return err
	}

	if *show {
		fmt.Fprint(out, cfg.String())
		return nil
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err == nil {
			err = firstError(cfg.Save(f), f.Close())
		}
		if err == nil {
			fmt.Fprintf(out, "configuration saved to %s\n", *save)
		}
		return err
	}

	// Trace lines switched on from option 9 display on the terminal (Section
	// 12); tasks emit them concurrently with the menu's own output, so all
	// three go through one serialised writer.  Metrics are on, so the run
	// counts the activity DUMP SYSTEM STATE (option 7) reports.
	term := &syncWriter{w: out}
	reg := pisces.NewObsRegistry()
	reg.Enable(pisces.ObsMetrics)
	vm, err := pisces.NewVM(cfg, pisces.Options{
		UserOutput: term,
		TraceSinks: []pisces.TraceSink{pisces.WriterTraceSink{W: term}},
		Metrics:    reg,
	})
	if err != nil {
		return err
	}
	defer vm.Shutdown()
	registerDemoTasks(vm)

	env := pisces.NewEnvironment(vm, term)
	fmt.Fprint(out, cfg.String())
	fmt.Fprint(out, pisces.ExecMenu())

	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			return err
		}
		defer f.Close()
		return env.Repl(f, false)
	}
	return env.Repl(os.Stdin, true)
}

// runFlags is the command line of "pisces run".
type runFlags struct {
	fs            *flag.FlagSet
	mach          machineFlags
	prog          programFlags
	seen          observeFlags
	ha            haFlags // fault-tolerant mesh knobs; -nodes runs only
	repeat, nodes int
	sim           bool
	seed          int64
}

func newRunFlags() *runFlags {
	r := &runFlags{fs: flag.NewFlagSet("pisces run", flag.ContinueOnError), mach: meshMachine, prog: meshProgram}
	fs := r.fs
	r.mach.bind(fs)
	r.prog.bind(fs, "main", "accept-timeout", "trace")
	r.seen.bind(fs)
	r.ha.bind(fs)
	fs.IntVar(&r.repeat, "repeat", 1, "run the program this many times on the same VM (compiled once)")
	fs.BoolVar(&r.sim, "sim", false,
		"run on the deterministic simulation scheduler: one task at a time, seeded interleaving, virtual clock")
	fs.Int64Var(&r.seed, "seed", 0, "PRNG seed for -sim; the same seed reproduces the run exactly")
	fs.IntVar(&r.nodes, "nodes", 1,
		"run distributed: partition the clusters across this many OS processes (forked automatically) over loopback TCP; with -sim, across this many nodes in this process, joined by an in-memory network whose writes land after seeded delays and retransmissions")
	return r
}

// follower is what a follower forked by -nodes is told: every flag of the
// run's groups that the command line set, so it cannot miss one node 0 was
// given.
func (r *runFlags) follower() []string {
	return slices.Concat(r.mach.forward(r.fs), r.prog.forward(r.fs), r.seen.forward(r.fs), r.ha.forward(r.fs))
}

// runInterpreted implements "pisces run [flags] <program.pf>": boot a VM and
// interpret the Pisces Fortran program on it.  Under -sim, a deadlocked
// schedule surfaces as an error naming the seed instead of a panic.
func runInterpreted(args []string, out io.Writer) (err error) {
	r := newRunFlags()
	if help, err := parseFlags(r.fs, args, out); help || err != nil {
		return err
	}
	if r.repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1")
	}
	if r.fs.NArg() != 1 {
		return fmt.Errorf("usage: pisces run [flags] <program.pf>")
	}
	if r.nodes < 1 {
		return fmt.Errorf("-nodes must be at least 1")
	}
	if err := firstError(r.prog.check(), r.ha.check()); err != nil {
		return err
	}
	if r.seed != 0 && !r.sim {
		return fmt.Errorf("-seed only applies with -sim")
	}
	cfg, err := buildConfiguration("", r.mach, r.prog.trace)
	if err != nil {
		return err
	}
	switch have := len(cfg.ClusterNumbers()); {
	case r.nodes > max(have, 1): // no clusters at all is the configuration's to refuse
		return fmt.Errorf("-nodes %d needs at least that many clusters (have %d)", r.nodes, have)
	case r.nodes == 1 && r.ha.enabled:
		return fmt.Errorf("-ha requires -nodes (fault tolerance spans nodes)")
	case r.nodes > 1 && !r.sim:
		// Real processes and real sockets, so the single-process-only
		// conveniences are refused rather than silently ignored.
		switch {
		case r.repeat != 1:
			return fmt.Errorf("-nodes does not support -repeat")
		case r.prog.trace != "":
			return fmt.Errorf("-nodes does not support -trace (trace events are per node)")
		}
		m := meshNode{opts: node.Options{Config: cfg, ConnectTimeout: 30 * time.Second}, prog: r.prog, observe: r.seen, ha: r.ha}
		return runDistributed(r.nodes, m, r.follower(), r.fs.Arg(0), out)
	}
	src, err := os.ReadFile(r.fs.Arg(0))
	if err != nil {
		return err
	}
	reg := r.seen.registry(false, false)
	// The flight recorder is always on: Record is a few atomics, and a dump
	// only reaches disk when -blackbox-out names a directory and the run
	// fails.  Under -sim the recorder inherits the virtual clock, so dumps
	// are byte-stable per seed.
	rec := obs.NewRecorder(0, 0, 0)
	opts := pisces.Options{
		UserOutput:     out,
		AcceptTimeout:  r.prog.acceptTimeout,
		Metrics:        reg,
		FlightRecorder: rec,
		FailureSink:    func(reason string) { dumpRecorder(r.seen.blackboxOut, rec, out, reason) },
	}
	defer func() {
		// A deadlocked -sim schedule panics out of the program's run: dump the
		// recorder's view of the stuck run and turn the panic into an error.
		if p := recover(); p != nil {
			d, ok := p.(*pisces.SimDeadlock)
			if !ok {
				panic(p)
			}
			dumpRecorder(r.seen.blackboxOut, rec, out, "sim deadlock")
			err = fmt.Errorf("deterministic run stuck: %v (replay with -sim -seed %d)", d, d.Seed)
		}
	}()
	var s *pisces.SimScheduler
	if r.sim {
		s = pisces.NewSimScheduler(r.seed)
		opts.Backend = s
	}
	if r.prog.trace != "" {
		// Enabled trace kinds display on the user's terminal (Section 12),
		// concurrently with terminal output, so both go through one
		// serialised writer.
		sw := &syncWriter{w: out}
		opts.UserOutput = sw
		opts.TraceSinks = []pisces.TraceSink{pisces.WriterTraceSink{W: sw}}
	}
	// -nodes N -sim runs the node runtime in this process: N nodes on the
	// simulator, joined by its seeded fault network.
	var run func(*pisces.InterpretedProgram) error
	interp := pisces.InterpretOptions{Main: r.prog.main}
	if r.nodes > 1 {
		// The nodes share the registry, so -stats, -trace and the recorder
		// cover the mesh.
		reg.AttachRecorder(rec)
		reg.AddTraceSink(opts.TraceSinks...)
		mesh, err := node.NewFaultMesh(cfg, s, r.nodes, func(int) node.Options {
			o := node.Options{Out: opts.UserOutput, Log: os.Stderr, AcceptTimeout: opts.AcceptTimeout, Metrics: reg, BlackboxDir: r.seen.blackboxOut}
			r.ha.apply(&o)
			return o
		})
		if err != nil {
			return err
		}
		defer mesh.Shutdown()
		run = func(p *pisces.InterpretedProgram) error { return mesh.Run(p, interp) }
	} else {
		vm, err := pisces.NewVM(cfg, opts)
		if err != nil {
			return err
		}
		defer vm.Shutdown()
		run = func(p *pisces.InterpretedProgram) error { return p.Run(vm, interp) }
	}
	// Compile once through an explicit per-invocation cache handle — the CLI
	// never benefits from process-wide memoisation (each invocation is a new
	// process) and the -repeat loop reuses the compiled program directly, so
	// nothing this command compiles can leak into any shared cache.  The
	// activity counters accumulate across runs.
	prog, err := pisces.NewCompileCache(0).Compile(string(src))
	if err != nil {
		return err
	}
	for i := 0; i < r.repeat && err == nil; i++ {
		err = run(prog)
	}
	if r.seen.stats {
		snap := reg.Snapshot()
		snap.Merge(prog.Snapshot())
		printMetricsTables(out, snap, "runtime metrics")
	}
	return r.seen.writeTrace(reg.WriteChromeTrace, err)
}

// dumpRecorder writes a flight-recorder dump into dir (when set), reporting
// the path or the failure on out.  Safe to call from VM-internal goroutines.
func dumpRecorder(dir string, rec *obs.Recorder, out io.Writer, reason string) {
	if dir == "" {
		return
	}
	if path, err := obs.WriteDump(dir, rec); err != nil {
		fmt.Fprintf(out, "pisces: blackbox dump (%s) failed: %v\n", reason, err)
	} else {
		fmt.Fprintf(out, "pisces: blackbox dump (%s): %s\n", reason, path)
	}
}

// syncWriter serialises the writers that share the terminal — the trace
// sink, the user controller, the menu — onto one underlying writer.  The
// registry already hands the sink one trace line at a time; what it cannot
// know is that UserOutput is the same stream.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// buildConfiguration loads the configuration at configPath (or the Section 9
// example), else builds the one the machine flags describe, and switches on
// the trace events.
func buildConfiguration(configPath string, mach machineFlags, traceEvents string) (cfg *pisces.Configuration, err error) {
	switch configPath {
	case "section9":
		cfg = pisces.Section9Configuration()
	case "":
		cfg, err = mach.configuration()
	default:
		var f *os.File
		if f, err = os.Open(configPath); err == nil {
			defer f.Close()
			cfg, err = pisces.LoadConfiguration(f)
		}
	}
	if err != nil {
		return nil, err
	}
	if traceEvents != "" {
		for _, ev := range strings.Split(traceEvents, ",") {
			cfg.TraceEvents = append(cfg.TraceEvents, strings.ToUpper(strings.TrimSpace(ev)))
		}
	}
	return cfg, nil
}

// registerDemoTasks registers a few tasktypes so interactive sessions have
// something to initiate: a greeter, a worker that reports to its parent, and
// a force-based summation.
func registerDemoTasks(vm *pisces.VM) {
	vm.Register("hello", func(t *pisces.Task) {
		t.Printf("hello from task %s in cluster %d\n", t.ID(), t.Cluster())
	})
	vm.Register("spawner", func(t *pisces.Task) {
		for i := 0; i < 3; i++ {
			if err := t.Initiate(pisces.Other(), "hello"); err != nil {
				t.Printf("spawner: %v\n", err)
				if err := t.Initiate(pisces.Same(), "hello"); err != nil {
					t.Printf("spawner: %v\n", err)
				}
			}
		}
	})
	vm.Register("force-sum", func(t *pisces.Task) {
		n := int64(100000)
		if len(t.Args()) > 0 {
			if v, err := pisces.AsInt(t.Arg(0)); err == nil {
				n = v
			}
		}
		common, err := t.NewSharedCommon("sum", 1, 0)
		if err != nil {
			t.Printf("force-sum: %v\n", err)
			return
		}
		lock, err := t.NewLock("sumlk")
		if err != nil {
			t.Printf("force-sum: %v\n", err)
			return
		}
		err = t.ForceSplit(func(m *pisces.ForceMember) {
			local := 0.0
			m.Presched(1, int(n), 1, func(i int) { local += float64(i) })
			m.Critical(lock, func() { common.SetReal(0, common.Real(0)+local) })
		})
		if err != nil {
			t.Printf("force-sum: %v\n", err)
			return
		}
		t.Printf("force-sum: sum of 1..%d = %.0f\n", n, common.Real(0))
	})
}
