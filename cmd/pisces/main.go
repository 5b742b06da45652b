// Command pisces is the PISCES 2 configuration and execution environment
// (paper, Sections 9 and 11).  It builds or loads a configuration (the
// mapping of the virtual machine onto the simulated FLEX/32), boots the
// virtual machine with a set of built-in demonstration tasktypes, and then
// enters the menu-driven execution environment where tasks can be initiated,
// killed, sent messages, and inspected.
//
// Usage:
//
//	pisces [-config file] [-clusters n] [-slots k] [-forces "7,8,9"]
//	       [-trace events] [-save file] [-show] [-script file]
//	pisces run [-clusters n] [-slots k] [-forces "7,8,9"] [-main T]
//	       [-stats] [-sim [-seed N]] [-netfault] [-nodes N [-ha]] <program.pf>
//	pisces serve -node K -peers addr0,addr1,... [-clusters n] [-slots k]
//	       [-ha [-heartbeat-interval d] [-checkpoint-interval d]] <program.pf>
//	pisces serve [-addr host:port] [-max-programs n] [-queue-depth n]
//	       [-limit-heap-bytes n] [-limit-tasks n] [-limit-wallclock d]
//	       [-limit-output-bytes n] [-cache-bytes n] [-tenant-metrics]
//	pisces loadgen -addr host:port [-tenants n] [-duration d]
//	pisces blackbox [-last N] <dump> [dump ...]
//
// The run form interprets a Pisces Fortran program directly on the in-memory
// virtual machine (paper, Section 10, without the Fortran compiler leg).
// With -nodes N the clusters are partitioned across N OS processes (forked
// automatically) exchanging wire frames over loopback TCP; serve -peers runs
// one such node process by hand, e.g. on separate machines.  Without -peers,
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	pisces "repro"
	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "run" {
		if err := runInterpreted(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pisces: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		// Two personalities share the verb: with -peers this process is one
		// node of a distributed mesh run; without it, the multi-tenant
		// serving daemon.
		serveFn := runDaemon
		if meshMode(os.Args[2:]) {
			serveFn = runServe
		}
		if err := serveFn(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pisces: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "blackbox" {
		if err := runBlackbox(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pisces: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		if err := runLoadgen(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pisces: %v\n", err)
			os.Exit(1)
		}
		return
	}
	configPath := flag.String("config", "", "configuration file to load, or the name \"section9\"")
	clusters := flag.Int("clusters", 2, "number of clusters (when not loading a configuration)")
	slots := flag.Int("slots", 4, "user-task slots per cluster")
	forces := flag.String("forces", "", "comma-separated secondary PEs for cluster 1 forces")
	traceEvents := flag.String("trace", "", "comma-separated trace events to enable (e.g. MSG-SEND,FORCE-SPLIT)")
	save := flag.String("save", "", "save the configuration to this file and exit")
	show := flag.Bool("show", false, "print the configuration summary and exit")
	script := flag.String("script", "", "read execution-environment commands from this file instead of stdin")
	menu := flag.Bool("menu", false, "build the configuration interactively through the configuration-environment menus")
	flag.Parse()

	if err := run(*configPath, *clusters, *slots, *forces, *traceEvents, *save, *show, *menu, *script); err != nil {
		fmt.Fprintf(os.Stderr, "pisces: %v\n", err)
		os.Exit(1)
	}
}

func run(configPath string, clusters, slots int, forces, traceEvents, save string, show, menu bool, script string) error {
	var cfg *pisces.Configuration
	var err error
	if menu {
		builder := config.NewBuilder(pisces.FlexDefaultConfig(), os.Stdin, os.Stdout)
		cfg, err = builder.Build("menu")
	} else {
		cfg, err = buildConfiguration(configPath, clusters, slots, forces, traceEvents)
	}
	if err != nil {
		return err
	}

	if show {
		fmt.Print(cfg.String())
		return nil
	}
	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := cfg.Save(f); err != nil {
			return err
		}
		fmt.Printf("configuration saved to %s\n", save)
		return nil
	}

	// Trace lines switched on from option 9 display on the terminal (Section
	// 12); tasks emit them concurrently with the menu's own output, so all
	// three go through one serialised writer.
	term := &syncWriter{w: os.Stdout}
	vm, err := pisces.NewVM(cfg, pisces.Options{
		UserOutput: term,
		TraceSinks: []pisces.TraceSink{pisces.WriterTraceSink{W: term}},
	})
	if err != nil {
		return err
	}
	defer vm.Shutdown()
	registerDemoTasks(vm)

	env := pisces.NewEnvironment(vm, term)
	fmt.Print(cfg.String())
	fmt.Print(pisces.ExecMenu())

	if script != "" {
		f, err := os.Open(script)
		if err != nil {
			return err
		}
		defer f.Close()
		return env.Repl(f, false)
	}
	return env.Repl(os.Stdin, true)
}

// runInterpreted implements "pisces run [flags] <program.pf>": boot a VM and
// interpret the Pisces Fortran program on it.  Under -sim, a deadlocked
// schedule surfaces as an error naming the seed instead of a panic.
func runInterpreted(args []string, out io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if d, ok := r.(*pisces.SimDeadlock); ok {
				err = fmt.Errorf("deterministic run stuck: %v (replay with -sim -seed %d)", d, d.Seed)
				return
			}
			panic(r)
		}
	}()
	return runInterpretedInner(args, out)
}

func runInterpretedInner(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pisces run", flag.ContinueOnError)
	clusters := fs.Int("clusters", 2, "number of clusters")
	slots := fs.Int("slots", 4, "user-task slots per cluster")
	forces := fs.String("forces", "", "comma-separated secondary PEs for cluster 1 forces")
	traceEvents := fs.String("trace", "", "comma-separated trace events to enable")
	mainTT := fs.String("main", "", "entry tasktype (default MAIN, else the first tasktype)")
	showStats := fs.Bool("stats", false, "print one metric report after the run: counters (interpreter activity as pfi.*) and distributions")
	traceOut := fs.String("trace-out", "",
		"write runtime spans (task execution, cross-cluster send and delivery, wire frames) to this file as Chrome trace-event JSON; open in Perfetto or chrome://tracing")
	blackboxOut := fs.String("blackbox-out", "",
		"write a flight-recorder dump into this directory when the run fails (limit violation, sim deadlock)")
	repeat := fs.Int("repeat", 1, "run the program this many times on the same VM (compiled once)")
	simMode := fs.Bool("sim", false,
		"run on the deterministic simulation scheduler: one task at a time, seeded interleaving, virtual clock")
	seed := fs.Int64("seed", 0, "PRNG seed for -sim and -netfault; the same seed reproduces the run exactly")
	nodes := fs.Int("nodes", 1,
		"run distributed: partition the clusters across this many OS processes (forked automatically) over loopback TCP")
	netfault := fs.Bool("netfault", false,
		"run one VM per cluster in this process, joined by a network injecting deterministic seeded latency and retransmission faults on every cross-cluster message (combine with -sim for byte-reproducible network schedules)")
	acceptTimeout := fs.Duration("accept-timeout", 30*time.Second,
		"system-provided timeout for ACCEPT statements without a DELAY clause")
	ha := addHAFlags(fs) // fault-tolerant mesh knobs; -nodes runs only
	// The FlagSet's own printing is suppressed so parse errors surface exactly
	// once (through main's error path) and -h exits 0 with the usage text.
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return err
	}
	if *acceptTimeout <= 0 {
		return fmt.Errorf("-accept-timeout must be positive")
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: pisces run [flags] <program.pf>")
	}
	if *nodes < 1 {
		return fmt.Errorf("-nodes must be at least 1")
	}
	if err := ha.validate(); err != nil {
		return err
	}
	if *nodes > 1 {
		// Distributed mode is a different execution path: real processes and
		// real sockets, so the single-process-only conveniences are refused
		// rather than silently ignored.
		switch {
		case *simMode || *netfault:
			return fmt.Errorf("-nodes is incompatible with -sim and -netfault (they model the network in one process)")
		case *repeat != 1:
			return fmt.Errorf("-nodes does not support -repeat")
		case *traceEvents != "":
			return fmt.Errorf("-nodes does not support -trace (trace events are per node)")
		}
		return runDistributed(*nodes, *clusters, *slots, *forces, meshNode{
			opts:  node.Options{Main: *mainTT, AcceptTimeout: *acceptTimeout, ConnectTimeout: 30 * time.Second, BlackboxDir: *blackboxOut},
			stats: *showStats, traceOut: *traceOut,
		}, ha, fs.Arg(0), out)
	}
	if *ha.enabled {
		return fmt.Errorf("-ha requires -nodes (fault tolerance spans node processes)")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cfg, err := buildConfiguration("", *clusters, *slots, *forces, *traceEvents)
	if err != nil {
		return err
	}
	// The observability registry travels through the VM to every layer of the
	// message path; enabling is per-concern so -stats alone pays no span cost
	// and -trace-out alone pays no histogram cost.
	reg := obs.New()
	if *showStats {
		reg.Enable(obs.Metrics)
	}
	if *traceOut != "" {
		reg.Enable(obs.Spans)
	}
	// The flight recorder is always on: Record is a few atomics, and a dump
	// only reaches disk when -blackbox-out names a directory and the run
	// fails.  Under -sim the recorder inherits the virtual clock, so dumps
	// are byte-stable per seed.
	rec := obs.NewRecorder(0, 0, 0)
	opts := pisces.Options{
		UserOutput:     out,
		AcceptTimeout:  *acceptTimeout,
		Metrics:        reg,
		FlightRecorder: rec,
		FailureSink:    func(reason string) { dumpRecorder(*blackboxOut, rec, out, reason) },
	}
	defer func() {
		// A deadlocked -sim schedule panics out of prog.Run; capture the
		// recorder's view of the stuck run before the outer handler turns
		// the panic into an error.
		if r := recover(); r != nil {
			if _, ok := r.(*pisces.SimDeadlock); ok {
				dumpRecorder(*blackboxOut, rec, out, "sim deadlock")
			}
			panic(r)
		}
	}()
	if *simMode {
		opts.Backend = pisces.NewSimScheduler(*seed)
	} else if *seed != 0 && !*netfault {
		return fmt.Errorf("-seed only applies with -sim or -netfault")
	}
	if *traceEvents != "" {
		// Enabled trace kinds display on the user's terminal (Section 12),
		// concurrently with terminal output, so both go through one
		// serialised writer.
		sw := &syncWriter{w: out}
		opts.UserOutput = sw
		opts.TraceSinks = []pisces.TraceSink{pisces.WriterTraceSink{W: sw}}
	}
	// -netfault runs the node runtime's hosting shape in this process: one VM
	// per cluster, joined by the seeded fault network.
	var run func(*pisces.InterpretedProgram) error
	interp := pisces.InterpretOptions{Main: *mainTT}
	if *netfault {
		mesh, err := node.NewFaultMesh(cfg, *seed, node.DefaultFaultProfile(), func(int) pisces.Options { return opts })
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
	for i := 0; i < *repeat && err == nil; i++ {
		err = run(prog)
	}
	if *showStats {
		snap := reg.Snapshot()
		snap.Merge(prog.Snapshot())
		printMetricsTables(out, snap, "runtime metrics")
	}
	if *traceOut != "" {
		if werr := writeTraceFile(*traceOut, reg); werr != nil && err == nil {
			err = werr
		}
	}
	return err
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

// writeTraceFile dumps the registry's captured spans as Chrome trace-event
// JSON.  An existing file is never clobbered: the path rotates to path.1,
// path.2, ... (same policy as recorder dumps).
func writeTraceFile(path string, reg *obs.Registry) error {
	f, err := os.Create(obs.UniquePath(path))
	if err != nil {
		return err
	}
	if err := reg.WriteChromeTrace(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
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

func buildConfiguration(configPath string, clusters, slots int, forces, traceEvents string) (*pisces.Configuration, error) {
	var cfg *pisces.Configuration
	switch {
	case configPath == "section9":
		cfg = pisces.Section9Configuration()
	case configPath != "":
		f, err := os.Open(configPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		cfg, err = pisces.LoadConfiguration(f)
		if err != nil {
			return nil, err
		}
	default:
		cfg = pisces.SimpleConfiguration(clusters, slots)
		if forces != "" {
			var pes []int
			for _, s := range strings.Split(forces, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					return nil, fmt.Errorf("bad -forces value %q", s)
				}
				pes = append(pes, n)
			}
			cfg = cfg.WithForces(1, pes...)
		}
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
