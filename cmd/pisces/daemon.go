package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Serving mode.
//
// "pisces serve" without -peers is the multi-tenant daemon: one long-running
// process that accepts Pisces Fortran programs over HTTP, runs each as an
// isolated session (own VM, own heap shards, own resource quota) as one
// backend process, compiles through one cache shared across tenants, and exposes
// the daemon-wide metric view — its own serve.* series plus every session's
// registry under a tenant.<id>. prefix — on the same listener.  With -peers
// it remains one node of a distributed mesh run (see serve.go).

// runDaemon implements "pisces serve [flags]" (no -peers): the serving
// daemon.  It prints the bound address to out, serves until SIGTERM/SIGINT,
// then drains: admission stops, queued and running sessions finish.
func runDaemon(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pisces serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8307", "HTTP listen address for program submission and observability")
	// The session geometry, which the serve_mix benchmark measures.
	mach, prog := machineFlags{clusters: 2, slots: 8, forces: "7,8"}, meshProgram
	mach.bind(fs)
	prog.bind(fs, "accept-timeout")
	var cfg serve.Config
	lim := &cfg.DefaultLimits
	fs.IntVar(&cfg.MaxActive, "max-programs", 4, "sessions running concurrently, each one backend process; more wait in the queue")
	fs.IntVar(&cfg.QueueDepth, "queue-depth", 64, "admission queue bound; submissions past it get HTTP 429")
	fs.Int64Var(&cfg.CacheBytes, "cache-bytes", 0, "compile cache weight bound in bytes shared by all tenants (0 = 16MiB)")
	fs.Int64Var(&lim.HeapBytes, "limit-heap-bytes", 0, "default per-session heap quota in bytes (0 = unlimited)")
	fs.Int64Var(&lim.MaxTasks, "limit-tasks", 0, "default per-session cap on initiated tasks (0 = unlimited)")
	fs.DurationVar(&lim.WallClock, "limit-wallclock", 0, "default per-session wall-clock budget (0 = unlimited)")
	fs.Int64Var(&lim.OutputBytes, "limit-output-bytes", 0, "default per-session terminal output quota in bytes (0 = unlimited)")
	fs.BoolVar(&cfg.TenantMetrics, "tenant-metrics", false,
		"give every session its own metric registry, exposed on /metrics under a tenant.<id>. prefix")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"how long SIGTERM waits for queued and running sessions to finish")
	historyFile := fs.String("history-file", "",
		"append one JSON line per finished session (tenant, verdict, quota outcome, timings) to this file; an existing file rotates to .1, .2, ...")
	logJSON := fs.Bool("log-json", false,
		"write structured JSON log lines for session lifecycle events (submitted, finished, panic, limit) to stderr")
	if help, err := parseFlags(fs, args, out); help || err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: pisces serve [flags]  (daemon mode takes no program file; POST them to /programs)")
	}
	// 0 selects a flag's documented default; a negative size or quota has no
	// meaning and is refused rather than silently replaced by that default
	// (or, for a limit, read as "unlimited").
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"max-programs", int64(cfg.MaxActive)}, {"queue-depth", int64(cfg.QueueDepth)}, {"cache-bytes", cfg.CacheBytes},
		{"limit-heap-bytes", lim.HeapBytes}, {"limit-tasks", lim.MaxTasks},
		{"limit-wallclock", int64(lim.WallClock)}, {"limit-output-bytes", lim.OutputBytes},
	} {
		if f.v < 0 {
			return fmt.Errorf("-%s must not be negative", f.name)
		}
	}
	pes, err := mach.parseForces()
	if err = firstError(err, prog.check()); err != nil {
		return err
	}
	cfg.Clusters, cfg.Slots, cfg.AcceptTimeout = mach.clusters, mach.slots, prog.acceptTimeout
	if len(pes) > 0 {
		cfg.ForceCluster, cfg.ForcePEs = 1, pes
	}
	if *historyFile != "" {
		f, err := os.Create(obs.UniquePath(*historyFile))
		if err != nil {
			return fmt.Errorf("-history-file: %w", err)
		}
		defer f.Close()
		cfg.History = f
	}
	if *logJSON {
		cfg.Log = os.Stderr
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	defer ln.Close()

	m := serve.New(cfg)
	// One listener serves both personalities: the program API and the
	// debug/observability surface, whose /metrics renders the daemon-wide
	// snapshot (manager + shared cache + per-tenant series).
	mux := http.NewServeMux()
	api := m.Handler()
	mux.Handle("/programs", api)
	mux.Handle("/programs/", api)
	mux.Handle("/", obs.DebugHandlerSource(m.Snapshot))

	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(out, "pisces: serving on http://%s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "pisces: %v: draining (%d sessions retained)\n", s, len(m.Sessions()))
		drainErr := m.Drain(*drainTimeout)
		_ = srv.Close()
		if drainErr != nil {
			return drainErr
		}
		fmt.Fprintf(out, "pisces: drained, exiting\n")
		return nil
	case err := <-serveErr:
		return err
	}
}
