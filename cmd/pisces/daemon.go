package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Serving mode.
//
// "pisces serve" without -peers is the multi-tenant daemon: one long-running
// process that accepts Pisces Fortran programs over HTTP, runs each as an
// isolated session (own VM, own heap shards, own resource quota) on a shared
// worker pool, compiles through one cache shared across tenants, and exposes
// the daemon-wide metric view — its own serve.* series plus every session's
// registry under a tenant.<id>. prefix — on the same listener.  With -peers
// it remains one node of a distributed mesh run (see serve.go).

// meshMode reports whether the serve args select mesh-node mode (-peers
// present): the mesh form always requires the peer list, so its presence is
// the dispatch signal between the two serve personalities.
func meshMode(args []string) bool {
	for _, a := range args {
		switch {
		case a == "-peers" || a == "--peers":
			return true
		case len(a) > 7 && (a[:7] == "-peers=" || (len(a) > 8 && a[:8] == "--peers=")):
			return true
		}
	}
	return false
}

// parseForces parses the comma-separated secondary-PE list of -forces.
func parseForces(s string) ([]int, error) {
	var pes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -forces value %q", part)
		}
		pes = append(pes, n)
	}
	return pes, nil
}

// runDaemon implements "pisces serve [flags]" (no -peers): the serving
// daemon.  It prints the bound address to out, serves until SIGTERM/SIGINT,
// then drains: admission stops, queued and running sessions finish.
func runDaemon(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pisces serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8307", "HTTP listen address for program submission and observability")
	clusters := fs.Int("clusters", 2, "clusters per session VM")
	slots := fs.Int("slots", 8, "user-task slots per cluster")
	forces := fs.String("forces", "7,8", "comma-separated secondary PEs for cluster 1 forces (empty = no forces)")
	maxPrograms := fs.Int("max-programs", 4, "sessions running concurrently (worker-pool size)")
	queueDepth := fs.Int("queue-depth", 64, "admission queue bound; submissions past it get HTTP 429")
	cacheBytes := fs.Int64("cache-bytes", 0, "compile cache weight bound in bytes shared by all tenants (0 = 16MiB)")
	limitHeap := fs.Int64("limit-heap-bytes", 0, "default per-session heap quota in bytes (0 = unlimited)")
	limitTasks := fs.Int64("limit-tasks", 0, "default per-session cap on initiated tasks (0 = unlimited)")
	limitWall := fs.Duration("limit-wallclock", 0, "default per-session wall-clock budget (0 = unlimited)")
	limitOutput := fs.Int64("limit-output-bytes", 0, "default per-session terminal output quota in bytes (0 = unlimited)")
	tenantMetrics := fs.Bool("tenant-metrics", false,
		"give every session its own metric registry, exposed on /metrics under a tenant.<id>. prefix")
	acceptTimeout := fs.Duration("accept-timeout", 30*time.Second,
		"system-provided timeout for ACCEPT statements without a DELAY clause")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"how long SIGTERM waits for queued and running sessions to finish")
	historyFile := fs.String("history-file", "",
		"append one JSON line per finished session (tenant, verdict, quota outcome, timings) to this file; an existing file rotates to .1, .2, ...")
	logJSON := fs.Bool("log-json", false,
		"write structured JSON log lines for session lifecycle events (submitted, finished, panic, limit) to stderr")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
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
		{"clusters", int64(*clusters)}, {"slots", int64(*slots)},
		{"max-programs", int64(*maxPrograms)}, {"queue-depth", int64(*queueDepth)}, {"cache-bytes", *cacheBytes},
		{"limit-heap-bytes", *limitHeap}, {"limit-tasks", *limitTasks},
		{"limit-wallclock", int64(*limitWall)}, {"limit-output-bytes", *limitOutput},
	} {
		if f.v < 0 {
			return fmt.Errorf("-%s must not be negative", f.name)
		}
	}
	cfg := serve.Config{
		Clusters:   *clusters,
		Slots:      *slots,
		MaxActive:  *maxPrograms,
		QueueDepth: *queueDepth,
		CacheBytes: *cacheBytes,
		DefaultLimits: serve.Limits{
			HeapBytes:   *limitHeap,
			MaxTasks:    *limitTasks,
			WallClock:   *limitWall,
			OutputBytes: *limitOutput,
		},
		TenantMetrics: *tenantMetrics,
		AcceptTimeout: *acceptTimeout,
	}
	if *forces != "" {
		pes, err := parseForces(*forces)
		if err != nil {
			return err
		}
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
