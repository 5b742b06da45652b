package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	pisces "repro"
	"repro/internal/node"
	"repro/internal/obs"
)

// Flag groups.  A verb registers its flags a concept at a time — the
// machine, the program, what a run reports, the HA knobs — so a flag has one
// name, one help line, one check and one parser however many verbs take it.
// A verb passes its defaults in as the group's value; a group checks its
// values after parsing and forwards the ones the command line set to a
// follower forked by run -nodes.

// parseFlags parses args into fs.  The FlagSet's own printing is suppressed
// so a parse error surfaces exactly once, through main's error path; -h
// prints the usage on out and reports help, after which the verb returns.
func parseFlags(fs *flag.FlagSet, args []string, out io.Writer) (help bool, err error) {
	fs.SetOutput(io.Discard)
	if err = fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(out)
		fs.Usage()
		return true, nil
	}
	return false, err
}

// setFlags renders the flags of fs named in names that the command line
// set, as arguments for a forked follower.
func setFlags(fs *flag.FlagSet, names ...string) (args []string) {
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	return args
}

// firstError is the first of a verb's checks to fail.
func firstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// positive refuses a zero or negative wait rather than swapping in a
// default the help line does not name.
func positive(name string, d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("-%s must be positive", name)
	}
	return nil
}

// machineFlags maps the virtual machine onto the FLEX/32 (Sections 9 and
// 11): the clusters, the user-task slots of each, and the secondary PEs of
// cluster 1's forces.
type machineFlags struct {
	clusters, slots int
	forces          string
}

// meshMachine is the default geometry of the configuration environment, run
// and serve -peers; a follower forked by run -nodes relies on the last two
// agreeing.
var meshMachine = machineFlags{clusters: 2, slots: 4}

func (m *machineFlags) bind(fs *flag.FlagSet) {
	fs.IntVar(&m.clusters, "clusters", m.clusters, "number of clusters")
	fs.IntVar(&m.slots, "slots", m.slots, "user-task slots per cluster")
	fs.StringVar(&m.forces, "forces", m.forces, "comma-separated secondary PEs for cluster 1 forces (empty = no forces)")
}

// parseForces refuses a negative size, rather than reading it as a default,
// and returns the -forces list parsed.
func (m *machineFlags) parseForces() ([]int, error) {
	switch {
	case m.clusters < 0:
		return nil, errors.New("-clusters must not be negative")
	case m.slots < 0:
		return nil, errors.New("-slots must not be negative")
	case m.forces == "":
		return nil, nil
	}
	var pes []int
	for _, s := range strings.Split(m.forces, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad -forces value %q", s)
		}
		pes = append(pes, n)
	}
	return pes, nil
}

// configuration is the simple configuration the flags describe.
func (m *machineFlags) configuration() (*pisces.Configuration, error) {
	pes, err := m.parseForces()
	if err != nil {
		return nil, err
	}
	cfg := pisces.SimpleConfiguration(m.clusters, m.slots)
	if len(pes) > 0 {
		cfg = cfg.WithForces(1, pes...)
	}
	return cfg, nil
}

func (m *machineFlags) forward(fs *flag.FlagSet) []string {
	return setFlags(fs, "clusters", "slots", "forces")
}

// programFlags is how the program runs: its entry tasktype, how long an
// ACCEPT without a DELAY clause waits, and the Section 12 trace events shown
// on the terminal.
type programFlags struct {
	main          string
	acceptTimeout time.Duration
	trace         string
}

var meshProgram = programFlags{acceptTimeout: 30 * time.Second}

// bind registers the flags of the group that the verb names.
func (p *programFlags) bind(fs *flag.FlagSet, names ...string) {
	if slices.Contains(names, "main") {
		fs.StringVar(&p.main, "main", p.main, "entry tasktype (default MAIN, else the first tasktype)")
	}
	if slices.Contains(names, "accept-timeout") {
		fs.DurationVar(&p.acceptTimeout, "accept-timeout", p.acceptTimeout,
			"system-provided timeout for ACCEPT statements without a DELAY clause")
	}
	if slices.Contains(names, "trace") {
		fs.StringVar(&p.trace, "trace", p.trace, "comma-separated trace events to enable (e.g. MSG-SEND,FORCE-SPLIT)")
	}
}

func (p *programFlags) check() error { return positive("accept-timeout", p.acceptTimeout) }

// forward omits -trace, which run -nodes refuses.
func (p *programFlags) forward(fs *flag.FlagSet) []string {
	return setFlags(fs, "main", "accept-timeout")
}

// observeFlags is what a run reports: the metric report, the span trace and
// the flight-recorder dump.
type observeFlags struct {
	stats       bool
	traceOut    string
	blackboxOut string
}

func (o *observeFlags) bind(fs *flag.FlagSet) {
	fs.BoolVar(&o.stats, "stats", false,
		"print one metric report after the run: counters (interpreter activity as pfi.*) and distributions, summed over every node of a mesh (a follower's drain acks carry its snapshot to node 0)")
	fs.StringVar(&o.traceOut, "trace-out", "",
		"write runtime spans (task execution, cross-cluster send and delivery, wire frames, HA recovery) to this file as Chrome trace-event JSON; open in Perfetto or chrome://tracing")
	fs.StringVar(&o.blackboxOut, "blackbox-out", "",
		"write a flight-recorder dump into this directory on failure paths (limit violation, sim deadlock, HA rebalance, drain timeout)")
}

// registry is the run's observability registry, which travels through the
// VM to every layer of the message path.  Enabling is per concern, so
// -stats alone pays no span cost and -trace-out alone no histogram cost;
// metrics and spans switch a concern on for another reason.
func (o *observeFlags) registry(metrics, spans bool) *obs.Registry {
	reg := obs.New()
	if o.stats || metrics {
		reg.Enable(obs.Metrics)
	}
	if o.traceOut != "" || spans {
		reg.Enable(obs.Spans)
	}
	return reg
}

// writeTrace writes the spans write renders to -trace-out, if set, as
// Chrome trace-event JSON, and returns the run's error, else the write's.
// An existing file is never clobbered: the path rotates to path.1, path.2,
// ... (same policy as recorder dumps).
func (o *observeFlags) writeTrace(write func(io.Writer) error, runErr error) error {
	if o.traceOut == "" {
		return runErr
	}
	f, err := os.Create(obs.UniquePath(o.traceOut))
	if err == nil {
		err = firstError(write(f), f.Close())
	}
	return firstError(runErr, err)
}

// forward has a follower collect what node 0 reports: its drain acks carry
// its metrics and spans there, and it writes no trace file of its own.
func (o *observeFlags) forward(fs *flag.FlagSet) []string {
	if o.traceOut != "" {
		return append(setFlags(fs, "stats", "blackbox-out"), "-trace-collect")
	}
	return setFlags(fs, "stats", "blackbox-out")
}

// haFlags holds the fault-tolerance knobs.  Every node of a mesh must run
// the same settings.
type haFlags struct {
	enabled         bool
	heartbeat, ckpt time.Duration
}

func (h *haFlags) bind(fs *flag.FlagSet) {
	fs.BoolVar(&h.enabled, "ha", false,
		"fault-tolerant mesh: peer heartbeats, periodic checkpoints streamed to a buddy node, and automatic adoption of a dead node's clusters; node 0 is not recoverable, and one failure per checkpoint interval is tolerated")
	fs.DurationVar(&h.heartbeat, "heartbeat-interval", 0,
		"HA heartbeat and failure-detector sweep period (0 = 25ms); a peer silent for 10 intervals is declared dead")
	fs.DurationVar(&h.ckpt, "checkpoint-interval", 0,
		"HA checkpoint period (0 = 250ms); work since the last checkpoint is recovered by replaying retained frames")
}

// check refuses tuning knobs without -ha rather than silently ignoring them.
func (h *haFlags) check() error {
	if !h.enabled && (h.heartbeat != 0 || h.ckpt != 0) {
		return errors.New("-heartbeat-interval and -checkpoint-interval require -ha")
	}
	if h.heartbeat < 0 || h.ckpt < 0 {
		return errors.New("HA intervals must be positive")
	}
	return nil
}

// apply copies the knobs onto the node options.
func (h *haFlags) apply(o *node.Options) {
	o.HA, o.HeartbeatInterval, o.CheckpointInterval = h.enabled, h.heartbeat, h.ckpt
}

func (h *haFlags) forward(fs *flag.FlagSet) []string {
	return setFlags(fs, "ha", "heartbeat-interval", "checkpoint-interval")
}
