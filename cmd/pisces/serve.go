package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
)

// Distributed mode.
//
// "pisces serve" is one node process of a distributed run: it joins the TCP
// mesh described by -peers, hosts its share of the clusters, and either
// drives the program (node 0) or serves routed traffic until the coordinator
// orders shutdown.  "pisces run -nodes N" is the convenience wrapper: it
// forks N-1 serve processes itself, runs node 0 in-process so program output
// streams to the caller's stdout unmodified, and relays the children's
// output to stderr with a [node i] prefix.

// haFlags holds the fault-tolerance knobs shared by "pisces serve" and
// "pisces run -nodes".  Every node of a mesh must run the same settings.
type haFlags struct {
	enabled   *bool
	heartbeat *time.Duration
	ckpt      *time.Duration
}

func addHAFlags(fs *flag.FlagSet) *haFlags {
	return &haFlags{
		enabled: fs.Bool("ha", false,
			"fault-tolerant mesh: peer heartbeats, periodic checkpoints streamed to a buddy node, and automatic adoption of a dead node's clusters; node 0 is not recoverable, and one failure per checkpoint interval is tolerated"),
		heartbeat: fs.Duration("heartbeat-interval", 0,
			"HA heartbeat and failure-detector sweep period (0 = 25ms); a peer silent for 10 intervals is declared dead"),
		ckpt: fs.Duration("checkpoint-interval", 0,
			"HA checkpoint period (0 = 250ms); work since the last checkpoint is recovered by replaying retained frames"),
	}
}

// validate refuses tuning knobs without -ha rather than silently ignoring
// them.
func (h *haFlags) validate() error {
	if !*h.enabled && (*h.heartbeat != 0 || *h.ckpt != 0) {
		return fmt.Errorf("-heartbeat-interval and -checkpoint-interval require -ha")
	}
	if *h.heartbeat < 0 || *h.ckpt < 0 {
		return fmt.Errorf("HA intervals must be positive")
	}
	return nil
}

// apply copies the knobs onto the node options.  The suspicion timeout
// follows a custom heartbeat at the default 10x ratio, so tightening the
// heartbeat keeps the detector sound without a second flag.
func (h *haFlags) apply(o *node.Options) {
	o.HA = *h.enabled
	o.HeartbeatInterval = *h.heartbeat
	o.CheckpointInterval = *h.ckpt
	if *h.heartbeat > 0 {
		o.SuspicionAfter = 10 * *h.heartbeat
	}
}

// serveArgs forwards the knobs to a forked follower.
func (h *haFlags) serveArgs() []string {
	if !*h.enabled {
		return nil
	}
	return []string{
		"-ha",
		"-heartbeat-interval", h.heartbeat.String(),
		"-checkpoint-interval", h.ckpt.String(),
	}
}

// runServe implements "pisces serve -node K -peers a,b,... <program.pf>".
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pisces serve", flag.ContinueOnError)
	nodeID := fs.Int("node", 0, "this process's node id (index into -peers)")
	peers := fs.String("peers", "", "comma-separated listen addresses of every node, in node-id order")
	clusters := fs.Int("clusters", 2, "number of clusters")
	slots := fs.Int("slots", 4, "user-task slots per cluster")
	forces := fs.String("forces", "", "comma-separated secondary PEs for cluster 1 forces")
	mainTT := fs.String("main", "", "entry tasktype (node 0; default MAIN, else the first tasktype)")
	showStats := fs.Bool("stats", false, "collect runtime metrics; node 0 prints the mesh-wide report after the run — counters (interpreter activity as pfi.*) and distributions, every node's snapshot summed — and a follower's drain acks carry its snapshot there")
	collectTrace := fs.Bool("trace-collect", false,
		"capture runtime spans and causal flow events even without -trace-out, so drain acks carry this node's trace to the coordinator's merged file")
	debugAddr := fs.String("debug-addr", "",
		"serve observability endpoints (/metrics Prometheus text, /debug/vars, /debug/pprof) on this address while the node runs")
	acceptTimeout := fs.Duration("accept-timeout", 30*time.Second,
		"system-provided timeout for ACCEPT statements without a DELAY clause")
	connectTimeout := fs.Duration("connect-timeout", 30*time.Second, "how long to wait for the mesh to form")
	traceOut := fs.String("trace-out", "",
		"write this node's runtime spans (including HA recovery) to this file as Chrome trace-event JSON")
	blackboxOut := fs.String("blackbox-out", "",
		"write a flight-recorder dump into this directory on failure paths (HA rebalance, drain timeout, limit violation)")
	ha := addHAFlags(fs)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: pisces serve -node K -peers a,b,... [flags] <program.pf>")
	}
	addrs := splitAddrs(*peers)
	if len(addrs) < 2 {
		return fmt.Errorf("-peers must list at least two node addresses")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cfg, err := buildConfiguration("", *clusters, *slots, *forces, "")
	if err != nil {
		return err
	}
	if err := ha.validate(); err != nil {
		return err
	}
	o := node.Options{
		NodeID: *nodeID, Addrs: addrs,
		Config: cfg, Source: string(src), Main: *mainTT,
		AcceptTimeout: *acceptTimeout, ConnectTimeout: *connectTimeout,
		BlackboxDir: *blackboxOut,
	}
	ha.apply(&o)
	_, err = meshNode{opts: o, stats: *showStats, traceOut: *traceOut, collectTrace: *collectTrace, debugAddr: *debugAddr}.run(out)
	return err
}

// meshNode is one node process of a mesh run: what "pisces serve -peers" is
// told by hand, and what "pisces run -nodes" works out for its node 0.
type meshNode struct {
	opts         node.Options // all but Out, Log and Metrics, which run sets
	stats        bool         // collect metrics; node 0 prints the merged report
	traceOut     string       // write the spans here as Chrome trace-event JSON
	collectTrace bool         // capture spans even with nowhere to write them
	debugAddr    string       // serve the observability endpoints here
}

// run starts the node and sees the run through: a follower serves routed
// traffic until the coordinator orders shutdown; node 0 drives the program
// and then reports what it was asked to.  started is false if the node never
// joined the mesh, so nobody will tell its peers to stop.
func (m meshNode) run(out io.Writer) (started bool, err error) {
	reg := obs.New()
	if m.stats || m.debugAddr != "" {
		reg.Enable(obs.Metrics)
	}
	if m.traceOut != "" || m.collectTrace {
		reg.Enable(obs.Spans)
	}
	if m.debugAddr != "" {
		dln, err := net.Listen("tcp", m.debugAddr)
		if err != nil {
			return false, fmt.Errorf("-debug-addr: %w", err)
		}
		defer dln.Close()
		go func() { _ = http.Serve(dln, obs.DebugHandler(reg)) }()
		fmt.Fprintf(os.Stderr, "node %d: debug endpoints on http://%s/\n", m.opts.NodeID, dln.Addr())
	}
	o := m.opts
	o.Out, o.Log, o.Metrics = out, os.Stderr, reg
	n, err := node.Start(o)
	if err != nil {
		return false, err
	}
	follower := o.NodeID != 0
	var runErr error
	if follower {
		runErr = n.ServeUntilShutdown()
	} else {
		runErr = n.RunMain()
		// Close before printing: the shutdown drain is what ships the
		// followers' metric snapshots to this node, so a summary printed
		// earlier could only cover node 0.
		if err := n.Close(); err != nil && runErr == nil {
			runErr = err
		}
		if m.stats {
			printMeshMetrics(out, n)
		}
	}
	if m.traceOut != "" {
		// Node 0 merges the trace blobs the followers piggybacked on their
		// drain acks, so its file shows every node as its own process track
		// with cross-node flow arrows; followers write their local view.
		var werr error
		if follower {
			werr = writeTraceFile(m.traceOut, reg)
		} else {
			werr = writeMeshTraceFile(m.traceOut, n)
		}
		if werr != nil && runErr == nil {
			runErr = werr
		}
	}
	return true, runErr
}

// writeMeshTraceFile dumps the coordinator's merged multi-node trace (its own
// spans plus every follower's drained trace blob) as Chrome trace-event JSON,
// rotating rather than clobbering an existing file.
func writeMeshTraceFile(path string, n *node.Node) error {
	f, err := os.Create(obs.UniquePath(path))
	if err != nil {
		return err
	}
	if err := n.WriteMeshTrace(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func splitAddrs(peers string) []string {
	var addrs []string
	for _, a := range strings.Split(peers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// runDistributed implements "pisces run -nodes N": fork the follower node
// processes, run node 0 inline, and reap the children.
func runDistributed(nodes, clusters, slots int, forces string, m meshNode, ha *haFlags, file string, out io.Writer) error {
	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	cfg, err := buildConfiguration("", clusters, slots, forces, "")
	if err != nil {
		return err
	}
	if len(cfg.ClusterNumbers()) < nodes {
		return fmt.Errorf("-nodes %d needs at least that many clusters (have %d)", nodes, len(cfg.ClusterNumbers()))
	}

	// Reserve one loopback port per node.  Node 0 keeps its listener; the
	// children re-bind theirs (the freed port could in principle be taken in
	// between, in which case the child fails and the run errors out).
	listeners := make([]net.Listener, nodes)
	addrs := make([]string, nodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("reserving node %d port: %w", i, err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for i := 1; i < nodes; i++ {
		_ = listeners[i].Close()
	}
	peers := strings.Join(addrs, ",")

	exe, err := os.Executable()
	if err != nil {
		_ = listeners[0].Close()
		return err
	}
	var children []*exec.Cmd
	killChildren := func() {
		for _, c := range children {
			if c.Process != nil {
				_ = c.Process.Kill()
			}
		}
	}
	for i := 1; i < nodes; i++ {
		args := []string{"serve",
			"-node", strconv.Itoa(i), "-peers", peers,
			"-clusters", strconv.Itoa(clusters), "-slots", strconv.Itoa(slots),
			"-accept-timeout", m.opts.AcceptTimeout.String(),
		}
		args = append(args, ha.serveArgs()...)
		if m.opts.BlackboxDir != "" {
			args = append(args, "-blackbox-out", m.opts.BlackboxDir)
		}
		if m.traceOut != "" {
			// Followers capture spans so their drain acks carry a trace blob
			// for the coordinator's merged file; they write no file of their
			// own (no -trace-out in the forwarded args).
			args = append(args, "-trace-collect")
		}
		if forces != "" {
			args = append(args, "-forces", forces)
		}
		if m.stats {
			// The followers collect metrics so their drain acks carry
			// snapshots; the merged view prints on node 0 only.
			args = append(args, "-stats")
		}
		args = append(args, file)
		cmd := exec.Command(exe, args...)
		relay := &prefixWriter{w: os.Stderr, prefix: fmt.Sprintf("[node %d] ", i)}
		cmd.Stdout = relay
		cmd.Stderr = relay
		if err := cmd.Start(); err != nil {
			killChildren()
			_ = listeners[0].Close()
			return fmt.Errorf("starting node %d: %w", i, err)
		}
		children = append(children, cmd)
	}

	m.opts.Addrs, m.opts.Listener = addrs, listeners[0]
	m.opts.Config, m.opts.Source = cfg, string(src)
	ha.apply(&m.opts)
	started, runErr := m.run(out)
	if !started {
		killChildren()
		return runErr
	}

	// The followers exit on the shutdown frame; anything still alive after a
	// grace period is stuck and gets killed so the run always terminates.
	done := make(chan error, len(children))
	for _, c := range children {
		go func(c *exec.Cmd) { done <- c.Wait() }(c)
	}
	deadline := time.After(15 * time.Second)
	for range children {
		select {
		case err := <-done:
			if err != nil {
				if *ha.enabled {
					// Under -ha a dead follower is survivable by design: the
					// mesh rebalanced around it and the run completed above.
					fmt.Fprintf(os.Stderr, "pisces: node process exited abnormally (tolerated under -ha): %v\n", err)
				} else if runErr == nil {
					runErr = fmt.Errorf("node process failed: %w", err)
				}
			}
		case <-deadline:
			killChildren()
			if runErr == nil {
				runErr = fmt.Errorf("node processes did not exit after shutdown")
			}
		}
	}
	return runErr
}

// printMetricsTables renders one metric snapshot's counter and histogram
// tables: the whole of what -stats prints.
func printMetricsTables(w io.Writer, snap *obs.Snapshot, title string) {
	for _, t := range snap.Tables(title) {
		fmt.Fprint(w, t.String())
	}
}

// printMeshMetrics prints the cluster-wide metric view of a distributed run:
// the coordinator's own snapshot merged with the latest snapshot each
// follower piggybacked on its drain acks, labelled with every node's hosted
// cluster set.  Must run after Close — the shutdown drain is what collects
// the follower snapshots.  The per-peer wire lane counters (node.tx.*,
// node.rx.*) come out directional, so the merged table shows both endpoints
// of every lane without collisions.
func printMeshMetrics(w io.Writer, n *node.Node) {
	if !n.Obs().Has(obs.Metrics) {
		return
	}
	topo := n.Topology()
	merged := n.Snapshot()
	labels := []string{fmt.Sprintf("node 0 (clusters %v)", topo.Clusters(0))}
	snaps := n.FollowerSnapshots()
	ids := make([]int, 0, len(snaps))
	for id := range snaps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		merged.Merge(snaps[id])
		labels = append(labels, fmt.Sprintf("node %d (clusters %v)", id, topo.Clusters(id)))
	}
	printMetricsTables(w, merged, "mesh runtime metrics: "+strings.Join(labels, ", "))
}

// prefixWriter relays a child process's output line by line with a node
// prefix, so follower diagnostics are attributable without polluting the
// coordinator's program output.
type prefixWriter struct {
	mu     sync.Mutex
	w      io.Writer
	prefix string
	buf    bytes.Buffer
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf.Write(b)
	for {
		line, err := p.buf.ReadString('\n')
		if err != nil {
			// Partial line: keep it buffered for the next write.
			p.buf.WriteString(line)
			break
		}
		fmt.Fprintf(p.w, "%s%s", p.prefix, line)
	}
	return len(b), nil
}
