package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

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

// runServeVerb implements "pisces serve", which has two personalities: with
// -peers — the mesh form always requires the peer list — this process is one
// node of a mesh run; without it, the multi-tenant serving daemon.
func runServeVerb(args []string, out io.Writer) error {
	for _, a := range args {
		if name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "="); name == "peers" && strings.HasPrefix(a, "-") {
			return runServe(args, out)
		}
	}
	return runDaemon(args, out)
}

// runServe implements "pisces serve -node K -peers a,b,... <program.pf>".
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pisces serve", flag.ContinueOnError)
	nodeID := fs.Int("node", 0, "this process's node id (index into -peers)")
	peers := fs.String("peers", "", "comma-separated listen addresses of every node, in node-id order")
	mach, prog, seen, ha := meshMachine, meshProgram, observeFlags{}, haFlags{}
	mach.bind(fs)
	prog.bind(fs, "main", "accept-timeout")
	seen.bind(fs)
	ha.bind(fs)
	collectTrace := fs.Bool("trace-collect", false,
		"capture runtime spans and causal flow events even without -trace-out, so drain acks carry this node's trace to the coordinator's merged file")
	debugAddr := fs.String("debug-addr", "",
		"serve observability endpoints (/metrics Prometheus text, /debug/vars, /debug/pprof) on this address while the node runs")
	connectTimeout := fs.Duration("connect-timeout", 30*time.Second, "how long to wait for the mesh to form")
	if help, err := parseFlags(fs, args, out); help || err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: pisces serve -node K -peers a,b,... [flags] <program.pf>")
	}
	addrs := strings.FieldsFunc(*peers, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	if len(addrs) < 2 {
		return fmt.Errorf("-peers must list at least two node addresses")
	}
	if err := firstError(prog.check(), ha.check(), positive("connect-timeout", *connectTimeout)); err != nil {
		return err
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cfg, err := mach.configuration()
	if err != nil {
		return err
	}
	o := node.Options{NodeID: *nodeID, Addrs: addrs, Config: cfg, Source: string(src), ConnectTimeout: *connectTimeout}
	_, err = meshNode{opts: o, prog: prog, observe: seen, ha: ha, collectTrace: *collectTrace, debugAddr: *debugAddr}.run(out)
	return err
}

// meshNode is one node process of a mesh run: what "pisces serve -peers" is
// told by hand, and what "pisces run -nodes" works out for its node 0.
type meshNode struct {
	opts         node.Options // the node and its mesh; run sets the rest
	prog         programFlags
	observe      observeFlags // node 0 prints the merged -stats report
	ha           haFlags
	collectTrace bool   // capture spans even with nowhere to write them
	debugAddr    string // serve the observability endpoints here
}

// run starts the node and sees the run through: a follower serves routed
// traffic until the coordinator orders shutdown; node 0 drives the program
// and then reports what it was asked to.  started is false if the node never
// joined the mesh, so nobody will tell its peers to stop.
func (m meshNode) run(out io.Writer) (started bool, err error) {
	reg := m.observe.registry(m.debugAddr != "", m.collectTrace)
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
	o.Main, o.AcceptTimeout, o.BlackboxDir = m.prog.main, m.prog.acceptTimeout, m.observe.blackboxOut
	m.ha.apply(&o)
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
		if m.observe.stats {
			printMeshMetrics(out, n)
		}
	}
	// Node 0 merges the trace blobs the followers piggybacked on their drain
	// acks, so its file shows every node as its own process track with
	// cross-node flow arrows; followers write their local view.
	write := n.WriteMeshTrace
	if follower {
		write = reg.WriteChromeTrace
	}
	return true, m.observe.writeTrace(write, runErr)
}

// runDistributed implements "pisces run -nodes N": fork the follower node
// processes, each given the follower flags, run node 0 inline as m, and reap
// the children.
func runDistributed(nodes int, m meshNode, follower []string, file string, out io.Writer) error {
	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
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

	var children []*exec.Cmd
	killChildren := func() {
		for _, c := range children {
			if c.Process != nil {
				_ = c.Process.Kill()
			}
		}
	}
	for i := 1; i < nodes; i++ {
		args := slices.Concat([]string{"serve", "-node", strconv.Itoa(i), "-peers", peers}, follower, []string{file})
		cmd := exec.Command(exe, args...)
		cmd.Stdout = &prefixWriter{w: os.Stderr, prefix: fmt.Sprintf("[node %d] ", i)}
		cmd.Stderr = cmd.Stdout
		if err := cmd.Start(); err != nil {
			killChildren()
			_ = listeners[0].Close()
			return fmt.Errorf("starting node %d: %w", i, err)
		}
		children = append(children, cmd)
	}

	m.opts.Addrs, m.opts.Listener, m.opts.Source = addrs, listeners[0], string(src)
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
				if m.ha.enabled {
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
	for _, id := range slices.Sorted(maps.Keys(snaps)) {
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
