package node_test

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pfi"
	"repro/internal/sim"
)

// corpusSource fetches one embedded conformance program.
func corpusSource(t testing.TB, name string) string {
	t.Helper()
	_, srcs := conformance.Corpus()
	src, ok := srcs[name]
	if !ok {
		t.Fatalf("corpus program %q not found", name)
	}
	return src
}

// singleProcessOutput runs the program on one full VM, the reference the
// distributed run must match byte for byte.  The VM runs on a simulator, so
// a program's DELAYs cost no wall time.
func singleProcessOutput(t testing.TB, cfg *config.Configuration, src string) string {
	t.Helper()
	var out bytes.Buffer
	vm, err := core.NewVM(cfg, core.Options{UserOutput: &out, Backend: sim.New(1), AcceptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("reference vm: %v", err)
	}
	prog, err := pfi.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	runErr := prog.Run(vm, pfi.Options{})
	vm.Shutdown()
	if runErr != nil {
		t.Fatalf("reference run: %v", runErr)
	}
	return out.String()
}

// startMesh boots an n-node mesh in-process over loopback TCP and returns
// the nodes, node 0 first.  Listeners are bound up front so no port races.
func startMesh(t testing.TB, nodes int, cfg *config.Configuration, src string, out *bytes.Buffer, mutate ...func(i int, o *node.Options)) []*node.Node {
	t.Helper()
	listeners := make([]net.Listener, nodes)
	addrs := make([]string, nodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	started := make([]*node.Node, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := node.Options{
				NodeID: i, Addrs: addrs, Listener: listeners[i],
				Config: cfg, Source: src,
				AcceptTimeout:  30 * time.Second,
				ConnectTimeout: 20 * time.Second,
			}
			if i == 0 && out != nil {
				o.Out = out
			}
			for _, m := range mutate {
				m(i, &o)
			}
			started[i], errs[i] = node.Start(o)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, n := range started {
			if n != nil {
				_ = n.Close()
			}
		}
	})
	return started
}

// runDistributed drives a mesh to completion: followers serve, node 0 runs
// the program and coordinates shutdown.
func runDistributed(t testing.TB, nodes []*node.Node) {
	t.Helper()
	var wg sync.WaitGroup
	for _, f := range nodes[1:] {
		wg.Add(1)
		go func(f *node.Node) {
			defer wg.Done()
			if err := f.ServeUntilShutdown(); err != nil {
				t.Errorf("follower: %v", err)
			}
		}(f)
	}
	if err := nodes[0].RunMain(); err != nil {
		t.Errorf("run: %v", err)
	}
	if err := nodes[0].Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	wg.Wait()
}

// TestPartition pins the contiguous assignment and its edge cases.
func TestPartition(t *testing.T) {
	topo, err := node.Partition([]int{1, 2, 3, 4, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(topo.Clusters(0)); got != "[1 2 3]" {
		t.Fatalf("node 0 clusters %s", got)
	}
	if got := fmt.Sprint(topo.Clusters(1)); got != "[4 5]" {
		t.Fatalf("node 1 clusters %s", got)
	}
	if owner, _ := topo.NodeOf(4); owner != 1 {
		t.Fatalf("cluster 4 owner %d", owner)
	}
	if _, err := node.Partition([]int{1}, 2); err == nil {
		t.Fatal("2 nodes for 1 cluster must fail")
	}
}

// TestCrossClusterDistributedMatchesSingleProcess is the tentpole
// acceptance: crosscluster.pf (taskid, window, and array arguments crossing
// clusters) over two real OS-level TCP connections produces byte-identical
// user output to the single-process run.
func TestCrossClusterDistributedMatchesSingleProcess(t *testing.T) {
	src := corpusSource(t, "crosscluster.pf")
	cfg := config.Simple(2, 4)
	want := singleProcessOutput(t, cfg, src)
	if !strings.Contains(want, "ARRAY SUM") {
		t.Fatalf("reference output unexpected:\n%s", want)
	}

	var out bytes.Buffer
	nodes := startMesh(t, 2, cfg, src, &out)
	runDistributed(t, nodes)
	if got := out.String(); got != want {
		t.Fatalf("distributed output differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSumsqDistributedMatchesSingleProcess covers the second acceptance
// program: INITIATE fan-out with ANY placement, message totalling, and a
// force region on the coordinator's cluster.
func TestSumsqDistributedMatchesSingleProcess(t *testing.T) {
	src := corpusSource(t, "fanin.pf")
	cfg := config.Simple(2, 4)
	want := singleProcessOutput(t, cfg, src)

	var out bytes.Buffer
	nodes := startMesh(t, 2, cfg, src, &out)
	runDistributed(t, nodes)
	if got := out.String(); got != want {
		t.Fatalf("distributed output differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCharacterArgumentsCrossNodesExactly: a character literal in INITIATE
// and SEND arguments reaches a task on another node exactly as the source
// wrote it — case, inner blanks, doubled quote, comma and parentheses.
func TestCharacterArgumentsCrossNodesExactly(t *testing.T) {
	src := `TASKTYPE MAIN
      ON OTHER INITIATE ECHO('Mixed  case, (it''s)')
      ACCEPT 1 OF BACK
      PRINT *, MSGS('BACK', 1, 1)
      PRINT *, MSGS('BACK', 1, 2)
END TASKTYPE

TASKTYPE ECHO(S)
      TO PARENT SEND BACK(S, 'from  cluster', CLUSTER)
END TASKTYPE
`
	var out bytes.Buffer
	nodes := startMesh(t, 2, config.Simple(2, 4), src, &out)
	runDistributed(t, nodes)
	if got, want := out.String(), "Mixed  case, (it's)\nfrom  cluster\n"; got != want {
		t.Fatalf("output %q, want %q", got, want)
	}
}

// TestThreeNodeMesh runs a corpus program across three nodes so frames
// cross more than one peer connection.
func TestThreeNodeMesh(t *testing.T) {
	src := corpusSource(t, "placement.pf")
	cfg := config.Simple(3, 4)
	want := singleProcessOutput(t, cfg, src)

	var out bytes.Buffer
	nodes := startMesh(t, 3, cfg, src, &out)
	runDistributed(t, nodes)
	if got := out.String(); got != want {
		t.Fatalf("distributed output differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestStrayConnectionDoesNotBlockMesh: a connection that is not a peer (a
// port scanner, a health probe) must not consume the accept slot a real
// peer needs — the mesh must still form.
func TestStrayConnectionDoesNotBlockMesh(t *testing.T) {
	src := corpusSource(t, "fanin.pf")
	cfg := config.Simple(2, 4)
	want := singleProcessOutput(t, cfg, src)

	listeners := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	// The stray connections arrive before node 1 even starts dialing: one
	// that immediately closes and one that sends garbage.
	for _, addr := range addrs {
		c1, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = c1.Close()
		c2, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = c2.Write([]byte("GET / HTTP/1.0\r\n\r\n"))
		defer c2.Close()
	}

	var out bytes.Buffer
	started := make([]*node.Node, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := node.Options{
				NodeID: i, Addrs: addrs, Listener: listeners[i],
				Config: cfg, Source: src,
				AcceptTimeout: 30 * time.Second, ConnectTimeout: 20 * time.Second,
			}
			if i == 0 {
				o.Out = &out
			}
			started[i], errs[i] = node.Start(o)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d failed to join past the stray connections: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, n := range started {
			_ = n.Close()
		}
	})
	runDistributed(t, started)
	if got := out.String(); got != want {
		t.Fatalf("output differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestDistributedMetricsAggregation: with metrics enabled on every node, the
// followers piggyback their metric snapshots on drain acks, so after Close
// the coordinator can merge one cluster-wide view that includes both ends of
// every wire lane.
func TestDistributedMetricsAggregation(t *testing.T) {
	src := corpusSource(t, "fanin.pf")
	cfg := config.Simple(2, 4)

	regs := make([]*obs.Registry, 2)
	for i := range regs {
		regs[i] = obs.New()
		regs[i].Enable(obs.Metrics | obs.Spans)
	}
	var out bytes.Buffer
	nodes := startMesh(t, 2, cfg, src, &out, func(i int, o *node.Options) {
		o.Metrics = regs[i]
	})
	runDistributed(t, nodes)

	snaps := nodes[0].FollowerSnapshots()
	follower, ok := snaps[1]
	if !ok {
		t.Fatalf("no snapshot from node 1 after drain; have %v", snaps)
	}
	counterOf := func(s *obs.Snapshot, name string) int64 {
		for _, c := range s.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		return -1
	}
	if v := counterOf(follower, "node.tx.n1->n0.frames"); v <= 0 {
		t.Fatalf("follower snapshot node.tx.n1->n0.frames = %d, want > 0", v)
	}
	merged := regs[0].Snapshot()
	for _, s := range snaps {
		merged.Merge(s)
	}
	// Both endpoints of the n0<->n1 lane must be visible in the merged view,
	// and the receiver-side frame count must match the sender's.
	for _, name := range []string{
		"node.tx.n0->n1.frames", "node.rx.n0->n1.frames",
		"node.tx.n1->n0.frames", "node.rx.n1->n0.frames",
	} {
		if v := counterOf(merged, name); v <= 0 {
			t.Fatalf("merged snapshot %s = %d, want > 0", name, v)
		}
	}
	// The follower snapshots at drain-ack time, so frames the coordinator
	// sends afterwards (the shutdown order) are on tx but not yet on the
	// follower's rx: the receiver count trails the sender's, never leads it.
	if tx, rx := counterOf(merged, "node.tx.n0->n1.bytes"), counterOf(merged, "node.rx.n0->n1.bytes"); rx <= 0 || rx > tx {
		t.Fatalf("lane n0->n1 byte counts inconsistent: tx %d, rx %d", tx, rx)
	}
	spans, _ := regs[0].Spans()
	lanes := make(map[string]bool, len(spans))
	for _, s := range spans {
		lanes[s.Lane] = true
	}
	if !lanes["node/0 mesh"] || !lanes["node/0 drain"] {
		t.Fatalf("coordinator span lanes missing mesh/drain: %v", lanes)
	}
}

// TestFingerprintMismatchRefused: a node running different source must be
// refused during the handshake, not mis-deliver frames later.
func TestFingerprintMismatchRefused(t *testing.T) {
	cfg := config.Simple(2, 4)
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{lnA.Addr().String(), lnB.Addr().String()}
	srcA := corpusSource(t, "fanin.pf")
	srcB := corpusSource(t, "placement.pf")

	results := make(chan error, 2)
	go func() {
		n, err := node.Start(node.Options{NodeID: 0, Addrs: addrs, Listener: lnA, Config: cfg, Source: srcA, ConnectTimeout: 3 * time.Second})
		if n != nil {
			_ = n.Close()
		}
		results <- err
	}()
	go func() {
		n, err := node.Start(node.Options{NodeID: 1, Addrs: addrs, Listener: lnB, Config: cfg, Source: srcB, ConnectTimeout: 3 * time.Second})
		if n != nil {
			_ = n.Close()
		}
		results <- err
	}()
	failures := 0
	for i := 0; i < 2; i++ {
		// Either side may report the mismatch itself, see the refusing peer
		// close the connection (EOF), or time out waiting for a valid peer.
		if err := <-results; err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("mismatched fingerprints formed a mesh")
	}
}
