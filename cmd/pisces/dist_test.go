package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildPisces compiles the pisces binary once per test run so the smoke
// tests below spawn REAL node processes, not in-process goroutine stand-ins.
func buildPisces(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pisces")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building pisces: %v\n%s", err, out)
	}
	return bin
}

// runBinary runs the built binary with a hard timeout, returning stdout.
func runBinary(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%v: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
		}
	case <-time.After(90 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("%v: timed out\nstdout:\n%s\nstderr:\n%s", args, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// TestMultiProcessSmoke is the multi-process acceptance smoke test: "pisces
// run -nodes 2" forks a real follower OS process, carries the cross-cluster
// traffic over loopback TCP, and must produce byte-identical user output to
// the single-process run — for the crosscluster corpus program (taskid,
// window, and array arguments over the wire) and for examples/sumsq.pf.
func TestMultiProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and forks real node processes")
	}
	bin := buildPisces(t)
	for _, prog := range []string{
		filepath.Join("..", "..", "internal", "conformance", "corpus", "crosscluster.pf"),
		// Every task's last statement is an INITIATE nobody waits for: the
		// drain must not read the mesh idle while a request is in flight.
		filepath.Join("..", "..", "internal", "conformance", "corpus", "lastinit.pf"),
		filepath.Join("..", "..", "examples", "sumsq.pf"),
	} {
		prog := prog
		t.Run(filepath.Base(prog), func(t *testing.T) {
			single := runBinary(t, bin, "run", prog)
			if single == "" {
				t.Fatalf("single-process run of %s produced no output", prog)
			}
			dist := runBinary(t, bin, "run", "-nodes", "2", prog)
			if dist != single {
				t.Fatalf("distributed output differs from single-process:\n--- single ---\n%s--- distributed ---\n%s", single, dist)
			}
		})
	}
}

// TestMultiProcessObservability is the observability acceptance test for
// distributed runs: "pisces run -nodes 2 -stats" prints ONE merged
// cluster-wide metric view — two tables, nothing per-node beside them — that
// includes the followers' piggybacked snapshots (labelled per node with its
// hosted clusters, with both ends of every wire lane, and the interpreter's
// counters summed to what the single-process run reports), and -trace-out
// produces a valid Chrome trace with spans from at least three layers: pfi
// task execution, cross-cluster delivery, and node transport.
func TestMultiProcessObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and forks real node processes")
	}
	bin := buildPisces(t)
	prog := filepath.Join("..", "..", "examples", "sumsq.pf")
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	out := runBinary(t, bin, "run", "-nodes", "2", "-stats", "-trace-out", traceFile, prog)
	for _, want := range []string{
		"mesh runtime metrics: node 0 (clusters [1]), node 1 (clusters [2])",
		"node.tx.n0->n1.frames", "node.rx.n1->n0.frames",
		"node.tx.n1->n0.bytes", "node.batch.write.ns", "node.batch.frames", "pfi.stmt.ns",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("distributed -stats output missing %q:\n%s", want, out)
		}
	}
	if n := countTables(out); n != 2 {
		t.Errorf("distributed -stats printed %d tables, want 2:\n%s", n, out)
	}
	// Interpreter work is summed across the mesh: the merged counters equal
	// the single-process run's (node 0 alone runs 1 of the 5 tasks).
	single := runBinary(t, bin, "run", "-stats", prog)
	for _, name := range []string{"pfi.statements", "pfi.tasks.started", "pfi.sends", "pfi.loop.iterations"} {
		s, d := statValue(single, name), statValue(out, name)
		if s == "" || s != d {
			t.Errorf("%s: single-process %q, 2-node merged %q; want equal and present", name, s, d)
		}
	}

	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-trace-out file is not valid JSON: %v", err)
	}
	layers := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			continue
		}
		switch lane := e.Args.Name; {
		case strings.HasPrefix(lane, "pfi/"):
			layers["pfi"] = true
		case strings.HasPrefix(lane, "router/"):
			layers["router"] = true
		case strings.HasPrefix(lane, "node/"):
			layers["node"] = true
		}
	}
	for _, l := range []string{"pfi", "router", "node"} {
		if !layers[l] {
			t.Errorf("trace file has no spans from the %s layer (lanes: %v)", l, layers)
		}
	}
}

// statValue returns the value column of the named row of a -stats counter
// table, "" if the row is absent.
func statValue(out, name string) string {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			return f[1]
		}
	}
	return ""
}

// TestMultiProcessThreeNodes spreads three clusters over three processes.
func TestMultiProcessThreeNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and forks real node processes")
	}
	bin := buildPisces(t)
	prog := filepath.Join("..", "..", "examples", "sumsq.pf")
	single := runBinary(t, bin, "run", "-clusters", "3", prog)
	dist := runBinary(t, bin, "run", "-clusters", "3", "-nodes", "3", prog)
	if dist != single {
		t.Fatalf("3-node output differs:\n--- single ---\n%s--- distributed ---\n%s", single, dist)
	}
}
