package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// haSmokeSource mirrors the in-process HA kill test's program (see
// internal/node/ha_test.go): timed workers on every cluster, an
// arrival-order-independent total, and enough wall-clock runtime for a
// checkpoint to cut and the failure detector to fire before the work is done.
const haSmokeSource = `
TASKTYPE MAIN
      INTEGER W, NW
      INTEGER TOTAL
      SIGNAL RES
      NW = 6
      ON CLUSTER 3 INITIATE STEPPER(1)
      ON CLUSTER 3 INITIATE STEPPER(2)
      ON CLUSTER 2 INITIATE STEPPER(3)
      ON CLUSTER 2 INITIATE STEPPER(4)
      ON CLUSTER 1 INITIATE STEPPER(5)
      ON CLUSTER 3 INITIATE STEPPER(6)
      ACCEPT NW OF RES
      TOTAL = 0
      DO 20 W = 1, NW
        TOTAL = TOTAL + MSGI('RES', W, 1)
20    CONTINUE
      PRINT *, 'TOTAL', TOTAL
END TASKTYPE

TASKTYPE STEPPER(ME)
      INTEGER ME
      INTEGER I, ACC
      SIGNAL TICK
      ACC = 0
      DO 10 I = 1, 12
        ACC = ACC + ME * I
        ACCEPT 1 OF
          TICK
        DELAY 0.05 THEN
          ACC = ACC + 0
        END ACCEPT
10    CONTINUE
      TO PARENT SEND RES(ACC)
END TASKTYPE
`

// checkRebalanceSpan requires the Chrome trace at path to be JSON in which
// node 0's "node/0 ha" thread holds a rebalance slice: the survivor's
// recovery, as the uploaded artifact shows it.
func checkRebalanceSpan(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("PISCES_HA_TRACE=%s: %v", path, err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("PISCES_HA_TRACE=%s is not a Chrome trace: %v", path, err)
	}
	type thread struct{ pid, tid int }
	ha := map[thread]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Args.Name == "node/0 ha" {
			ha[thread{ev.Pid, ev.Tid}] = true
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ha[thread{ev.Pid, ev.Tid}] && strings.HasPrefix(ev.Name, "rebalance ") {
			return
		}
	}
	t.Errorf("PISCES_HA_TRACE=%s: no rebalance slice on a node/0 ha thread (%d events)", path, len(doc.TraceEvents))
}

// syncBuffer is a strings.Builder safe to share between an exec.Cmd's output
// pipe goroutine and the test's polling loop.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestHASmokeKillANodeProcess is the whole-system acceptance for the
// fault-tolerant mesh: three REAL pisces serve processes over loopback TCP,
// node 2 SIGKILLed mid-run, and node 0's stdout must still be byte-identical
// to the single-process run.  Gated behind PISCES_HA_SMOKE because it builds
// the binary and forks OS processes; CI runs it in the ha-smoke job.  When
// PISCES_HA_TRACE names a file, node 0 additionally writes its span trace
// there for artifact upload, and it must show node 0's rebalance.
func TestHASmokeKillANodeProcess(t *testing.T) {
	if os.Getenv("PISCES_HA_SMOKE") == "" {
		t.Skip("set PISCES_HA_SMOKE=1 to build the binary and fork a killable 3-process mesh")
	}
	bin := buildPisces(t)
	prog := filepath.Join(t.TempDir(), "hasmoke.pf")
	if err := os.WriteFile(prog, []byte(haSmokeSource), 0o644); err != nil {
		t.Fatal(err)
	}
	single := runBinary(t, bin, "run", "-clusters", "3", prog)
	if !strings.Contains(single, "TOTAL") {
		t.Fatalf("single-process reference output unexpected:\n%s", single)
	}

	// Reserve one loopback port per node (closed and re-bound by the serve
	// processes, same approach as pisces run -nodes).
	addrs := make([]string, 3)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		_ = ln.Close()
	}
	peers := strings.Join(addrs, ",")

	var stdout [3]syncBuffer
	var stderr [3]syncBuffer
	cmds := make([]*exec.Cmd, 3)
	for i := range cmds {
		args := []string{"serve",
			"-node", fmt.Sprint(i), "-peers", peers,
			"-clusters", "3", "-ha",
			"-checkpoint-interval", "50ms",
		}
		if bb := os.Getenv("PISCES_HA_BLACKBOX"); bb != "" {
			args = append(args, "-blackbox-out", bb)
		}
		if i == 0 {
			if tr := os.Getenv("PISCES_HA_TRACE"); tr != "" {
				args = append(args, "-trace-out", tr)
			}
		}
		args = append(args, prog)
		cmds[i] = exec.Command(bin, args...)
		cmds[i].Stdout = &stdout[i]
		cmds[i].Stderr = &stderr[i]
	}
	// Followers first, coordinator last; start order does not matter (the
	// mesh handshake retries) but this keeps the logs tidy.
	for i := 2; i >= 0; i-- {
		if err := cmds[i].Start(); err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, c := range cmds {
			if c.Process != nil {
				_ = c.Process.Kill()
			}
		}
	})

	// Wait for node 2 to join the mesh, give the run a few checkpoints, then
	// kill it the way a crashed machine would die: no drain, no goodbye.
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(stderr[2].String(), "node 2 up") {
		if time.Now().After(deadline) {
			t.Fatalf("node 2 never joined the mesh\nstderr:\n%s", stderr[2].String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(250 * time.Millisecond)
	if err := cmds[2].Process.Kill(); err != nil {
		t.Fatalf("killing node 2: %v", err)
	}
	_ = cmds[2].Wait() // reap; a kill error is the expected exit

	exit := make(chan error, 1)
	go func() { exit <- cmds[0].Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("node 0: %v\nstdout:\n%s\nstderr:\n%s", err, stdout[0].String(), stderr[0].String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("node 0 did not finish after the kill\nstdout:\n%s\nstderr:\n%s", stdout[0].String(), stderr[0].String())
	}
	if err := cmds[1].Wait(); err != nil {
		t.Errorf("node 1: %v\nstderr:\n%s", err, stderr[1].String())
	}

	if got := stdout[0].String(); got != single {
		t.Fatalf("killed-node mesh output diverges from single-process:\n--- got ---\n%s--- want ---\n%s--- node 0 stderr ---\n%s--- node 1 stderr ---\n%s",
			got, single, stderr[0].String(), stderr[1].String())
	}
	// The kill must have been survived, not merely missed: node 0 is node 2's
	// checkpoint buddy and must have logged the completed rebalance.
	if !strings.Contains(stderr[0].String(), "rerouted node 2's clusters to node 0") {
		t.Errorf("node 0 never rebalanced; the kill landed after the run finished.\nstderr:\n%s", stderr[0].String())
	}
	if tr := os.Getenv("PISCES_HA_TRACE"); tr != "" {
		checkRebalanceSpan(t, tr)
	}
	// Failure forensics end to end: the survivor's rebalance dumped a flight
	// recorder into PISCES_HA_BLACKBOX, and the binary's own blackbox
	// subcommand must decode (and, with several dumps, merge) it — the same
	// path an operator walks after a real node death.
	if bb := os.Getenv("PISCES_HA_BLACKBOX"); bb != "" {
		entries, err := os.ReadDir(bb)
		if err != nil {
			t.Fatalf("PISCES_HA_BLACKBOX=%s: %v", bb, err)
		}
		var dumps []string
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "blackbox-") {
				dumps = append(dumps, filepath.Join(bb, e.Name()))
			}
		}
		if len(dumps) == 0 {
			t.Fatalf("PISCES_HA_BLACKBOX=%s: no dumps written\nnode 0 stderr:\n%s", bb, stderr[0].String())
		}
		decoded := runBinary(t, bin, append([]string{"blackbox"}, dumps...)...)
		if !strings.Contains(decoded, "checkpoint") || !strings.Contains(decoded, "heartbeat-miss") {
			t.Errorf("blackbox decode of %v lacks the recovery story:\n%s", dumps, decoded)
		}
		if err := os.WriteFile(filepath.Join(bb, "decoded.txt"), []byte(decoded), 0o644); err != nil {
			t.Errorf("writing decoded artifact: %v", err)
		}
	}
}
