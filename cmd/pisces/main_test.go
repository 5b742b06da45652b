package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	pisces "repro"
)

func TestBuildConfigurationVariants(t *testing.T) {
	// Section 9 canned configuration.
	cfg, err := buildConfiguration("section9", machineFlags{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Clusters) != 4 || cfg.Cluster(3).ForceSize() != 10 {
		t.Fatalf("section9 configuration wrong: %+v", cfg)
	}

	// Simple configuration with forces and trace events.
	cfg, err = buildConfiguration("", machineFlags{clusters: 2, slots: 3, forces: "7, 8"}, "msg-send,force-split")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cluster(1).ForceSize() != 3 || cfg.Cluster(2).Slots != 3 {
		t.Fatalf("simple configuration wrong: %+v", cfg)
	}
	if len(cfg.TraceEvents) != 2 || cfg.TraceEvents[0] != "MSG-SEND" {
		t.Fatalf("trace events = %v", cfg.TraceEvents)
	}

	// Saved file round trip through -config.
	dir := t.TempDir()
	path := filepath.Join(dir, "saved.cfg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	loaded, err := buildConfiguration(path, machineFlags{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cluster(1).ForceSize() != 3 {
		t.Fatalf("loaded configuration wrong: %+v", loaded)
	}

	// Errors: bad forces list, missing file.
	if _, err := buildConfiguration("", machineFlags{clusters: 2, slots: 3, forces: "seven"}, ""); err == nil {
		t.Error("bad forces list accepted")
	}
	if _, err := buildConfiguration(filepath.Join(dir, "missing.cfg"), machineFlags{}, ""); err == nil {
		t.Error("missing configuration file accepted")
	}
}

func TestRunShowAndSave(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "out.cfg")
	if err := runConfigure([]string{"-clusters", "2", "-slots", "2", "-save", saved}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "pisces-configuration") {
		t.Errorf("saved file malformed: %q", string(data))
	}
	// -show exits before booting anything.
	if err := runConfigure([]string{"-clusters", "3", "-slots", "2", "-show"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Invalid trace event surfaces as a boot error in a scripted run.
	script := filepath.Join(dir, "script.txt")
	if err := os.WriteFile(script, []byte("0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runConfigure([]string{"-clusters", "2", "-slots", "2", "-trace", "NOT-AN-EVENT", "-script", script}, io.Discard); err == nil {
		t.Error("invalid trace event accepted at boot")
	}
}

func TestRunScriptedSession(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "session.txt")
	cmds := strings.Join([]string{
		"help",
		"initiate hello cluster 2",
		"initiate force-sum cluster 1 1000",
		"tasks",
		"loading",
		"0",
	}, "\n") + "\n"
	if err := os.WriteFile(script, []byte(cmds), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runConfigure([]string{"-clusters", "2", "-slots", "3", "-forces", "7,8", "-script", script}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// countTables counts the report tables in a run's output by their rule lines
// (a table is a title, a header row, a line of dashes, and its rows).
func countTables(out string) int {
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if line != "" && strings.Trim(line, "-") == "" {
			n++
		}
	}
	return n
}

// TestRunInterpretsExampleProgram is the golden test for the acceptance
// path: "pisces run examples/sumsq.pf" interprets a Pisces Fortran program
// end-to-end on the in-memory VM (INITIATE, SEND/ACCEPT, FORCESPLIT, and a
// PRESCHED DO loop), producing the expected terminal output.
func TestRunInterpretsExampleProgram(t *testing.T) {
	example := filepath.Join("..", "..", "examples", "sumsq.pf")

	var out strings.Builder
	if err := runInterpreted([]string{example}, &out); err != nil {
		t.Fatal(err)
	}
	want := "WORKERS 4\nTOTAL 338350\nFORCE MEMBERS 1\nFORCE TOTAL 338350\n"
	if out.String() != want {
		t.Errorf("pisces run output:\n%q\nwant:\n%q", out.String(), want)
	}

	// With secondary PEs the FORCESPLIT spreads over a three-member force.
	out.Reset()
	if err := runInterpreted([]string{"-forces", "7,8", "-stats", example}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"WORKERS 4\n", "TOTAL 338350\n", "FORCE MEMBERS 3\n", "FORCE TOTAL 338350\n",
		"pfi.forcesplits", "pfi.loop.iterations", "pfi.stmt.ns",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("pisces run -forces output missing %q:\n%s", want, got)
		}
	}
	// -stats is one report: a counter table and a distribution table.
	if n := countTables(got); n != 2 {
		t.Errorf("pisces run -stats printed %d tables, want 2:\n%s", n, got)
	}

	// -trace attaches a sink, so enabled events actually display.
	out.Reset()
	if err := runInterpreted([]string{"-trace", "MSG-SEND", example}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "MSG-SEND") {
		t.Errorf("pisces run -trace produced no trace lines:\n%s", out.String())
	}

	// Errors: missing file, missing argument, unknown entry tasktype.
	if err := runInterpreted([]string{"missing.pf"}, &out); err == nil {
		t.Error("missing program file accepted")
	}
	if err := runInterpreted([]string{}, &out); err == nil {
		t.Error("missing program argument accepted")
	}
	if err := runInterpreted([]string{"-main", "NOSUCH", example}, &out); err == nil {
		t.Error("unknown -main tasktype accepted")
	}
}

// TestRunRefusesHostileArrayDeclarations: "pisces run" on an array declaration
// too large for the process, for makeslice, or for its own extent product
// returns the interpreter's positioned diagnostic — the process lives to
// print it.
func TestRunRefusesHostileArrayDeclarations(t *testing.T) {
	for _, dims := range []string{"2000000000", "9000000000000000000", "4294967296, 4294967296"} {
		path := filepath.Join(t.TempDir(), "hostile.pf")
		src := "TASKTYPE MAIN\n      REAL A(" + dims + ")\n      A(1) = 1.0\n      PRINT *, 'SURVIVED'\nEND TASKTYPE\n"
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		err := runInterpreted([]string{path}, &out)
		if want := "pfi: line 2: array A has more than 4194304 elements"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("REAL A(%s): error %v, want one containing %q", dims, err, want)
		}
		if !strings.Contains(out.String(), "*** PFI error in TASKTYPE MAIN: pfi: line 2: array A") || strings.Contains(out.String(), "SURVIVED") {
			t.Errorf("REAL A(%s): terminal shows\n%s", dims, out.String())
		}
	}
}

// TestRunFlagRefusals pins the "refused rather than silently ignored" rule:
// a flag combination the chosen execution path cannot honour is an error
// naming the flag, never a successful run with the flag dropped.  The retired
// wire-path switches, and "serve -metrics" (a follower's -stats under another
// name), are refused by the flag parser itself.
func TestRunFlagRefusals(t *testing.T) {
	example := filepath.Join("..", "..", "examples", "sumsq.pf")
	serve := func(args []string) error { return runServe(args, io.Discard) }
	run := func(args []string) error { return runInterpreted(args, io.Discard) }
	loadgen := func(args []string) error { return runLoadgen(args, io.Discard) }
	// A refused timeout must fail before the node dials its peers; these are
	// loopback ports nobody listens on, so a node that did start fails there.
	loopback := "127.0.0.1:1,127.0.0.1:2"
	for _, tc := range []struct {
		name string
		cmd  func([]string) error
		args []string
		want string
	}{
		{"nodes 0", run, []string{"-nodes", "0", "-heartbeat-interval", "5ms", example}, "-nodes must be at least 1"},
		{"heartbeat without ha", run, []string{"-heartbeat-interval", "5ms", example}, "require -ha"},
		{"nodes with repeat", run, []string{"-nodes", "2", "-repeat", "2", example}, "does not support -repeat"},
		{"nodes with trace", run, []string{"-nodes", "2", "-trace", "MSG-SEND", example}, "does not support -trace"},
		{"ha without nodes", run, []string{"-ha", example}, "-ha requires -nodes"},
		{"run wire-batch", run, []string{"-wire-batch", "off", example}, "flag provided but not defined"},
		{"serve wire-credit-window", serve, []string{"-node", "1", "-peers", "a:1,b:2", "-wire-credit-window", "1", example}, "flag provided but not defined"},
		{"serve metrics", serve, []string{"-node", "1", "-peers", "a:1,b:2", "-metrics", example}, "flag provided but not defined"},
		{"nodes with seed", run, []string{"-nodes", "2", "-seed", "5", example}, "-seed only applies with -sim"},
		{"serve accept-timeout 0", serve, []string{"-node", "1", "-peers", loopback, "-connect-timeout", "100ms", "-accept-timeout", "0", example}, "-accept-timeout must be positive"},
		{"serve connect-timeout 0", serve, []string{"-node", "1", "-peers", loopback, "-connect-timeout", "0", example}, "-connect-timeout must be positive"},
		{"serve connect-timeout negative", serve, []string{"-node", "1", "-peers", loopback, "-connect-timeout", "-1s", example}, "-connect-timeout must be positive"},
		{"loadgen duration 0", loadgen, []string{"-addr", "127.0.0.1:1", "-duration", "0"}, "-duration must be positive"},
		{"loadgen duration negative", loadgen, []string{"-addr", "127.0.0.1:1", "-duration", "-2s"}, "-duration must be positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cmd(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%v: got error %v, want one containing %q", tc.args, err, tc.want)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("diagnostic is not one line: %q", err)
			}
		})
	}
}

// TestDaemonFlagRefusals: a negative size or quota, or a timeout that is not
// positive, on "pisces serve -addr" fails flag validation with a one-line
// diagnostic instead of starting a daemon with the value silently replaced
// (or a default limit read as unlimited).  The refusal precedes the listen,
// so no port is ever bound.
func TestDaemonFlagRefusals(t *testing.T) {
	const negative, positive = "must not be negative", "must be positive"
	for _, tc := range [][3]string{
		{"-max-programs", "-1", negative}, {"-queue-depth", "-1", negative}, {"-cache-bytes", "-5", negative},
		{"-limit-heap-bytes", "-5", negative}, {"-limit-tasks", "-1", negative}, {"-limit-output-bytes", "-1", negative},
		{"-limit-wallclock", "-1s", negative}, {"-clusters", "-1", negative}, {"-slots", "-1", negative},
		{"-accept-timeout", "0", positive},
	} {
		t.Run(tc[0], func(t *testing.T) {
			err := runDaemon([]string{"-addr", "127.0.0.1:0", tc[0], tc[1]}, io.Discard)
			if want := tc[0] + " " + tc[2]; err == nil || err.Error() != want {
				t.Fatalf("%s %s: got error %v, want %q", tc[0], tc[1], err, want)
			}
		})
	}
}

// TestRunStatsHistogramsAndTraceOut covers the observability surfaces of
// "pisces run": -stats grows runtime-metric histogram summaries, and
// -trace-out writes a Chrome trace-event JSON file of the captured spans.
func TestRunStatsHistogramsAndTraceOut(t *testing.T) {
	example := filepath.Join("..", "..", "examples", "sumsq.pf")

	var out strings.Builder
	if err := runInterpreted([]string{"-sim", "-seed", "3", "-stats", example}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"runtime metrics", "distributions",
		"core.heap.charge", "pfi.stmt.ns", "core.accept.wait.ns", "core.heap.msg.bytes",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("pisces run -stats output missing %q:\n%s", want, got)
		}
	}

	traceFile := filepath.Join(t.TempDir(), "trace.json")
	out.Reset()
	if err := runInterpreted([]string{"-trace-out", traceFile, example}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-trace-out file is not valid JSON: %v\n%s", err, data)
	}
	var complete int
	var pfiLane bool
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete++
		}
		if e.Ph == "M" && strings.HasPrefix(e.Args.Name, "pfi/") {
			pfiLane = true
		}
	}
	if complete == 0 || !pfiLane {
		t.Fatalf("trace file has %d complete events, pfi lane %v:\n%s", complete, pfiLane, data)
	}
}

func TestDemoTasksRegistered(t *testing.T) {
	vm, err := pisces.NewVM(pisces.SimpleConfiguration(2, 2), pisces.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()
	registerDemoTasks(vm)
	names := vm.TaskTypes()
	joined := strings.Join(names, ",")
	for _, want := range []string{"hello", "spawner", "force-sum"} {
		if !strings.Contains(joined, want) {
			t.Errorf("demo tasktype %q not registered (have %v)", want, names)
		}
	}
	if _, err := vm.Run("hello", pisces.Any()); err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
}
