package exec

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/trace"
)

// syncBuffer is a goroutine-safe buffer for capturing output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newEnv boots a VM with a waiting tasktype registered and an execution
// environment over it.
func newEnv(t *testing.T) (*Environment, *syncBuffer) {
	t.Helper()
	out := &syncBuffer{}
	vm, err := core.NewVM(config.Simple(2, 2), core.Options{UserOutput: out, AcceptTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(vm.Shutdown)
	vm.Register("waiter", func(task *core.Task) {
		_, _ = task.Accept(core.AcceptSpec{
			Total: 1,
			Types: []core.TypeCount{{Type: "stop"}},
			Delay: core.Forever,
		})
	})
	vm.Register("echo", func(task *core.Task) {
		task.Printf("echo ran with %d args\n", len(task.Args()))
	})
	return New(vm, out), out
}

func TestMenuAndHelp(t *testing.T) {
	env, out := newEnv(t)
	if err := env.Execute("help"); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"TERMINATE THE RUN", "INITIATE A TASK", "KILL A TASK", "SEND A MESSAGE",
		"DELETE MESSAGES", "DISPLAY RUNNING TASKS", "DISPLAY MESSAGE QUEUE",
		"DUMP SYSTEM STATE", "DISPLAY PE LOADING", "CHANGE TRACE OPTIONS",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("menu missing %q", want)
		}
	}
}

func TestInitiateKillAndDisplays(t *testing.T) {
	env, out := newEnv(t)

	// Menu option 1: INITIATE A TASK.
	if err := env.Execute("initiate waiter cluster 2"); err != nil {
		t.Fatal(err)
	}
	line := lastLine(out.String())
	if !strings.Contains(line, "initiated waiter as task 2.") {
		t.Fatalf("initiate output %q", line)
	}
	id := strings.Fields(line)[len(strings.Fields(line))-1]

	// Menu option 5: DISPLAY RUNNING TASKS.
	if err := env.Execute("5"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "waiter") {
		t.Fatal("running-task display missing the initiated task")
	}

	// Menu option 3 / 6: send a message, display the queue.
	if err := env.Execute("send " + id + " note 42 3.5 hello"); err != nil {
		t.Fatal(err)
	}
	if err := env.Execute("queue " + id); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "note") {
		t.Fatal("queue display missing the queued message")
	}

	// Menu option 4: DELETE MESSAGES.
	if err := env.Execute("delete " + id + " note"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "deleted 1 message(s)") {
		t.Fatal("delete output missing")
	}

	// Menu option 8: DISPLAY PE LOADING; option 7: DUMP SYSTEM STATE.
	if err := env.Execute("loading"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "MAX-MULTIPROG") {
		t.Fatal("loading display missing")
	}
	if err := env.Execute("dump"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "system state dump") {
		t.Fatal("dump output missing")
	}
	if err := env.Execute("figure1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "VIRTUAL MACHINE ORGANIZATION") {
		t.Fatal("figure1 output missing")
	}

	// Menu option 2: KILL A TASK.
	if err := env.Execute("kill " + id); err != nil {
		t.Fatal(err)
	}
	env.vm.WaitIdle()
}

func TestTraceOptionsCommand(t *testing.T) {
	env, out := newEnv(t)
	if err := env.Execute("trace msg-send on"); err != nil {
		t.Fatal(err)
	}
	if err := env.Execute("trace show"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "MSG-SEND    ON") {
		t.Fatalf("trace settings not shown:\n%s", out.String())
	}
	if err := env.Execute("trace all on"); err != nil {
		t.Fatal(err)
	}
	if err := env.Execute("trace all off"); err != nil {
		t.Fatal(err)
	}
	if err := env.Execute("trace bogus on"); err == nil {
		t.Fatal("unknown trace event accepted")
	}
	if err := env.Execute("trace msg-send sideways"); err == nil {
		t.Fatal("bad trace setting accepted")
	}
}

// TestTraceTaskCommand drives Section 12's per-task switch from option 9:
// with every event type on, "trace task <taskid> off" silences exactly that
// task's lines, "trace show" lists it, and "on" brings it back.
func TestTraceTaskCommand(t *testing.T) {
	out := &syncBuffer{}
	sink := &trace.MemorySink{}
	vm, err := core.NewVM(config.Simple(2, 2), core.Options{
		UserOutput: out, AcceptTimeout: 2 * time.Second, TraceSinks: []trace.Sink{sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(vm.Shutdown)
	vm.Register("waiter", func(task *core.Task) { _, _ = task.AcceptOne("stop") })
	env := New(vm, out)
	if err := env.Execute("trace all on"); err != nil {
		t.Fatal(err)
	}
	quiet, err := vm.Initiate("waiter", core.OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	loud, err := vm.Initiate("waiter", core.OnCluster(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Execute("trace task " + quiet.String() + " off"); err != nil {
		t.Fatal(err)
	}
	if err := env.Execute("trace show"); err != nil {
		t.Fatal(err)
	}
	if want := "disabled tasks: " + quiet.String() + "\n"; !strings.Contains(out.String(), want) {
		t.Fatalf("trace show does not list the silenced task (%q):\n%s", want, out.String())
	}
	before := len(sink.Events())
	for _, id := range []core.TaskID{quiet, loud} {
		if err := env.Execute("send " + id.String() + " stop"); err != nil {
			t.Fatal(err)
		}
	}
	vm.WaitIdle()
	var loudLines int
	for _, e := range sink.Events()[before:] {
		switch e.Task {
		case quiet.String():
			t.Errorf("silenced task still traced: %s", e.Line())
		case loud.String():
			loudLines++
		}
	}
	if loudLines < 2 { // its MSG-ACCEPT and its TASK-TERM
		t.Errorf("the other task printed %d trace lines, want its accept and its termination", loudLines)
	}

	if err := env.Execute("trace task " + quiet.String() + " on"); err != nil {
		t.Fatal(err)
	}
	if got := vm.Obs().TraceSettings(); strings.Contains(got, "disabled tasks") {
		t.Errorf("task still listed after being switched back on:\n%s", got)
	}
	for _, bad := range []string{"trace task bogus on", "trace task 1.1.1 sideways", "trace task 1.1.1", "trace task 1.1.1 on off"} {
		if err := env.Execute(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestErrorsAndUsage(t *testing.T) {
	env, _ := newEnv(t)
	bad := []string{
		"initiate",
		"initiate nosuchtype",
		"initiate waiter cluster nine",
		"kill",
		"kill notataskid",
		"kill 9.9.9",
		"send",
		"send 9.9.9 msg",
		"queue",
		"queue bad-id",
		"queue 9.9.9",
		"delete",
		"delete bad-id",
		"nonsense",
		"42",
	}
	for _, cmd := range bad {
		if err := env.Execute(cmd); err == nil {
			t.Errorf("command %q should fail", cmd)
		}
	}
	// Empty lines are ignored.
	if err := env.Execute("   "); err != nil {
		t.Errorf("blank line: %v", err)
	}
}

func TestValueParsing(t *testing.T) {
	vals, err := parseValues([]string{"42", "-3", "2.5", "1e3", "true", "false", `"quoted"`, "bare"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 8 {
		t.Fatalf("parsed %d values", len(vals))
	}
	if v, _ := core.AsInt(vals[0]); v != 42 {
		t.Error("integer parse")
	}
	if v, _ := core.AsInt(vals[1]); v != -3 {
		t.Error("negative integer parse")
	}
	if v, _ := core.AsReal(vals[2]); v != 2.5 {
		t.Error("real parse")
	}
	if v, _ := core.AsReal(vals[3]); v != 1000 {
		t.Error("exponent real parse")
	}
	if v, _ := core.AsBool(vals[4]); !v {
		t.Error("true parse")
	}
	if v, _ := core.AsStr(vals[6]); v != "quoted" {
		t.Error("quoted string parse")
	}
	if v, _ := core.AsStr(vals[7]); v != "bare" {
		t.Error("bare string parse")
	}
}

func TestReplAndTerminate(t *testing.T) {
	env, out := newEnv(t)
	script := strings.Join([]string{
		"help",
		"initiate echo any 1 2 3",
		"tasks",
		"bogus-command",
		"0",
	}, "\n")
	if err := env.Repl(strings.NewReader(script), true); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "initiated echo") {
		t.Error("repl did not initiate the task")
	}
	if !strings.Contains(text, "error: exec: unknown command") {
		t.Error("repl did not report the bad command")
	}
	if !strings.Contains(text, "run terminated") {
		t.Error("repl did not terminate the run")
	}
	// Further commands on a terminated VM fail cleanly.
	if err := env.Execute("initiate echo"); err == nil {
		t.Error("initiate after termination should fail")
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
