// Package exec implements the PISCES 2 execution environment (paper, Section
// 11): the menu-driven program that controls a run once the loadfile has been
// downloaded to the MMOS PEs.  The original displayed a menu with the options
//
//	0 TERMINATE THE RUN          5 DISPLAY RUNNING TASKS
//	1 INITIATE A TASK            6 DISPLAY MESSAGE QUEUE
//	2 KILL A TASK                7 DUMP SYSTEM STATE
//	3 SEND A MESSAGE             8 DISPLAY PE LOADING
//	4 DELETE MESSAGES            9 CHANGE TRACE OPTIONS
//
// This package provides the same ten operations as a command interpreter over
// a running core.VM.  Commands may be given either by menu number or by name,
// so the environment is usable both interactively (cmd/pisces) and from
// scripts and tests.
package exec

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Environment is one execution-environment session bound to a VM.
type Environment struct {
	vm  *core.VM
	out io.Writer
}

// New creates an execution environment controlling vm and writing its
// displays to out.
func New(vm *core.VM, out io.Writer) *Environment {
	return &Environment{vm: vm, out: out}
}

// Menu returns the option menu exactly as the Section 11 implementation
// displayed it.
func Menu() string {
	return `PISCES 2 EXECUTION ENVIRONMENT
 0  TERMINATE THE RUN
 1  INITIATE A TASK        (initiate <tasktype> [cluster <n>|any|other|same] [args...])
 2  KILL A TASK            (kill <taskid>)
 3  SEND A MESSAGE         (send <taskid> <msgtype> [args...])
 4  DELETE MESSAGES        (delete <taskid> [msgtype])
 5  DISPLAY RUNNING TASKS  (tasks)
 6  DISPLAY MESSAGE QUEUE  (queue <taskid>)
 7  DUMP SYSTEM STATE      (dump)
 8  DISPLAY PE LOADING     (loading)
 9  CHANGE TRACE OPTIONS   (trace <event>|all on|off, trace task <taskid> on|off, trace show)
    help, figure1
`
}

// ErrTerminated is returned by Execute for the TERMINATE THE RUN command so
// interactive loops know to stop.
var ErrTerminated = fmt.Errorf("exec: run terminated")

// Execute runs one command line and writes its output.  Menu numbers 0-9 and
// the named forms shown by Menu are both understood.
func (e *Environment) Execute(line string) error {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		return nil
	}
	cmd := strings.ToLower(fields[0])
	args := fields[1:]

	// Menu numbers map onto named commands.
	if n, err := strconv.Atoi(cmd); err == nil {
		names := map[int]string{
			0: "terminate", 1: "initiate", 2: "kill", 3: "send", 4: "delete",
			5: "tasks", 6: "queue", 7: "dump", 8: "loading", 9: "trace",
		}
		name, ok := names[n]
		if !ok {
			return fmt.Errorf("exec: no menu option %d", n)
		}
		cmd = name
	}

	switch cmd {
	case "help", "menu":
		fmt.Fprint(e.out, Menu())
		return nil
	case "terminate", "quit", "exit":
		e.vm.Shutdown()
		fmt.Fprintln(e.out, "run terminated")
		return ErrTerminated
	case "initiate":
		return e.initiate(args)
	case "kill":
		return e.kill(args)
	case "send":
		return e.send(args)
	case "delete":
		return e.deleteMessages(args)
	case "tasks":
		return e.displayTasks()
	case "queue":
		return e.displayQueue(args)
	case "dump":
		e.vm.DumpState(e.out)
		return nil
	case "loading":
		return e.displayLoading()
	case "trace":
		return e.traceOptions(args)
	case "figure1":
		e.vm.RenderFigure1(e.out)
		return nil
	default:
		return fmt.Errorf("exec: unknown command %q (try help)", cmd)
	}
}

// Repl reads command lines from in until EOF or TERMINATE THE RUN, echoing
// errors to the output; it is the interactive loop of cmd/pisces.
func (e *Environment) Repl(in io.Reader, prompt bool) error {
	sc := bufio.NewScanner(in)
	for {
		if prompt {
			fmt.Fprint(e.out, "pisces> ")
		}
		if !sc.Scan() {
			return sc.Err()
		}
		err := e.Execute(sc.Text())
		if err == ErrTerminated {
			return nil
		}
		if err != nil {
			fmt.Fprintf(e.out, "error: %v\n", err)
		}
	}
}

// initiate: INITIATE A TASK.
func (e *Environment) initiate(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("exec: usage: initiate <tasktype> [cluster <n>|any|other|same] [args...]")
	}
	tasktype := args[0]
	rest := args[1:]
	placement := core.Any()
	if len(rest) > 0 {
		switch strings.ToLower(rest[0]) {
		case "cluster":
			if len(rest) < 2 {
				return fmt.Errorf("exec: cluster placement needs a number")
			}
			n, err := strconv.Atoi(rest[1])
			if err != nil {
				return fmt.Errorf("exec: bad cluster number %q", rest[1])
			}
			placement = core.OnCluster(n)
			rest = rest[2:]
		case "any":
			placement = core.Any()
			rest = rest[1:]
		case "other":
			placement = core.Other()
			rest = rest[1:]
		case "same":
			placement = core.Same()
			rest = rest[1:]
		}
	}
	values, err := parseValues(rest)
	if err != nil {
		return err
	}
	id, err := e.vm.Initiate(tasktype, placement, values...)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "initiated %s as task %s\n", tasktype, id)
	return nil
}

// kill: KILL A TASK.
func (e *Environment) kill(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("exec: usage: kill <taskid>")
	}
	id, err := core.ParseTaskID(args[0])
	if err != nil {
		return err
	}
	if err := e.vm.Kill(id); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "killed task %s\n", id)
	return nil
}

// send: SEND A MESSAGE.
func (e *Environment) send(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("exec: usage: send <taskid> <msgtype> [args...]")
	}
	id, err := core.ParseTaskID(args[0])
	if err != nil {
		return err
	}
	values, err := parseValues(args[2:])
	if err != nil {
		return err
	}
	if err := e.vm.SendFromUser(id, args[1], values...); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "sent %s to %s\n", args[1], id)
	return nil
}

// deleteMessages: DELETE MESSAGES.
func (e *Environment) deleteMessages(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("exec: usage: delete <taskid> [msgtype]")
	}
	id, err := core.ParseTaskID(args[0])
	if err != nil {
		return err
	}
	msgType := ""
	if len(args) == 2 {
		msgType = args[1]
	}
	n, err := e.vm.DeleteMessages(id, msgType)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "deleted %d message(s) from the in-queue of %s\n", n, id)
	return nil
}

// displayTasks: DISPLAY RUNNING TASKS.
func (e *Environment) displayTasks() error {
	tasks := e.vm.RunningTasks()
	fmt.Fprintf(e.out, "%-12s %-28s %-8s %-4s %-4s %-9s %s\n",
		"TASKID", "TASKTYPE", "CLUSTER", "SLOT", "PE", "STATE", "QUEUED")
	for _, ti := range tasks {
		fmt.Fprintf(e.out, "%-12s %-28s %-8d %-4d %-4d %-9s %d\n",
			ti.ID, ti.TaskType, ti.Cluster, ti.Slot, ti.PE, ti.State, ti.QueueLen)
	}
	fmt.Fprintf(e.out, "%d task(s)\n", len(tasks))
	return nil
}

// displayQueue: DISPLAY MESSAGE QUEUE.
func (e *Environment) displayQueue(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("exec: usage: queue <taskid>")
	}
	id, err := core.ParseTaskID(args[0])
	if err != nil {
		return err
	}
	msgs, err := e.vm.MessageQueue(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "in-queue of %s: %d message(s)\n", id, len(msgs))
	for i, m := range msgs {
		fmt.Fprintf(e.out, "  %2d  %-20s from %-12s args=%d bytes=%d\n", i, m.Type, m.Sender, m.Args, m.Bytes)
	}
	return nil
}

// displayLoading: DISPLAY PE LOADING.
func (e *Environment) displayLoading() error {
	fmt.Fprintf(e.out, "%-4s %-6s %-7s %-12s %-18s %s\n", "PE", "KIND", "PROCS", "TICKS", "LOCAL USED", "MAX-MULTIPROG")
	for _, pl := range e.vm.PELoading() {
		kind := "mmos"
		if pl.Unix {
			kind = "unix"
		}
		fmt.Fprintf(e.out, "%-4d %-6s %-7d %-12d %-18s %d\n",
			pl.PE, kind, pl.BoundProcs, pl.Ticks,
			fmt.Sprintf("%d/%d", pl.LocalUsed, pl.LocalTotal), pl.MaxMultiprog)
	}
	return nil
}

// traceOptions: CHANGE TRACE OPTIONS.
func (e *Environment) traceOptions(args []string) error {
	reg := e.vm.Obs()
	if len(args) == 0 || args[0] == "show" {
		fmt.Fprint(e.out, reg.TraceSettings())
		return nil
	}
	// "trace task <taskid> on|off" is the per-task switch of Section 12; the
	// other forms switch an event type.
	perTask := len(args) == 3 && strings.EqualFold(args[0], "task")
	if len(args) != 2 && !perTask {
		return fmt.Errorf("exec: usage: trace <event>|all on|off, trace task <taskid> on|off, or trace show")
	}
	setting := args[len(args)-1]
	on := false
	switch strings.ToLower(setting) {
	case "on":
		on = true
	case "off":
		on = false
	default:
		return fmt.Errorf("exec: trace setting must be on or off, got %q", setting)
	}
	if perTask {
		id, err := core.ParseTaskID(args[1])
		if err != nil {
			return err
		}
		reg.TraceTask(obs.TaskRef(id), on)
		fmt.Fprintf(e.out, "tracing of task %s %s\n", id, onOff(on))
		return nil
	}
	if strings.EqualFold(args[0], "all") {
		reg.TraceAll(on)
		fmt.Fprintf(e.out, "all trace events %s\n", onOff(on))
		return nil
	}
	kind, err := trace.ParseKind(strings.ToUpper(args[0]))
	if err != nil {
		return err
	}
	reg.TraceKind(kind, on)
	fmt.Fprintf(e.out, "%s tracing %s\n", kind, onOff(on))
	return nil
}

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

// parseValues converts command-line argument tokens into message/task
// argument values: integers, reals, true/false, quoted or bare strings.
func parseValues(tokens []string) ([]core.Value, error) {
	var out []core.Value
	for _, tok := range tokens {
		switch {
		case tok == "true" || tok == "false":
			out = append(out, core.Bool(tok == "true"))
		case looksLikeInt(tok):
			v, err := strconv.ParseInt(tok, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("exec: bad integer %q", tok)
			}
			out = append(out, core.Int(v))
		case looksLikeReal(tok):
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, fmt.Errorf("exec: bad real %q", tok)
			}
			out = append(out, core.Real(v))
		default:
			out = append(out, core.Str(strings.Trim(tok, `"'`)))
		}
	}
	return out, nil
}

func looksLikeInt(s string) bool {
	if s == "" {
		return false
	}
	start := 0
	if s[0] == '-' || s[0] == '+' {
		if len(s) == 1 {
			return false
		}
		start = 1
	}
	for _, c := range s[start:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func looksLikeReal(s string) bool {
	if !strings.ContainsAny(s, ".eE") {
		return false
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}
