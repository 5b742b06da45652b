// Package pfi is the Pisces Fortran interpreter: it executes Pisces Fortran
// (.pf) programs directly on an in-memory core.VM, with no Fortran compiler
// in the loop.  Where internal/pfc translates a program into Fortran 77 plus
// run-time-library calls (the paper's Section 10 tool chain for the real
// FLEX/32), pfi closes the loop for the reproduction: both consume the same
// typed statement AST from pfc.Parse — the only code that reads Pisces
// Fortran text; this package has no tokenizer and no expression parser — and
// pfi maps every Pisces statement onto the Go run-time —
//
//	ON <placement> INITIATE <tasktype>(<args>)  -> Task.Initiate
//	TO <dest> SEND <msgtype>(<args>)            -> Task.Send and friends
//	ACCEPT ... DELAY ... THEN ... END ACCEPT    -> Task.Accept
//	FORCESPLIT                                  -> Task.ForceSplit (the rest of
//	                                               the sequence is the region)
//	BARRIER / CRITICAL / PARSEG                 -> ForceMember equivalents
//	PRESCHED DO / SELFSCHED DO                  -> ForceMember.Presched/Selfsched
//	SHARED COMMON / LOCK / TASKID / WINDOW      -> shared frames, core.Lock,
//	                                               TASKID and WINDOW values
//
// The ordinary Fortran 77 subset covers what the paper's example programs
// use: INTEGER/REAL/LOGICAL/CHARACTER declarations, DIMENSION, assignments,
// arithmetic/relational/logical expressions, one- and two-dimensional arrays,
// logical and block IF, DO loops (label and END DO forms, including nested
// loops sharing one terminator), GOTO, CONTINUE, STOP, RETURN, and
// list-directed PRINT/WRITE.  Fixed-form continuation lines, FORMAT, and
// user subprograms are not interpreted (lines outside TASKTYPE definitions
// are ignored); handler-declared message types behave like signals, with
// their arguments readable through the MSG* intrinsics; statement labels
// belong on ordinary Fortran lines (put a labelled CONTINUE before a Pisces
// statement to make it a GOTO target).
//
// Compilation is pfc.Parse followed by one walk over each tasktype's
// statements (compile.go) that nests the ordinary Fortran lines pfc leaves
// flat — DO loops, block IFs, the FORCESPLIT region — resolves every name to
// a frame-slot index (resolve.go) and emits pre-bound Go closures with folded
// constants and pre-resolved intrinsic dispatch (codegen.go), so execution
// performs no map lookups or string switches.  A line pfc could not
// structure (FORMAT, DATA, plain COMMON, an expression outside the subset)
// arrives as an opaque statement carrying its diagnostic, which is the
// compile error if the line sits where it would execute.  Compiled units are
// cached by source text: compiling the same source again (a repeated
// `pisces run`, a benchmark loop) skips parsing and code generation entirely
// and only allocates the per-Program run state (activity counters, error
// slot).
//
// Inside a FORCESPLIT region, message and terminal statements (INITIATE,
// SEND, ACCEPT, PRINT) are limited to the primary member, and a failing
// statement is recorded and skipped rather than aborting the member — an
// aborting member would strand the others at the next BARRIER — with the
// first recorded error failing the task once the force has joined.  STOP,
// RETURN, and GOTOs out of the region desert the force and are errors for
// every member.
//
// Beyond the standard numeric intrinsics, programs can query the run-time:
// SELF, PARENT, SENDER (taskids), CLUSTER, MEMBER, MEMBERS, QLEN, and — after
// an ACCEPT — TIMEDOUT(), NMSG('T'), and MSGI/MSGR/MSGS/MSGT/MSGW('T', i, j)
// for the j-th argument of the i-th accepted message of type T.
//
// Interpreter activity is counted in a Counters set (statements, initiates,
// sends, accepts, force splits, loop iterations, ...), exposed by
// Program.Counters for reports and regression tracking.
package pfi

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/obs"
	"repro/internal/pfc"
)

// Error is a compile- or run-time error with a source line number: what the
// structure walk, the code generator and execution reject.  Diagnostics
// about the text of a statement are *pfc.Error, from the one parser.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("pfi: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Options tune how a compiled program runs.  The main task is placed ANY.
type Options struct {
	// Main names the tasktype initiated as the program's entry point.  Empty
	// selects the tasktype named MAIN, or the first tasktype in the source.
	Main string
}

// taskProgram is one compiled TASKTYPE: its slot table and closure-compiled
// body.  It is immutable after compilation and shared by every Program that
// resolves to the same cached compiled unit.
type taskProgram struct {
	name       string
	params     []string
	paramSlots []int
	tab        *slotTable
	body       []cstmt
	line       int
}

// compiledUnit is the immutable product of compiling one source text: the
// parsed program plus its slot-compiled tasktypes.  Units are cached and
// shared between Programs; all mutable run state lives on the Program.
type compiledUnit struct {
	source *pfc.Program
	tasks  []*taskProgram
	byName map[string]*taskProgram
	weight int64 // estimated retained bytes, the UnitCache eviction unit
}

// Counters are one program's interpreter activity counters.  They count
// whether or not a metrics registry is collecting, so they are plain
// obs.Counter values the hot interpreter paths bump as fields, not registry
// entries; Snapshot folds them into a run's metric snapshot for reporting.
type Counters struct {
	tasksStarted, tasksCompleted, statements, initiates, sends, accepts,
	acceptTimeouts, forceSplits, barriers, criticals, loopIterations, prints obs.Counter
}

// each visits every counter with the name it reports under, in name order.
func (c *Counters) each(visit func(name string, ctr *obs.Counter)) {
	visit("accept.timeouts", &c.acceptTimeouts)
	visit("accepts", &c.accepts)
	visit("barriers", &c.barriers)
	visit("criticals", &c.criticals)
	visit("forcesplits", &c.forceSplits)
	visit("initiates", &c.initiates)
	visit("loop.iterations", &c.loopIterations)
	visit("prints", &c.prints)
	visit("sends", &c.sends)
	visit("statements", &c.statements)
	visit("tasks.completed", &c.tasksCompleted)
	visit("tasks.started", &c.tasksStarted)
}

// Get returns the current count of the named counter (0 for an unknown name).
func (c *Counters) Get(name string) (v int64) {
	c.each(func(n string, ctr *obs.Counter) {
		if n == name {
			v = ctr.Load()
		}
	})
	return v
}

// Program is a compiled Pisces Fortran program, ready to register its
// tasktypes on a VM and run.
type Program struct {
	// Source is the parsed pfc program the interpreter was compiled from.
	Source *pfc.Program

	unit *compiledUnit
	cs   Counters

	mu     sync.Mutex
	runErr error
}

// Compile parses and compiles Pisces Fortran source text.  Compiled code is
// cached by source text in a bounded process-wide UnitCache, so
// compiling the same program again returns a fresh Program (own counters,
// own error state) over the shared compiled unit without re-parsing.
// Long-lived processes that compile untrusted or unbounded program streams
// should use their own NewUnitCache (or CompileUncached) instead.
func Compile(src string) (*Program, error) {
	return defaultCache.Compile(src)
}

// CompileUncached parses and compiles without consulting or populating the
// compiled-unit cache.  It exists for benchmarks and tools that measure the
// true compilation cost.
func CompileUncached(src string) (*Program, error) {
	u, err := compileUnit(src)
	if err != nil {
		return nil, err
	}
	return newProgram(u), nil
}

// compileUnit runs the full pipeline: pfc.Parse, then one walk per tasktype
// that nests its statements, resolves names to slots, and generates closures.
func compileUnit(src string) (*compiledUnit, error) {
	parsed, err := pfc.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(parsed.TaskTypes) == 0 {
		return nil, errf(1, "program declares no TASKTYPE")
	}
	u := &compiledUnit{
		source: parsed,
		byName: make(map[string]*taskProgram),
	}
	for _, tt := range parsed.TaskTypes {
		tc := &taskCompiler{tab: newSlotTable()}
		paramSlots := make([]int, len(tt.Params))
		for i, p := range tt.Params {
			paramSlots[i] = tc.tab.slotOf(p)
		}
		body, err := tc.compileBody(tt.Body)
		if err != nil {
			return nil, fmt.Errorf("tasktype %s: %w", tt.Name, err)
		}
		tp := &taskProgram{
			name:       tt.Name,
			params:     tt.Params,
			paramSlots: paramSlots,
			tab:        tc.tab,
			body:       body,
			line:       tt.Line,
		}
		if _, dup := u.byName[tp.name]; dup {
			return nil, errf(tt.Line, "tasktype %s defined twice", tt.Name)
		}
		u.tasks = append(u.tasks, tp)
		u.byName[tp.name] = tp
	}
	u.weight = unitWeight(src, u)
	return u, nil
}

// unitWeight estimates the retained size of a compiled unit in bytes: the
// source text (which the cache interns as its key) plus the parsed AST and
// a fixed cost per compiled statement and slot.  Nested statements compile
// into closures reachable from their parent cstmt, so the per-statement
// charge is deliberately generous.  An estimate is all the eviction policy
// needs; exact retained size is not observable in Go anyway.
func unitWeight(src string, u *compiledUnit) int64 {
	w := int64(len(src)) * 2
	for _, tp := range u.tasks {
		w += 256
		w += int64(len(tp.body)) * 192
		w += int64(len(tp.tab.names)) * 96
	}
	return w
}

// newProgram wraps a compiled unit with fresh run state.
func newProgram(u *compiledUnit) *Program {
	return &Program{Source: u.source, unit: u}
}

// TaskTypes returns the compiled tasktype names, sorted.
func (p *Program) TaskTypes() []string {
	out := make([]string, 0, len(p.unit.tasks))
	for _, tp := range p.unit.tasks {
		out = append(out, tp.name)
	}
	sort.Strings(out)
	return out
}

// Counters returns the interpreter's activity counters.
func (p *Program) Counters() *Counters { return &p.cs }

// Snapshot returns the interpreter counters as pfi.<name> counters, ready to
// Merge into a run's metric snapshot: they count with or without a metrics
// registry, so they join it at snapshot time rather than living in one.
func (p *Program) Snapshot() *obs.Snapshot {
	s := &obs.Snapshot{}
	p.cs.each(func(name string, ctr *obs.Counter) {
		s.Counters = append(s.Counters, obs.CounterSnap{Name: "pfi." + name, Value: ctr.Load()})
	})
	return s
}

// Err returns the first run-time error any interpreted task hit, if any.
func (p *Program) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runErr
}

func (p *Program) fail(tp *taskProgram, t *core.Task, err error) {
	p.mu.Lock()
	if p.runErr == nil {
		p.runErr = fmt.Errorf("tasktype %s (task %s): %w", tp.name, t.ID(), err)
	}
	p.mu.Unlock()
	// Surface the failure on the user terminal too, like a crashed task would.
	_ = t.SendUser("print", core.Str(fmt.Sprintf("*** PFI error in TASKTYPE %s: %v\n", tp.name, err)))
}

// Register registers every compiled tasktype on the VM, so INITIATE
// statements (and the execution environment) can start interpreted tasks.
func (p *Program) Register(vm *core.VM) {
	for _, tp := range p.unit.tasks {
		vm.Register(tp.name, p.taskBody(tp))
	}
}

// taskBody builds the Go tasktype body that interprets one task.
func (p *Program) taskBody(tp *taskProgram) func(*core.Task) {
	return func(t *core.Task) {
		p.cs.tasksStarted.Inc()
		st := &execState{
			p:     p,
			tp:    tp,
			t:     t,
			f:     newFrame(tp.tab),
			locks: &lockTable{byName: make(map[string]*core.Lock)},
			yield: t.VM().Deterministic(),
		}
		// The enable mask is sampled once per task, like yield: a task that
		// starts with metrics off interprets with zero instrumentation cost.
		reg := t.VM().Obs()
		if reg.Has(obs.Metrics) {
			st.obsReg = reg
			st.obsStmt = reg.Histogram("pfi.stmt.ns", "ns")
		}
		if start := reg.SpanStart(); !start.IsZero() {
			id := t.ID()
			defer reg.Emit(&obs.Event{Kind: obs.TaskBody, Task: obs.TaskRef(id), A: int64(id.Cluster), Type: tp.name, Start: start})
		}
		if err := st.bindParams(); err != nil {
			p.fail(tp, t, err)
			return
		}
		c, err := st.execSeq(tp.body)
		if err != nil {
			p.fail(tp, t, err)
			return
		}
		if c.kind == ctlGoto {
			p.fail(tp, t, fmt.Errorf("GOTO %s: no such statement label reachable in TASKTYPE %s", c.label, tp.name))
			return
		}
		p.cs.tasksCompleted.Inc()
	}
}

// bindParams binds the INITIATE argument list to the tasktype's parameter
// slots.
func (st *execState) bindParams() error {
	args := st.t.Args()
	if len(args) > len(st.tp.params) {
		return fmt.Errorf("tasktype %s takes %d parameter(s), initiated with %d argument(s)",
			st.tp.name, len(st.tp.params), len(args))
	}
	for i, param := range st.tp.params {
		if i >= len(args) {
			return fmt.Errorf("tasktype %s takes %d parameter(s), initiated with %d argument(s)",
				st.tp.name, len(st.tp.params), len(args))
		}
		v := &args[i]
		b := &st.f.slots[st.tp.paramSlots[i]]
		switch v.Kind {
		case msgcodec.KindIntArray:
			ints := v.IntArray()
			a := newArray(kInt, len(ints), 0)
			for j, x := range ints {
				a.data[j] = intVal(x)
			}
			b.arr = a
		case msgcodec.KindRealArray:
			a := newArray(kReal, len(v.RealArray), 0)
			for j, x := range v.RealArray {
				a.data[j] = realVal(x)
			}
			b.arr = a
		default:
			val, err := fromCoreValue(v)
			if err != nil {
				return fmt.Errorf("parameter %s: %v", param, err)
			}
			b.kind = val.kind
			b.v = val
		}
	}
	return nil
}

// MainTaskType resolves the program's entry tasktype: the explicit name if
// given, else MAIN, else the first tasktype in the source.
func (p *Program) MainTaskType(main string) (string, error) {
	if main != "" {
		name := strings.ToUpper(main)
		if _, ok := p.unit.byName[name]; !ok {
			return "", fmt.Errorf("pfi: tasktype %q not found (have %v)", main, p.TaskTypes())
		}
		return name, nil
	}
	if _, ok := p.unit.byName["MAIN"]; ok {
		return "MAIN", nil
	}
	return p.unit.tasks[0].name, nil
}

// Run registers the program's tasktypes on the VM, initiates the main
// tasktype with the given arguments, and waits until every task the program
// started has terminated and its terminal output has been flushed.  It
// returns the first run-time error any interpreted task hit.  A program may
// be Run repeatedly (each Run reports only its own errors; the activity
// counters accumulate across runs).
func (p *Program) Run(vm *core.VM, opts Options, args ...core.Value) error {
	p.mu.Lock()
	p.runErr = nil
	p.mu.Unlock()
	p.Register(vm)
	main, err := p.MainTaskType(opts.Main)
	if err != nil {
		return err
	}
	if _, err := vm.Run(main, core.Any(), args...); err != nil {
		return err
	}
	vm.WaitIdle()
	vm.FlushUserOutput()
	return p.Err()
}

// Interpret compiles the source and runs it on the VM in one call: the
// "pisces run" path.
func Interpret(vm *core.VM, src string, opts Options, args ...core.Value) (*Program, error) {
	p, err := Compile(src)
	if err != nil {
		return nil, err
	}
	if err := p.Run(vm, opts, args...); err != nil {
		return p, err
	}
	return p, nil
}
