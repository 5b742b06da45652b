package pfc

import (
	"fmt"
	"strconv"
	"strings"
)

// Emit generates standard Fortran 77 text with calls on the PISCES run-time
// library from a parsed program.  Each TASKTYPE becomes a SUBROUTINE named
// PT<name> whose dummy arguments are the tasktype parameters; a registration
// subroutine PSRGTT is appended so the run-time can map tasktype names to the
// generated subroutines.
func Emit(prog *Program, opts Options) (string, error) {
	e := &emitter{opts: opts, nextLabel: 90000}
	e.comment("Generated by the PISCES 2 preprocessor - do not edit")
	for _, tt := range prog.TaskTypes {
		if err := e.emitTaskType(tt); err != nil {
			return "", err
		}
	}
	for _, l := range prog.Other {
		if IsComment(l) && !opts.KeepComments {
			continue
		}
		e.raw(l)
	}
	e.emitRegistration(prog)
	return e.String(), nil
}

type emitter struct {
	opts      Options
	b         strings.Builder
	nextLabel int
	// pendingSelfsched maps a user loop label to the generated loop-start
	// label of the enclosing SELFSCHED DO, so the loop terminator can be
	// rewritten into the claim-next-iteration jump.
	pendingSelfsched map[string]selfschedLoop
}

type selfschedLoop struct {
	startLabel int
	exitLabel  int
}

func (e *emitter) String() string { return e.b.String() }

// call emits "      CALL <prefix><name>(<args>)".
func (e *emitter) call(name string, args ...string) {
	fmt.Fprintf(&e.b, "      CALL %s%s", e.opts.prefix(), name)
	if len(args) > 0 {
		fmt.Fprintf(&e.b, "(%s)", strings.Join(args, ", "))
	}
	e.b.WriteString("\n")
}

// stmt emits an ordinary statement with standard indentation.
func (e *emitter) stmt(s string) { fmt.Fprintf(&e.b, "      %s\n", s) }

// labeled emits a statement carrying a numeric label.
func (e *emitter) labeled(label int, s string) { fmt.Fprintf(&e.b, "%-6d%s\n", label, s) }

// comment emits a full-line comment.
func (e *emitter) comment(s string) { fmt.Fprintf(&e.b, "C %s\n", s) }

// raw copies a source line through unchanged (it may contain embedded
// newlines when a parsed declaration expanded into several lines).
func (e *emitter) raw(s string) {
	e.b.WriteString(s)
	e.b.WriteString("\n")
}

func (e *emitter) newLabel() int {
	e.nextLabel++
	return e.nextLabel
}

func (e *emitter) emitTaskType(tt *TaskTypeDef) error {
	e.comment(fmt.Sprintf("---- tasktype %s ----", tt.Name))
	header := "SUBROUTINE PT" + tt.Name
	if len(tt.Params) > 0 {
		header += "(" + strings.Join(tt.Params, ", ") + ")"
	}
	e.stmt(header)
	e.stmt("LOGICAL PSPRIM, PSTIME, PSDONE")
	e.pendingSelfsched = make(map[string]selfschedLoop)
	if err := e.emitBody(tt.Body); err != nil {
		return err
	}
	if len(e.pendingSelfsched) > 0 {
		for label := range e.pendingSelfsched {
			return errf(tt.Line, "SELFSCHED DO loop ending at label %s has no terminating statement in tasktype %s", label, tt.Name)
		}
	}
	e.call("EXIT")
	e.stmt("END")
	return nil
}

func (e *emitter) emitBody(body []Stmt) error {
	for _, st := range body {
		if err := e.emitStmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (e *emitter) emitStmt(st Stmt) error {
	switch st.Kind {
	case StmtInitiate:
		where := source(st.Where.Src)
		e.comment(fmt.Sprintf("ON %s INITIATE %s", withOperand(placeWord[st.Place], where), st.Name))
		e.emitStaged(st.Args)
		e.call("INIT", quote(st.Name), quote(placeWord[st.Place]), orZero(where))
		return nil
	case StmtSend:
		where := source(st.Where.Src)
		e.comment(fmt.Sprintf("TO %s SEND %s", withOperand(destWord[st.Dest], where), st.Name))
		e.emitStaged(st.Args)
		e.call("SEND", quote(st.Name), quote(destCall[st.Dest]), orZero(where))
		return nil
	case StmtAccept:
		return e.emitAccept(st)
	case StmtForceSplit:
		e.comment("FORCESPLIT")
		e.call("FORK")
		return nil
	case StmtBarrier:
		return e.emitBarrier(st)
	case StmtCritical:
		return e.emitCritical(st)
	case StmtPreschedDo:
		return e.emitPresched(st)
	case StmtSelfschedDo:
		return e.emitSelfsched(st)
	case StmtParseg:
		return e.emitParseg(st)
	case StmtSharedCommon:
		e.stmt("COMMON /" + st.Name + "/ " + declare(st.Decls, 0))
		e.comment("PISCES: COMMON /" + st.Name + "/ is allocated in shared memory")
		return nil
	case StmtLockDecl:
		e.stmt("INTEGER " + declare(st.Decls, 0))
		e.comment("PISCES: LOCK variable(s)")
		return nil
	case StmtTaskIDDecl:
		e.stmt("INTEGER " + declare(st.Decls, 3))
		e.comment("PISCES: TASKID variable(s)")
		return nil
	case StmtWindowDecl:
		e.stmt("INTEGER " + declare(st.Decls, 8))
		e.comment("PISCES: WINDOW variable(s)")
		return nil
	case StmtHandlerDecl:
		e.stmt("EXTERNAL " + st.Name)
		e.call("HNDL", quote(st.Name), st.Name)
		return nil
	case StmtSignalDecl:
		e.call("SGNL", quote(st.Name))
		return nil
	default: // ordinary Fortran
		return e.emitFortranLine(st)
	}
}

// emitFortranLine passes an ordinary line through, rewriting it if it is the
// terminating statement of a pending SELFSCHED DO loop.
func (e *emitter) emitFortranLine(st Stmt) error {
	if IsComment(st.Text) {
		if e.opts.KeepComments {
			e.raw(st.Text)
		}
		return nil
	}
	if label := st.Label; label != "" {
		if loop, ok := e.pendingSelfsched[label]; ok {
			delete(e.pendingSelfsched, label)
			// The user's loop-terminating statement executes as the last
			// statement of the body, then control returns to claim the next
			// iteration.
			e.raw(st.Text)
			e.comment(fmt.Sprintf("end of SELFSCHED DO %s", label))
			e.stmt(fmt.Sprintf("GOTO %d", loop.startLabel))
			e.labeled(loop.exitLabel, "CONTINUE")
			return nil
		}
	}
	e.raw(st.Text)
	return nil
}

// emitStaged stages the argument list of a SEND or INITIATE.
func (e *emitter) emitStaged(args []Operand) {
	e.call("MSG0")
	for _, a := range args {
		e.call("MSGA", source(a.Src))
	}
}

func (e *emitter) emitAccept(st Stmt) error {
	acc := st.Accept
	e.comment("ACCEPT")
	e.call("ACIN")
	for _, ty := range acc.Types {
		count := orZero(source(ty.Count.Src))
		if ty.All {
			count = "-1"
		}
		e.call("ACTY", quote(ty.Name), count)
	}
	delay := source(acc.Delay.Src)
	if delay == "" {
		delay = "-1"
	}
	e.call("ACGO", orZero(source(acc.Total.Src)), delay, "PSTIME")
	if len(acc.OnTimeout) > 0 {
		skip := e.newLabel()
		e.stmt(fmt.Sprintf("IF (.NOT. PSTIME) GOTO %d", skip))
		e.comment("DELAY ... THEN")
		if err := e.emitBody(acc.OnTimeout); err != nil {
			return err
		}
		e.labeled(skip, "CONTINUE")
	}
	return nil
}

func (e *emitter) emitBarrier(st Stmt) error {
	e.comment("BARRIER")
	e.call("BARR", "PSPRIM")
	skip := e.newLabel()
	e.stmt(fmt.Sprintf("IF (.NOT. PSPRIM) GOTO %d", skip))
	if err := e.emitBody(st.Body); err != nil {
		return err
	}
	e.labeled(skip, "CONTINUE")
	e.call("BARX")
	return nil
}

func (e *emitter) emitCritical(st Stmt) error {
	e.comment("CRITICAL " + st.Name)
	e.call("LOCK", st.Name)
	if err := e.emitBody(st.Body); err != nil {
		return err
	}
	e.call("UNLK", st.Name)
	return nil
}

// emitPresched rewrites the DO header so member I of an N-member force takes
// iterations I, N+I, 2N+I, ...; the user's loop body and terminator are
// unchanged.
func (e *emitter) emitPresched(st Stmt) error {
	e.comment(fmt.Sprintf("PRESCHED DO %s", st.DoLabel))
	step := source(st.Step.Src)
	e.stmt(fmt.Sprintf("DO %s %s = (%s) + (%sMEMB()-1)*(%s), %s, (%s)*%sNMEM()",
		st.DoLabel, st.Name, source(st.Lo.Src), e.opts.prefix(), step, source(st.Hi.Src), step, e.opts.prefix()))
	return nil
}

// emitSelfsched rewrites the loop into a claim-next-iteration loop; the
// terminating labeled statement is rewritten when it is reached.
func (e *emitter) emitSelfsched(st Stmt) error {
	start := e.newLabel()
	exit := e.newLabel()
	e.comment(fmt.Sprintf("SELFSCHED DO %s", st.DoLabel))
	e.call("SSIN", source(st.Lo.Src), source(st.Hi.Src), source(st.Step.Src))
	e.labeled(start, fmt.Sprintf("CALL %sSSNX(%s, PSDONE)", e.opts.prefix(), st.Name))
	e.stmt(fmt.Sprintf("IF (PSDONE) GOTO %d", exit))
	e.pendingSelfsched[st.DoLabel] = selfschedLoop{startLabel: start, exitLabel: exit}
	return nil
}

func (e *emitter) emitParseg(st Stmt) error {
	e.comment("PARSEG")
	n := len(st.Segments)
	for i, seg := range st.Segments {
		skip := e.newLabel()
		e.stmt(fmt.Sprintf("IF (.NOT. %sSEG(%d, %d)) GOTO %d", e.opts.prefix(), i+1, n, skip))
		if err := e.emitBody(seg); err != nil {
			return err
		}
		e.labeled(skip, "CONTINUE")
	}
	e.comment("ENDSEG")
	return nil
}

// emitRegistration appends the tasktype registration table.
func (e *emitter) emitRegistration(prog *Program) {
	e.comment("---- tasktype registration table ----")
	e.stmt("SUBROUTINE " + e.opts.prefix() + "RGTT")
	if len(prog.TaskTypes) > 0 {
		names := make([]string, len(prog.TaskTypes))
		for i, tt := range prog.TaskTypes {
			names[i] = "PT" + tt.Name
		}
		e.stmt("EXTERNAL " + strings.Join(names, ", "))
	}
	for _, tt := range prog.TaskTypes {
		e.call("RGST", quote(tt.Name), "PT"+tt.Name)
	}
	e.stmt("END")
}

// source renders source text the way the generated Fortran spells it:
// upper-cased, runs of blanks collapsed to one — except inside character
// literals, which are copied exactly.
func source(src string) string {
	var b strings.Builder
	quote, blank := byte(0), false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == ' ' || c == '\t':
			blank = true
			continue
		case c == '\'' || c == '"':
			quote = c
		case c >= 'a' && c <= 'z':
			c -= 'a' - 'A'
		}
		if blank {
			b.WriteByte(' ')
			blank = false
		}
		b.WriteByte(c)
	}
	return b.String()
}

// withOperand spells a placement or destination form with its operand.
func withOperand(word, where string) string {
	if word == "" || where == "" {
		return word + where
	}
	return word + " " + where
}

// orZero is the run-time library's spelling of an absent operand.
func orZero(s string) string {
	if s == "" {
		return "0"
	}
	return s
}

// declare renders declaration entries.  With words > 0 every name gets that
// many words of INTEGER storage (TASKID values occupy 3 integers, WINDOW
// values 8): "W" becomes "W(8)", and an entry that already carries array
// extents, such as "IDS(4)", becomes a two-dimensional block "IDS(3, 4)".
func declare(items []DeclItem, words int) string {
	parts := make([]string, len(items))
	for i, d := range items {
		text := source(d.Src)
		switch j := strings.Index(text, "("); {
		case words == 0:
		case j >= 0 && strings.HasSuffix(text, ")"):
			text = text[:j+1] + strconv.Itoa(words) + ", " + strings.TrimSpace(text[j+1:])
		default:
			text += "(" + strconv.Itoa(words) + ")"
		}
		parts[i] = text
	}
	return strings.Join(parts, ", ")
}

func quote(s string) string { return "'" + s + "'" }
