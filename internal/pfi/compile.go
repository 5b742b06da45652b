package pfi

import (
	"fmt"
	"slices"

	"repro/internal/pfc"
)

// compiler turns one statement sequence of a parsed program into closures,
// in a single walk that is both the structure pass and the statement code
// generator.  pfc.Parse hands over the ordinary Fortran lines of a body flat,
// in source order; this walk nests them — DO loops up to their terminator
// label or END DO, block IFs up to END IF, the FORCESPLIT region to the end
// of its sequence — and emits each statement's closure as it goes.  It reads
// no source text: every statement arrives typed from the one parser.
type compiler struct {
	tc    *taskCompiler
	stmts []pfc.Stmt
	pos   int
	// closedLabels records DO-terminator labels already consumed by a nested
	// loop, so nested DO loops sharing one terminator (legal Fortran 77)
	// close every enclosing loop.  Labels are unique per program unit, so an
	// entry is never consumed by an unrelated loop.
	closedLabels map[string]bool
	// loopDepth tracks DO-loop nesting so FORCESPLIT (whose region is the
	// remainder of its sequence) is rejected inside loop bodies in every loop
	// form.
	loopDepth int
}

// compileBody compiles a complete statement sequence (a tasktype body or a
// nested block body owned by a structured Pisces statement).
func (tc *taskCompiler) compileBody(body []pfc.Stmt) ([]cstmt, error) {
	c := &compiler{tc: tc, stmts: body}
	out, _, err := c.compileSeq()
	return out, err
}

// next returns the next executable statement without consuming it, skipping
// comment and blank lines; nil at the end of the sequence.  A line pfc could
// not structure surfaces its diagnostic here, in source order.
func (c *compiler) next() (*pfc.Stmt, error) {
	for ; c.pos < len(c.stmts); c.pos++ {
		st := &c.stmts[c.pos]
		if st.Err != nil {
			return nil, st.Err
		}
		if st.Kind != pfc.StmtFortran {
			return st, nil
		}
	}
	return nil, nil
}

// closerName names the block-closing statements in diagnostics.
var closerName = map[pfc.StmtKind]string{
	pfc.StmtElseIf: "ELSEIF", pfc.StmtElse: "ELSE", pfc.StmtEndIf: "ENDIF", pfc.StmtEndDo: "ENDDO",
}

// compileSeq compiles statements until the sequence ends or a block closer
// in stops is reached (the closer is consumed and returned).
func (c *compiler) compileSeq(stops ...pfc.StmtKind) ([]cstmt, *pfc.Stmt, error) {
	var out []cstmt
	for {
		st, err := c.next()
		if st == nil {
			return out, nil, err
		}
		if name, closer := closerName[st.Kind]; closer {
			if slices.Contains(stops, st.Kind) {
				c.pos++
				return out, st, nil
			}
			return nil, nil, errf(st.Line, "%s without a matching opening statement", name)
		}
		if st.Kind == pfc.StmtForceSplit && c.loopDepth == 0 {
			// FORCESPLIT: the remainder of the current sequence is the force
			// region — all members run it, then the original task continues.
			c.pos++
			region, stop, err := c.compileSeq(stops...)
			if err != nil {
				return nil, nil, err
			}
			force := cstmt{line: st.Line, collective: seqCollective(region)}
			force.run = func(st *execState) (ctl, error) { return st.execForce(region) }
			return append(out, force), stop, nil
		}
		if out, err = c.compileOne(out); err != nil {
			return nil, nil, err
		}
	}
}

// compileUntilLabel compiles a label-terminated loop body: statements up to
// and including the one carrying the terminator label.  A terminator already
// consumed by a nested loop (shared-terminator form, "DO 10 ... DO 10 ...
// 10 CONTINUE") also closes this loop.  A terminator consumed by an earlier,
// disjoint loop is an error: statement labels are unique per program unit,
// and compiling on would silently give the new loop an empty body.  (A loop
// opened while an enclosing loop with the same label is still being compiled
// — the legal shared-terminator form — sees the label as not yet consumed.)
func (c *compiler) compileUntilLabel(term string, line int) ([]cstmt, error) {
	if c.closedLabels == nil {
		c.closedLabels = make(map[string]bool)
	}
	if c.closedLabels[term] {
		return nil, errf(line, "DO terminator label %s already used by an earlier loop", term)
	}
	c.loopDepth++
	defer func() { c.loopDepth-- }()
	var body []cstmt
	for !c.closedLabels[term] {
		st, err := c.next()
		if err != nil {
			return nil, err
		}
		if st == nil {
			return nil, errf(line, "DO loop terminator label %s not found", term)
		}
		if body, err = c.compileOne(body); err != nil {
			return nil, err
		}
		if st.Label == term {
			c.closedLabels[term] = true
		}
	}
	return body, nil
}

// continueAt is the labelled CONTINUE a labelled block closer stands for.
func continueAt(closer *pfc.Stmt) cstmt {
	return cstmt{run: runContinue, label: closer.Label, line: closer.Line}
}

func runContinue(*execState) (ctl, error) { return ctlOK, nil }

// compileOne compiles the statement next() returned onto out, consuming it
// and any further lines its block structure owns.
func (c *compiler) compileOne(out []cstmt) ([]cstmt, error) {
	st := &c.stmts[c.pos]
	c.pos++
	var s cstmt
	var end *pfc.Stmt // the END IF of a block IF
	var err error
	if st.Kind == pfc.StmtIfThen {
		if s, end, err = c.compileBlockIf(st); err == nil && end == nil {
			err = errf(st.Line, "IF block is never closed by END IF")
		}
	} else {
		s, err = c.compile(st)
	}
	if err != nil {
		return nil, err
	}
	s.line, s.label = st.Line, st.Label
	out = append(out, s)
	if end != nil && end.Label != "" {
		// A label on the END IF is a GOTO target that transfers to just after
		// the block.
		out = append(out, continueAt(end))
	}
	return out, nil
}

// compile compiles one statement (any but a block IF, which only compileOne
// meets: it cannot be the object of a logical IF) into its closure.
func (c *compiler) compile(st *pfc.Stmt) (cstmt, error) {
	tc := c.tc
	var s cstmt
	var err error
	switch st.Kind {
	case pfc.StmtAssign:
		rhs := tc.compileExpr(st.X.Expr)
		store := tc.compileStore(st.Name, st.Args)
		s.run = func(st *execState) (ctl, error) {
			v, err := rhs(st)
			if err != nil {
				return ctl{}, err
			}
			return ctlOK, store(st, v)
		}

	case pfc.StmtIf:
		cond := tc.compileExpr(st.X.Expr)
		object, err := c.compile(&st.Body[0])
		if err != nil {
			return s, err
		}
		object.line = st.Line
		s = ifStmt(cond, []cstmt{object}, nil)

	case pfc.StmtDo:
		d := &cdo{
			store: tc.compileStore(st.Name, nil),
			lo:    tc.compileExpr(st.Lo.Expr),
			hi:    tc.compileExpr(st.Hi.Expr),
			step:  tc.compileExpr(st.Step.Expr),
		}
		if d.body, err = c.compileDoBody(st); err != nil {
			return s, err
		}
		s.collective = seqCollective(d.body)
		s.run = func(st *execState) (ctl, error) { return st.execDo(d) }

	case pfc.StmtGoto:
		target := st.DoLabel
		s.run = func(*execState) (ctl, error) { return ctl{kind: ctlGoto, label: target}, nil }

	case pfc.StmtContinue:
		s.run = runContinue

	case pfc.StmtStop:
		stopX := tc.compileOptional(st.X)
		s.run = func(st *execState) (ctl, error) {
			if stopX != nil {
				v, err := stopX(st)
				if err != nil {
					return ctl{}, err
				}
				if err := st.printLine("STOP " + v.format()); err != nil {
					return ctl{}, err
				}
			}
			return ctl{kind: ctlStop}, nil
		}

	case pfc.StmtReturn:
		s.run = func(*execState) (ctl, error) { return ctl{kind: ctlReturn}, nil }

	case pfc.StmtPrint:
		items := tc.compileOperands(st.Args)
		s.run = func(st *execState) (ctl, error) { return ctlOK, st.execPrint(items) }

	case pfc.StmtCall:
		s.run, err = tc.compileCall(st)

	case pfc.StmtDecl, pfc.StmtTaskIDDecl, pfc.StmtWindowDecl:
		k := declKinds[st.Name] // kNone for DIMENSION: the implicit kinds
		switch st.Kind {
		case pfc.StmtTaskIDDecl:
			k = kTaskID
		case pfc.StmtWindowDecl:
			k = kWindow
		}
		items, err := tc.compileDecls(st, k)
		if err != nil {
			return s, err
		}
		for _, it := range items {
			if st.Name == "DIMENSION" && len(it.dims) == 0 {
				return s, errf(st.Line, "DIMENSION entry %s needs array extents", it.name)
			}
		}
		s.run = func(st *execState) (ctl, error) { return ctlOK, st.execDecl(items) }

	case pfc.StmtInitiate:
		ci := &cinitiate{tasktype: st.Name, placement: st.Place, args: tc.compileSendArgs(st.Args), where: tc.compileOptional(st.Where)}
		s.run = func(st *execState) (ctl, error) { return ctlOK, st.execInitiate(ci) }

	case pfc.StmtSend:
		cs := &csend{msgType: st.Name, dest: st.Dest, args: tc.compileSendArgs(st.Args), where: tc.compileOptional(st.Where)}
		s.run = func(st *execState) (ctl, error) { return ctlOK, st.execSend(cs) }

	case pfc.StmtAccept:
		if len(st.Accept.Types) == 0 {
			return s, errf(st.Line, "ACCEPT lists no message types")
		}
		a := &caccept{total: tc.compileOptional(st.Accept.Total)}
		for _, ty := range st.Accept.Types {
			a.types = append(a.types, cacceptType{name: ty.Name, all: ty.All, count: tc.compileOptional(ty.Count)})
		}
		a.delay = tc.compileOptional(st.Accept.Delay)
		if a.onTimeout, err = tc.compileBody(st.Accept.OnTimeout); err != nil {
			return s, err
		}
		s.collective = seqCollective(a.onTimeout)
		s.run = func(st *execState) (ctl, error) { return st.execAccept(a) }

	case pfc.StmtBarrier:
		body, err := tc.compileBody(st.Body)
		if err != nil {
			return s, err
		}
		s.collective = true
		s.run = func(st *execState) (ctl, error) { return st.execBarrier(body) }

	case pfc.StmtCritical:
		name := st.Name
		body, err := tc.compileBody(st.Body)
		if err != nil {
			return s, err
		}
		s.collective = seqCollective(body)
		s.run = func(st *execState) (ctl, error) { return st.execCritical(name, body) }

	case pfc.StmtPreschedDo, pfc.StmtSelfschedDo:
		cs := &csched{
			store:     tc.compileStore(st.Name, nil),
			lo:        tc.compileExpr(st.Lo.Expr),
			hi:        tc.compileExpr(st.Hi.Expr),
			step:      tc.compileExpr(st.Step.Expr),
			selfsched: st.Kind == pfc.StmtSelfschedDo,
		}
		if cs.body, err = c.compileUntilLabel(st.DoLabel, st.Line); err != nil {
			return s, err
		}
		s.collective = cs.selfsched || seqCollective(cs.body)
		s.run = func(st *execState) (ctl, error) { return st.execScheduledDo(cs) }

	case pfc.StmtParseg:
		segs := make([][]cstmt, len(st.Segments))
		for i, seg := range st.Segments {
			if segs[i], err = tc.compileBody(seg); err != nil {
				return s, err
			}
			s.collective = s.collective || seqCollective(segs[i])
		}
		s.run = func(st *execState) (ctl, error) { return st.execParseg(segs) }

	case pfc.StmtSharedCommon:
		name := st.Name
		items, err := tc.compileDecls(st, kNone)
		if err != nil {
			return s, err
		}
		s.run = func(st *execState) (ctl, error) { return ctlOK, st.execSharedCommon(name, items) }

	case pfc.StmtLockDecl:
		names := make([]string, len(st.Decls))
		for i, d := range st.Decls {
			names[i] = d.Name
		}
		s.run = func(st *execState) (ctl, error) {
			for _, name := range names {
				if _, err := st.locks.get(st.t, name); err != nil {
					return ctl{}, err
				}
			}
			return ctlOK, nil
		}

	case pfc.StmtSignalDecl, pfc.StmtHandlerDecl:
		// The interpreter has no Fortran handler subroutines, so it declares
		// no handler: every message type is counted like a signal, and a
		// handler-declared type's arguments remain readable through the MSG*
		// intrinsics after an ACCEPT.
		s.run = runContinue

	case pfc.StmtForceSplit:
		err = errf(st.Line, "FORCESPLIT is not allowed inside a DO loop body")

	default: // a block closer where a loop body wanted a statement
		err = errf(st.Line, "%s without a matching opening statement", closerName[st.Kind])
	}
	return s, err
}

// ifStmt builds the closure of an IF in any form.
func ifStmt(cond cexpr, body, elseBody []cstmt) cstmt {
	return cstmt{
		collective: seqCollective(body) || seqCollective(elseBody),
		run: func(st *execState) (ctl, error) {
			v, err := cond(st)
			if err != nil {
				return ctl{}, err
			}
			b, err := v.truth()
			if err != nil {
				return ctl{}, fmt.Errorf("IF condition: %v", err)
			}
			if b {
				return st.execSeq(body)
			}
			return st.execSeq(elseBody)
		},
	}
}

// compileBlockIf nests "IF (..) THEN ... [ELSE IF (..) THEN ...] [ELSE ...]
// END IF" from the arm at st on; an ELSE IF arm is one nested IF in the else
// branch.  It returns the END IF that closed the block, nil if none did.
func (c *compiler) compileBlockIf(st *pfc.Stmt) (cstmt, *pfc.Stmt, error) {
	cond := c.tc.compileExpr(st.X.Expr)
	body, stop, err := c.compileSeq(pfc.StmtElseIf, pfc.StmtElse, pfc.StmtEndIf)
	var elseBody []cstmt
	switch {
	case err != nil || stop == nil:
	case stop.Kind == pfc.StmtElseIf:
		elif := stop
		var arm cstmt
		arm, stop, err = c.compileBlockIf(elif)
		arm.line = elif.Line
		elseBody = []cstmt{arm}
	case stop.Kind == pfc.StmtElse:
		elseBody, stop, err = c.compileSeq(pfc.StmtEndIf)
	}
	return ifStmt(cond, body, elseBody), stop, err
}

// compileDoBody compiles the body of either loop form: up to the labelled
// terminator of "DO <label> V = ...", or to the END DO of "DO V = ...".
func (c *compiler) compileDoBody(st *pfc.Stmt) ([]cstmt, error) {
	if st.DoLabel != "" {
		return c.compileUntilLabel(st.DoLabel, st.Line)
	}
	c.loopDepth++
	body, end, err := c.compileSeq(pfc.StmtEndDo)
	c.loopDepth--
	switch {
	case err != nil:
		return nil, err
	case end == nil:
		return nil, errf(st.Line, "DO loop is never closed by END DO")
	case end.Label != "":
		// A labelled END DO is the loop's terminal statement: a GOTO to it
		// from the body continues with the next iteration.
		body = append(body, continueAt(end))
	}
	return body, nil
}

// declKinds maps the type keywords of a declaration to value kinds.
var declKinds = map[string]valKind{
	"INTEGER":   kInt,
	"REAL":      kReal,
	"LOGICAL":   kBool,
	"CHARACTER": kStr,
}

// compileCall compiles CALL: the interpreter supports the simulation
// intrinsics CHARGE(ticks) and YIELD().
func (tc *taskCompiler) compileCall(st *pfc.Stmt) (func(*execState) (ctl, error), error) {
	switch {
	case st.Name == "CHARGE" && len(st.Args) == 1:
		arg := tc.compileExpr(st.Args[0].Expr)
		return func(st *execState) (ctl, error) {
			ticks, err := st.evalInt(arg)
			if err != nil {
				return ctl{}, err
			}
			if st.m != nil {
				st.m.Charge(ticks)
			} else {
				st.t.Charge(ticks)
			}
			return ctlOK, nil
		}, nil
	case st.Name == "CHARGE":
		return nil, errf(st.Line, "CALL CHARGE needs one tick-count argument")
	case st.Name == "YIELD" && len(st.Args) == 0:
		return func(st *execState) (ctl, error) {
			if st.m == nil {
				st.t.Yield()
			}
			return ctlOK, nil
		}, nil
	case st.Name == "YIELD":
		return nil, errf(st.Line, "CALL YIELD takes no arguments")
	}
	return nil, errf(st.Line, "CALL %s is not supported by the interpreter (subroutines cannot be interpreted)", st.Name)
}
