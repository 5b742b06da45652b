package pfc

import (
	"slices"
	"strings"
)

// Parse parses Pisces Fortran source text into a Program.
func Parse(src string) (*Program, error) {
	p := &parser{lines: splitLines(src)}
	return p.parseProgram()
}

// splitLines splits source text into lines without their line endings.
func splitLines(src string) []string {
	lines := strings.Split(src, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, "\r")
	}
	return lines
}

type parser struct {
	lines []string
	pos   int // index of the next line to consume

	// The line being recognised, and its tokens.  toks is one buffer reused
	// line after line: a statement is fully read from its tokens before the
	// lines of its body are, so nothing holds tokens across advance.
	text   string
	lineNo int
	toks   []token
}

// advance moves to the next source line; it reports false at end of input.
func (p *parser) advance() bool {
	if p.pos >= len(p.lines) {
		return false
	}
	p.text = p.lines[p.pos]
	p.pos++
	p.lineNo = p.pos
	return true
}

// lex tokenises the current line.
func (p *parser) lex() ([]token, error) {
	var err error
	p.toks, err = lex(p.toks[:0], p.text, p.lineNo)
	return p.toks, err
}

func (p *parser) errf(format string, args ...any) error {
	return errf(p.lineNo, format, args...)
}

// src returns the exact source text a non-empty run of tokens was read from.
func (p *parser) src(toks []token) string {
	return p.text[toks[0].pos:toks[len(toks)-1].end]
}

// soft records why the interpreter cannot run the statement although Emit
// can translate it; the first reason wins.
func (st *Stmt) soft(err error) {
	if st.Err == nil {
		st.Err = err.(*Error)
	}
}

// IsComment reports whether the line is a full-line Fortran comment.
func IsComment(line string) bool {
	if len(line) == 0 {
		return false
	}
	switch line[0] {
	case 'C', 'c', '*':
		return true
	}
	return strings.HasPrefix(strings.TrimSpace(line), "!")
}

// --- token-run helpers --------------------------------------------------------

// words reports whether the tokens are exactly the given upper-case words.
func words(toks []token, ws ...string) bool {
	if len(toks) != len(ws) {
		return false
	}
	for i, w := range ws {
		if toks[i].kind != tName || toks[i].text != w {
			return false
		}
	}
	return true
}

// depthStep is the change in parenthesis depth a token makes.
func depthStep(t token) int {
	if t.kind == tOp {
		switch t.text {
		case "(":
			return 1
		case ")":
			return -1
		}
	}
	return 0
}

// find returns the index of the first occurrence of the word after the head
// token and outside parentheses, or -1.
func find(toks []token, word string) int {
	depth := 0
	for i := 1; i < len(toks); i++ {
		if depth == 0 && toks[i].kind == tName && toks[i].text == word {
			return i
		}
		depth += depthStep(toks[i])
	}
	return -1
}

// matching returns the index of the ")" closing the "(" at toks[open], or -1.
func matching(toks []token, open int) int {
	depth := 0
	for i := open; i < len(toks); i++ {
		if depth += depthStep(toks[i]); depth == 0 {
			return i
		}
	}
	return -1
}

// cutTop cuts the tokens at the first comma outside parentheses; more reports
// whether there was one.
func cutTop(toks []token) (piece, rest []token, more bool) {
	depth := 0
	for i, t := range toks {
		if depth == 0 && t.kind == tOp && t.text == "," {
			return toks[:i], toks[i+1:], true
		}
		depth += depthStep(t)
	}
	return toks, nil, false
}

// operand parses the tokens as one expression.  Text the Pratt parser does
// not read is no parse error — Emit copies Src either way — but marks the
// statement as one the interpreter cannot run.
func (p *parser) operand(st *Stmt, toks []token) Operand {
	var op Operand
	if len(toks) > 0 {
		op.Src = p.src(toks)
	}
	e, err := parseExpr(toks, p.lineNo)
	if err != nil {
		st.soft(err)
		return op
	}
	op.Expr = e
	return op
}

// operands parses a comma-separated expression list; no tokens is an empty
// list.
func (p *parser) operands(st *Stmt, toks []token) []Operand {
	var out []Operand
	for more := len(toks) > 0; more; {
		var piece []token
		piece, toks, more = cutTop(toks)
		out = append(out, p.operand(st, piece))
	}
	return out
}

// --- program and block structure ----------------------------------------------

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for p.advance() {
		if !IsComment(p.text) {
			// A line outside any TASKTYPE that does not tokenise is ordinary
			// Fortran like every other line there.
			toks, err := p.lex()
			switch {
			case len(toks) > 0 && toks[0].is("TASKTYPE") && !(len(toks) > 1 && toks[1].is("=")):
				if err != nil {
					return nil, err
				}
				tt, err := p.parseTaskType(toks[1:])
				if err != nil {
					return nil, err
				}
				prog.TaskTypes = append(prog.TaskTypes, tt)
				continue
			case err == nil && words(toks, "END", "TASKTYPE"):
				return nil, p.errf("END TASKTYPE without a matching TASKTYPE")
			}
		}
		prog.Other = append(prog.Other, p.text)
	}
	return prog, nil
}

// parseTaskType parses "TASKTYPE <name> [(p1, p2, ...)]" (the tokens after
// the keyword) and the body up to END TASKTYPE.
func (p *parser) parseTaskType(toks []token) (*TaskTypeDef, error) {
	var header Stmt
	if err := p.callTarget(&header, "TASKTYPE needs a name", toks); err != nil {
		return nil, err
	}
	tt := &TaskTypeDef{Name: header.Name, Line: p.lineNo}
	for _, a := range header.Args {
		name, ok := a.Expr.(Name)
		if !ok {
			return nil, p.errf("malformed TASKTYPE parameter %q", a.Src)
		}
		tt.Params = append(tt.Params, name.Name)
	}
	var err error
	tt.Body, _, err = p.block(tt, "TASKTYPE "+tt.Name, tt.Line, stmtEndTaskType)
	return tt, err
}

// closerText names the block closers in diagnostics.
var closerText = map[StmtKind]string{
	stmtEndTaskType: "END TASKTYPE",
	stmtEndAccept:   "END ACCEPT",
	stmtEndBarrier:  "END BARRIER",
	stmtEndCritical: "END CRITICAL",
	stmtNextSeg:     "NEXTSEG",
	stmtEndSeg:      "ENDSEG",
}

// block parses the statements of a construct opened on openLine up to one of
// the closers in want, which it consumes and returns.
func (p *parser) block(tt *TaskTypeDef, open string, openLine int, want ...StmtKind) ([]Stmt, StmtKind, error) {
	var body []Stmt
	for p.advance() {
		st, err := p.stmt(tt)
		switch {
		case err != nil:
			return nil, 0, err
		case st.Kind < stmtEndTaskType:
			body = append(body, st)
			continue
		case slices.Contains(want, st.Kind):
			return body, st.Kind, nil
		case st.Kind != stmtEndTaskType:
			return nil, 0, p.errf("%s without a matching opening statement", closerText[st.Kind])
		}
		break // END TASKTYPE inside a nested construct: the construct is unclosed
	}
	return nil, 0, errf(openLine, "%s is never closed by %s", open, closerText[want[len(want)-1]])
}

// stmt recognises the current line (which may open a block construct that
// owns further lines).
func (p *parser) stmt(tt *TaskTypeDef) (Stmt, error) {
	st := Stmt{Line: p.lineNo, Text: p.text}
	if IsComment(p.text) {
		return st, nil
	}
	toks, err := p.lex()
	if len(toks) > 0 && toks[0].kind == tInt {
		st.Label = toks[0].text
		toks = toks[1:]
	}
	switch {
	case err != nil:
		st.soft(err)
		return st, nil
	case len(toks) == 0:
		if st.Label != "" {
			st.Kind = StmtContinue
		}
		return st, nil
	}
	pisces, err := p.recognise(tt, &st, toks)
	if err != nil {
		return Stmt{}, err
	}
	if pisces && st.Label != "" {
		return Stmt{}, errf(st.Line, "statement label %s on a Pisces statement; label a CONTINUE line before it instead", st.Label)
	}
	return st, nil
}

// recognise is the one statement recogniser: it fills st in from the tokens
// of a statement (label already stripped) and reports whether it is a Pisces
// extension statement rather than ordinary Fortran.  Fortran has no reserved
// words, so "<word> = ..." is an assignment whatever the word.
func (p *parser) recognise(tt *TaskTypeDef, st *Stmt, toks []token) (pisces bool, err error) {
	if toks[0].kind == tName && !(len(toks) > 1 && toks[1].is("=")) {
		if pisces, err := p.pisces(tt, st, toks); pisces || err != nil {
			return pisces, err
		}
		if known, err := p.fortran(tt, st, toks); known || err != nil {
			return false, err
		}
	}
	p.assignment(st, toks)
	return false, nil
}

// --- the Pisces extensions ----------------------------------------------------

// pisces recognises the Pisces extension statements; it reports false for a
// line that only happens to start with one of their words.
func (p *parser) pisces(tt *TaskTypeDef, st *Stmt, toks []token) (bool, error) {
	n := len(toks)
	var err error
	switch head := toks[0].text; head {
	case "ON":
		if i := find(toks, "INITIATE"); i > 0 {
			return true, p.initiate(st, toks, i)
		}
	case "TO":
		if i := find(toks, "SEND"); i > 0 {
			return true, p.send(st, toks, i)
		}
	case "ACCEPT":
		return true, p.accept(tt, st, toks)
	case "FORCESPLIT":
		if n == 1 {
			tt.UsesForce = true
			st.Kind = StmtForceSplit
			return true, nil
		}
	case "BARRIER":
		if n == 1 {
			st.Kind = StmtBarrier
			st.Body, _, err = p.block(tt, head, st.Line, stmtEndBarrier)
			return true, err
		}
	case "CRITICAL":
		if n != 2 || toks[1].kind != tName {
			return true, p.errf("CRITICAL needs a lock variable")
		}
		st.Kind, st.Name = StmtCritical, toks[1].text
		st.Body, _, err = p.block(tt, head, st.Line, stmtEndCritical)
		return true, err
	case "PARSEG":
		if n == 1 {
			st.Kind = StmtParseg
			for closer := stmtNextSeg; closer == stmtNextSeg; {
				var seg []Stmt
				if seg, closer, err = p.block(tt, head, st.Line, stmtNextSeg, stmtEndSeg); err != nil {
					return true, err
				}
				st.Segments = append(st.Segments, seg)
			}
			return true, nil
		}
	case "NEXTSEG", "ENDSEG":
		if n == 1 {
			st.Kind = stmtNextSeg
			if head == "ENDSEG" {
				st.Kind = stmtEndSeg
			}
			return true, nil
		}
	case "END":
		if kind, ok := endCloser[toks[n-1].text]; ok && n == 2 {
			st.Kind = kind
			return true, nil
		}
	case "PRESCHED", "SELFSCHED":
		if n > 1 && toks[1].is("DO") {
			st.Kind = StmtPreschedDo
			if head == "SELFSCHED" {
				st.Kind = StmtSelfschedDo
			}
			if n < 3 || toks[2].kind != tInt {
				return true, p.errf("scheduled DO needs a terminator label")
			}
			st.DoLabel = toks[2].text
			return true, p.doControl(st, "scheduled DO", toks[3:])
		}
	case "SHARED":
		if n > 1 && toks[1].is("COMMON") {
			return true, p.sharedCommon(tt, st, toks[2:])
		}
	case "LOCK", "TASKID", "WINDOW":
		if n > 1 {
			st.Kind = declKind[head]
			st.Decls = p.declItems(st, toks[1:])
			return true, nil
		}
	case "HANDLER", "SIGNAL":
		if n != 2 || toks[1].kind != tName {
			return true, p.errf("%s needs a message type name", head)
		}
		st.Name = toks[1].text
		if head == "HANDLER" {
			st.Kind = StmtHandlerDecl
			tt.Handlers = append(tt.Handlers, st.Name)
		} else {
			st.Kind = StmtSignalDecl
			tt.Signals = append(tt.Signals, st.Name)
		}
		return true, nil
	}
	return false, nil
}

var (
	endCloser = map[string]StmtKind{"TASKTYPE": stmtEndTaskType, "ACCEPT": stmtEndAccept, "BARRIER": stmtEndBarrier, "CRITICAL": stmtEndCritical}
	declKind  = map[string]StmtKind{"LOCK": StmtLockDecl, "TASKID": StmtTaskIDDecl, "WINDOW": StmtWindowDecl}
)

// placeWord and destWord spell the placement and destination forms as the
// source writes them (the run-time library takes placements by the same
// word); destCall is the run-time library's name for each destination form.
var (
	placeWord = [...]string{PlaceAny: "ANY", PlaceOther: "OTHER", PlaceSame: "SAME", PlaceCluster: "CLUSTER"}
	destWord  = [...]string{DestParent: "PARENT", DestSelf: "SELF", DestSender: "SENDER", DestUser: "USER",
		DestAll: "ALL", DestAllCluster: "ALL CLUSTER", DestTContr: "TCONTR", DestTask: ""}
	destCall = [...]string{DestParent: "PARENT", DestSelf: "SELF", DestSender: "SENDER", DestUser: "USER",
		DestAll: "ALL", DestAllCluster: "ALLCLUSTER", DestTContr: "TCONTR", DestTask: "TASKID"}
)

// initiate parses "ON <placement> INITIATE <tasktype>(<args>)"; at is the
// index of INITIATE.
func (p *parser) initiate(st *Stmt, toks []token, at int) error {
	st.Kind = StmtInitiate
	place := toks[1:at]
	if len(place) == 0 {
		return p.errf("INITIATE needs a placement between ON and INITIATE")
	}
	fixed := slices.Index(placeWord[:PlaceCluster], place[0].text)
	switch {
	case len(place) > 1 && place[0].is("CLUSTER"):
		st.Place = PlaceCluster
		st.Where = p.operand(st, place[1:])
	case len(place) == 1 && place[0].kind == tName && fixed >= 0:
		st.Place = PlaceKind(fixed)
	default:
		return p.errf("bad INITIATE placement %q: expected CLUSTER <n>, ANY, OTHER, or SAME", p.src(place))
	}
	return p.callTarget(st, "INITIATE needs a tasktype name", toks[at+1:])
}

// send parses "TO <dest> SEND <msgtype>(<args>)"; at is the index of SEND.
func (p *parser) send(st *Stmt, toks []token, at int) error {
	st.Kind = StmtSend
	dest := toks[1:at]
	if len(dest) == 0 {
		return p.errf("SEND needs a destination between TO and SEND")
	}
	fixed := slices.Index(destWord[:DestAllCluster], dest[0].text)
	switch {
	case len(dest) == 1 && dest[0].kind == tName && fixed >= 0:
		st.Dest = DestKind(fixed)
	case len(dest) > 1 && dest[0].is("TCONTR"):
		st.Dest = DestTContr
		st.Where = p.operand(st, dest[1:])
	case len(dest) > 2 && dest[0].is("ALL") && dest[1].is("CLUSTER"):
		st.Dest = DestAllCluster
		st.Where = p.operand(st, dest[2:])
	default: // a TASKID variable or array element
		st.Dest = DestTask
		st.Where = p.operand(st, dest)
	}
	return p.callTarget(st, "SEND needs a message type name", toks[at+1:])
}

// callTarget parses "<name>" or "<name>(<args>)" into st.Name and st.Args;
// missing is the diagnostic for no name at all.
func (p *parser) callTarget(st *Stmt, missing string, toks []token) error {
	n := len(toks)
	switch {
	case n == 0:
		return p.errf("%s", missing)
	case toks[0].kind != tName || (n > 1 && !toks[1].is("(")):
		return p.errf("malformed name in %q", p.src(toks))
	case n > 1 && matching(toks, 1) != n-1:
		return p.errf("unbalanced argument list in %q", p.src(toks))
	}
	st.Name = toks[0].text
	if n > 1 {
		st.Args = p.operands(st, toks[2:n-1])
	}
	return nil
}

// doControl parses "<var> = <lo>, <hi>[, <step>]" into st.
func (p *parser) doControl(st *Stmt, what string, toks []token) error {
	if len(toks) < 3 || toks[0].kind != tName || !toks[1].is("=") {
		return p.errf("%s needs <var> = <lo>, <hi>[, <step>]", what)
	}
	st.Name = toks[0].text
	bounds := p.operands(st, toks[2:])
	if len(bounds) < 2 || len(bounds) > 3 {
		return p.errf("%s needs <var> = <lo>, <hi>[, <step>]", what)
	}
	st.Lo, st.Hi, st.Step = bounds[0], bounds[1], Operand{Expr: Lit{Kind: LitInt, I: 1}, Src: "1"}
	if len(bounds) == 3 {
		st.Step = bounds[2]
	}
	return nil
}

// accept parses the block form
//
//	ACCEPT <number> OF
//	  <type> [<count>|ALL]
//	  ...
//	DELAY <expr> THEN
//	  <stmts>
//	END ACCEPT
//
// and the single-line form "ACCEPT <number> OF <type1>, <type2>, ...".
func (p *parser) accept(tt *TaskTypeDef, st *Stmt, toks []token) error {
	of := find(toks, "OF")
	if of < 0 {
		return p.errf("ACCEPT needs an OF clause")
	}
	acc := &AcceptStmt{}
	st.Kind, st.Accept = StmtAccept, acc
	if of > 1 {
		acc.Total = p.operand(st, toks[1:of])
	}
	for inline, more := toks[of+1:], of+1 < len(toks); more; {
		var piece []token
		piece, inline, more = cutTop(inline)
		if err := p.acceptType(acc, piece); err != nil || !more {
			return err
		}
	}
	// Block form: message types until DELAY or END ACCEPT.
	for p.advance() {
		if IsComment(p.text) {
			continue
		}
		toks, err := p.lex()
		switch {
		case err != nil:
			return err
		case len(toks) == 0:
		case words(toks, "END", "ACCEPT"):
			return nil
		case toks[0].is("DELAY"):
			if !toks[len(toks)-1].is("THEN") {
				return p.errf("DELAY clause must end with THEN")
			}
			if len(toks) > 2 {
				acc.Delay = p.operand(st, toks[1:len(toks)-1])
			}
			acc.OnTimeout, _, err = p.block(tt, "ACCEPT", st.Line, stmtEndAccept)
			return err
		default:
			if err := p.acceptType(acc, toks); err != nil {
				return err
			}
		}
	}
	return errf(st.Line, "ACCEPT is never closed by END ACCEPT")
}

// acceptType parses one message-type entry of an ACCEPT: "<name>",
// "<name> <count>", or "<name> ALL" / "ALL <name>".
func (p *parser) acceptType(acc *AcceptStmt, toks []token) error {
	n := len(toks)
	var ty AcceptType
	switch {
	case n == 0 || toks[0].kind != tName:
	case n == 1:
		ty.Name = toks[0].text
	case n == 2 && toks[0].is("ALL") && toks[1].kind == tName:
		ty.Name, ty.All = toks[1].text, true
	case n == 2 && toks[1].is("ALL"):
		ty.Name, ty.All = toks[0].text, true
	default:
		if count, err := parseExpr(toks[1:], p.lineNo); err == nil {
			ty.Name, ty.Count = toks[0].text, Operand{Expr: count, Src: p.src(toks[1:])}
		}
	}
	if ty.Name == "" {
		return p.errf("malformed ACCEPT message type entry %q", strings.TrimSpace(p.text))
	}
	acc.Types = append(acc.Types, ty)
	return nil
}

// sharedCommon parses "/name/ a, b(10), c" after SHARED COMMON.
func (p *parser) sharedCommon(tt *TaskTypeDef, st *Stmt, toks []token) error {
	switch {
	case len(toks) == 0 || !toks[0].is("/"):
		return p.errf("SHARED COMMON needs a /name/ block name")
	case len(toks) < 3 || toks[1].kind != tName || !toks[2].is("/"):
		return p.errf("malformed SHARED COMMON block name")
	}
	st.Kind, st.Name = StmtSharedCommon, toks[1].text
	st.Decls = p.declItems(st, toks[3:])
	tt.SharedCommons = append(tt.SharedCommons, st.Name)
	return nil
}

// declItems parses declaration entries "NAME" or "NAME(d1[, d2...])".
func (p *parser) declItems(st *Stmt, toks []token) []DeclItem {
	if len(toks) == 0 {
		st.soft(p.errf("declaration lists no names"))
	}
	var out []DeclItem
	for _, op := range p.operands(st, toks) {
		d := DeclItem{Src: op.Src}
		switch e := op.Expr.(type) {
		case Name:
			d.Name = e.Name
		case Call:
			d.Name, d.Dims = e.Name, e.Args
		case nil: // not an expression; operand said why
		default:
			st.soft(p.errf("malformed declaration entry %q", op.Src))
		}
		out = append(out, d)
	}
	return out
}

// --- the Fortran 77 subset ----------------------------------------------------

// fortran recognises the keyword statements of the Fortran 77 subset the
// interpreter runs; it reports false for anything else.  What it cannot
// structure is a soft error: ordinary Fortran is Emit's to pass through.
func (p *parser) fortran(tt *TaskTypeDef, st *Stmt, toks []token) (bool, error) {
	n := len(toks)
	rest := toks[1:]
	switch head := toks[0].text; head {
	case "IF":
		if n > 1 && toks[1].is("(") {
			return true, p.ifStmt(tt, st, StmtIf, toks)
		}
	case "ELSEIF":
		return true, p.ifStmt(tt, st, StmtElseIf, toks)
	case "ELSE":
		if n == 1 {
			st.Kind = StmtElse
			return true, nil
		}
		if toks[1].is("IF") {
			return true, p.ifStmt(tt, st, StmtElseIf, rest)
		}
	case "END", "ENDIF", "ENDDO":
		switch {
		case words(toks, "END"):
			st.Kind = StmtReturn
		case words(toks, "END", "IF") || words(toks, "ENDIF"):
			st.Kind = StmtEndIf
		case words(toks, "END", "DO") || words(toks, "ENDDO"):
			st.Kind = StmtEndDo
		default:
			return false, nil
		}
		return true, nil
	case "DO":
		st.Kind = StmtDo
		if n > 1 && toks[1].kind == tInt {
			st.DoLabel = toks[1].text
			rest = toks[2:]
		}
		if err := p.doControl(st, "DO loop", rest); err != nil {
			st.soft(err)
		}
		return true, nil
	case "GOTO", "GO":
		if head == "GO" {
			if n < 2 || !toks[1].is("TO") {
				return false, nil
			}
			rest = toks[2:]
		}
		st.Kind = StmtGoto
		if len(rest) != 1 || rest[0].kind != tInt {
			st.soft(p.errf("GOTO needs a statement label, got %q", strings.TrimSpace(p.text[toks[0].end:])))
			return true, nil
		}
		st.DoLabel = rest[0].text
		return true, nil
	case "CONTINUE", "RETURN":
		if n == 1 {
			st.Kind = StmtContinue
			if head == "RETURN" {
				st.Kind = StmtReturn
			}
			return true, nil
		}
	case "STOP":
		st.Kind = StmtStop
		if n > 1 {
			st.X = p.operand(st, rest)
		}
		return true, nil
	case "PRINT":
		st.Kind = StmtPrint
		if n < 2 || !toks[1].is("*") {
			st.soft(p.errf("only list-directed PRINT *, ... is supported"))
			return true, nil
		}
		if rest = toks[2:]; len(rest) > 0 && rest[0].is(",") {
			rest = rest[1:]
		}
		st.Args = p.operands(st, rest)
		return true, nil
	case "WRITE":
		// The control list is ignored: all output is list-directed to the
		// user terminal.
		st.Kind = StmtPrint
		closing := -1
		if n > 1 && toks[1].is("(") {
			closing = matching(toks, 1)
		}
		if closing < 0 {
			st.soft(p.errf("WRITE needs a parenthesised control list"))
			return true, nil
		}
		st.Args = p.operands(st, toks[closing+1:])
		return true, nil
	case "CALL":
		st.Kind = StmtCall
		if err := p.callTarget(st, "CALL needs a subroutine name", rest); err != nil {
			st.soft(err)
		}
		return true, nil
	case "INTEGER", "REAL", "LOGICAL", "CHARACTER", "DIMENSION":
		// CHARACTER*<n> length specifications are accepted and ignored.
		if head == "CHARACTER" && n > 2 && toks[1].is("*") && toks[2].kind == tInt {
			rest = toks[3:]
		}
		st.Kind, st.Name = StmtDecl, head
		st.Decls = p.declItems(st, rest)
		return true, nil
	case "COMMON":
		st.soft(p.errf("plain COMMON is not supported by the interpreter; use SHARED COMMON"))
		return true, nil
	}
	return false, nil
}

// ifStmt parses "IF (<cond>) <statement>", "IF (<cond>) THEN" and, with
// kind StmtElseIf, "ELSE IF (<cond>) THEN"; toks starts at the IF.
func (p *parser) ifStmt(tt *TaskTypeDef, st *Stmt, kind StmtKind, toks []token) error {
	st.Kind = kind
	closing := -1
	if len(toks) > 1 && toks[1].is("(") {
		closing = matching(toks, 1)
	}
	if closing < 0 {
		st.soft(p.errf("IF needs a parenthesised condition"))
		return nil
	}
	st.X = p.operand(st, toks[2:closing])
	object := toks[closing+1:]
	switch {
	case words(object, "THEN"):
		if kind == StmtIf {
			st.Kind = StmtIfThen
		}
	case kind == StmtElseIf:
		st.soft(p.errf("ELSE IF must end with THEN"))
	case len(object) == 0:
		st.soft(p.errf("logical IF needs a statement after the condition"))
	default:
		inner := Stmt{Line: st.Line, Text: st.Text}
		pisces, err := p.recognise(tt, &inner, object)
		switch {
		case err != nil:
			return err
		case pisces:
			return errf(st.Line, "a Pisces statement cannot be the object of a logical IF; put it in a block IF")
		case inner.Kind >= StmtIfThen && inner.Kind <= StmtEndDo:
			st.soft(p.errf("a block statement cannot be the object of a logical IF"))
		case inner.Err != nil:
			st.soft(inner.Err)
		}
		st.Body = []Stmt{inner}
	}
	return nil
}

// assignment parses "<name>[(<subscripts>)] = <expr>"; anything else is not a
// statement of the interpreted subset.
func (p *parser) assignment(st *Stmt, toks []token) {
	eq := 1
	if len(toks) > 1 && toks[1].is("(") {
		eq = matching(toks, 1) + 1
	}
	if toks[0].kind != tName || eq < 1 || eq >= len(toks) || !toks[eq].is("=") {
		st.soft(p.errf("statement not supported by the interpreter: %q", strings.TrimSpace(p.text[toks[0].pos:])))
		return
	}
	st.Kind, st.Name = StmtAssign, toks[0].text
	if eq > 1 {
		st.Args = p.operands(st, toks[2:eq-1])
	}
	st.X = p.operand(st, toks[eq+1:])
}
