package pfc

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// sampleProgram exercises every Pisces Fortran extension the paper describes.
const sampleProgram = `C A small Pisces Fortran program: a host task partitions work over
C worker tasks and a force.
TASKTYPE HOST(N)
      INTEGER N, I
      TASKID WORKERS(4)
      WINDOW W
      SIGNAL DONE
      HANDLER RESULT
      DO 5 I = 1, 4
      ON CLUSTER 2 INITIATE WORKER(I, N)
5     CONTINUE
      ON ANY INITIATE WORKER(5, N)
      TO USER SEND STATUS('STARTED')
      ACCEPT 5 OF
        RESULT
        DONE
      DELAY 10 THEN
        TO USER SEND STATUS('TIMEOUT')
      END ACCEPT
      TO ALL SEND SHUTDOWN
END TASKTYPE

TASKTYPE WORKER(ME, N)
      INTEGER ME, N, I, J
      REAL SUM
      LOCK SUMLK
      SHARED COMMON /RESULTS/ TOTAL, COUNT(100)
      FORCESPLIT
      PRESCHED DO 10 I = 1, N
      SUM = SUM + FLOAT(I)
10    CONTINUE
      SELFSCHED DO 20 J = 1, N, 2
      SUM = SUM + 1.0
20    CONTINUE
      BARRIER
        TOTAL = 0.0
      END BARRIER
      CRITICAL SUMLK
        TOTAL = TOTAL + SUM
      END CRITICAL
      PARSEG
        COUNT(1) = 1
      NEXTSEG
        COUNT(2) = 2
      ENDSEG
      TO PARENT SEND RESULT(SUM)
      TO TCONTR 1 SEND STATISTICS(ME)
END TASKTYPE

      SUBROUTINE RESULT(X)
      REAL X
      RETURN
      END
`

func TestParseSampleProgram(t *testing.T) {
	prog, err := Parse(sampleProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.TaskTypes) != 2 || prog.TaskTypes[0].Name != "HOST" || prog.TaskTypes[1].Name != "WORKER" {
		t.Fatalf("tasktypes = %v", prog.TaskTypes)
	}

	host := prog.TaskTypes[0]
	if !reflect.DeepEqual(host.Params, []string{"N"}) {
		t.Errorf("HOST params = %v", host.Params)
	}
	if !reflect.DeepEqual(host.Signals, []string{"DONE"}) || !reflect.DeepEqual(host.Handlers, []string{"RESULT"}) {
		t.Errorf("HOST declarations: signals %v handlers %v", host.Signals, host.Handlers)
	}
	if host.UsesForce {
		t.Error("HOST does not use a force")
	}

	worker := prog.TaskTypes[1]
	if !worker.UsesForce {
		t.Fatal("WORKER should use a force")
	}
	if !reflect.DeepEqual(worker.SharedCommons, []string{"RESULTS"}) {
		t.Errorf("shared commons = %v", worker.SharedCommons)
	}

	// Statement kinds present in HOST, and its declarations.
	kinds := map[StmtKind]int{}
	for _, st := range host.Body {
		kinds[st.Kind]++
		switch st.Kind {
		case StmtTaskIDDecl:
			if len(st.Decls) != 1 || st.Decls[0].Name != "WORKERS" || len(st.Decls[0].Dims) != 1 {
				t.Errorf("HOST taskid vars = %+v", st.Decls)
			}
		case StmtWindowDecl:
			if len(st.Decls) != 1 || st.Decls[0].Name != "W" {
				t.Errorf("HOST window vars = %+v", st.Decls)
			}
		}
	}
	for _, st := range worker.Body {
		if st.Kind == StmtLockDecl && (len(st.Decls) != 1 || st.Decls[0].Name != "SUMLK") {
			t.Errorf("locks = %+v", st.Decls)
		}
	}
	if kinds[StmtTaskIDDecl] != 1 || kinds[StmtWindowDecl] != 1 {
		t.Errorf("HOST declarations: %d TASKID, %d WINDOW statements", kinds[StmtTaskIDDecl], kinds[StmtWindowDecl])
	}
	if kinds[StmtInitiate] != 2 {
		t.Errorf("HOST initiate statements = %d, want 2", kinds[StmtInitiate])
	}
	if kinds[StmtSend] != 2 { // STATUS + broadcast SHUTDOWN (timeout send is nested)
		t.Errorf("HOST send statements = %d, want 2", kinds[StmtSend])
	}
	if kinds[StmtAccept] != 1 {
		t.Errorf("HOST accept statements = %d, want 1", kinds[StmtAccept])
	}

	// The ACCEPT statement structure.
	var acc *AcceptStmt
	for _, st := range host.Body {
		if st.Kind == StmtAccept {
			acc = st.Accept
		}
	}
	if acc == nil || acc.Total.Src != "5" || len(acc.Types) != 2 || acc.Delay.Src != "10" || len(acc.OnTimeout) != 1 {
		t.Fatalf("accept = %+v", acc)
	}

	// Scheduled DO statements in WORKER.
	var pres, selfs *Stmt
	for i, st := range worker.Body {
		switch st.Kind {
		case StmtPreschedDo:
			pres = &worker.Body[i]
		case StmtSelfschedDo:
			selfs = &worker.Body[i]
		}
	}
	if pres == nil || pres.DoLabel != "10" || pres.Name != "I" || pres.Lo.Src != "1" || pres.Hi.Src != "N" || pres.Step.Src != "1" {
		t.Errorf("presched = %+v", pres)
	}
	if selfs == nil || selfs.DoLabel != "20" || selfs.Step.Src != "2" {
		t.Errorf("selfsched = %+v", selfs)
	}

	// The ordinary handler subroutine passes through outside tasktypes.
	foundSub := false
	for _, l := range prog.Other {
		if strings.Contains(l.Text, "SUBROUTINE RESULT") {
			foundSub = true
		}
	}
	if !foundSub {
		t.Error("handler subroutine not preserved outside tasktypes")
	}
}

func TestEmitSampleProgram(t *testing.T) {
	res, err := Preprocess(sampleProgram, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Fortran

	wantFragments := []string{
		"SUBROUTINE PTHOST(N)",
		"SUBROUTINE PTWORKER(ME, N)",
		"CALL PSINIT('WORKER', 'CLUSTER', 2)",
		"CALL PSINIT('WORKER', 'ANY', 0)",
		"CALL PSMSGA(I",
		"CALL PSSEND('STATUS', 'USER', 0)",
		"CALL PSSEND('SHUTDOWN', 'ALL', 0)",
		"CALL PSSEND('RESULT', 'PARENT', 0)",
		"CALL PSSEND('STATISTICS', 'TCONTR', 1)",
		"CALL PSACIN",
		"CALL PSACTY('RESULT', 0)",
		"CALL PSACTY('DONE', 0)",
		"CALL PSACGO(5, 10, PSTIME)",
		"CALL PSFORK",
		"CALL PSBARR(PSPRIM)",
		"CALL PSBARX",
		"CALL PSLOCK(SUMLK)",
		"CALL PSUNLK(SUMLK)",
		"DO 10 I = (1) + (PSMEMB()-1)*(1), N, (1)*PSNMEM()",
		"CALL PSSSIN(1, N, 2)",
		"CALL PSSSNX(J, PSDONE)",
		"IF (.NOT. PSSEG(1, 2)) GOTO",
		// TASKID arrays take 3 integers per element, WINDOW values 8.
		"INTEGER WORKERS(3, 4)",
		"INTEGER W(8)",
		"COMMON /RESULTS/ TOTAL, COUNT(100)",
		"CALL PSHNDL('RESULT', RESULT)",
		"CALL PSSGNL('DONE')",
		"CALL PSEXIT",
		"SUBROUTINE PSRGTT",
		"CALL PSRGST('HOST', PTHOST)",
		"CALL PSRGST('WORKER', PTWORKER)",
		"SUBROUTINE RESULT(X)",
	}
	for _, want := range wantFragments {
		if !strings.Contains(f, want) {
			t.Errorf("generated Fortran missing %q", want)
		}
	}
	// No Pisces keywords may survive in the output as statements.
	for _, forbidden := range []string{"FORCESPLIT", "END TASKTYPE", "PRESCHED", "SELFSCHED", "END ACCEPT", "NEXTSEG"} {
		for _, line := range strings.Split(f, "\n") {
			if IsComment(line) {
				continue
			}
			if strings.Contains(strings.ToUpper(line), forbidden) {
				t.Errorf("untranslated Pisces statement %q in output line %q", forbidden, line)
			}
		}
	}
	// The SELFSCHED loop terminator must have been rewritten into a back jump.
	if !strings.Contains(f, "GOTO 9000") {
		t.Error("SELFSCHED loop closure missing")
	}
}

func TestEmitCustomPrefixAndComments(t *testing.T) {
	res, err := Preprocess(sampleProgram, Options{RuntimePrefix: "PX", KeepComments: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Fortran, "CALL PXFORK") || !strings.Contains(res.Fortran, "CALL PXINIT") {
		t.Error("custom runtime prefix not applied")
	}
	if !strings.Contains(res.Fortran, "C A small Pisces Fortran program") {
		t.Error("KeepComments did not preserve the leading comment")
	}
}

// TestParserErrors: what Parse rejects — malformed Pisces statements and
// unclosed blocks — it rejects with a *Error at the offending line.  The
// interpreter compiles through the same Parse, so `pisces run` and
// `piscesfc` cannot report different lines for these.
func TestParserErrors(t *testing.T) {
	cases := []struct {
		name, src string
		line      int
	}{
		{"unclosed tasktype", "TASKTYPE T\n      X = 1\n", 1},
		{"stray end tasktype", "END TASKTYPE\n", 1},
		{"bad header", "TASKTYPE \n", 1},
		{"unbalanced params", "TASKTYPE T(A, B\nEND TASKTYPE\n", 1},
		{"bad placement", "TASKTYPE T\nON NOWHERE INITIATE W(1)\nEND TASKTYPE\n", 2},
		{"initiate no args", "TASKTYPE T\nON ANY INITIATE \nEND TASKTYPE\n", 2},
		{"unbalanced call", "TASKTYPE T\nON ANY INITIATE W(1\nEND TASKTYPE\n", 2},
		{"send no dest", "TASKTYPE T\nTO  SEND M(1)\nEND TASKTYPE\n", 2},
		{"accept without of", "TASKTYPE T\nACCEPT 3\nEND TASKTYPE\n", 2},
		{"unclosed accept", "TASKTYPE T\nACCEPT 1 OF\n  M\n", 2},
		{"delay without then", "TASKTYPE T\nACCEPT 1 OF\n M\nDELAY 5\nEND ACCEPT\nEND TASKTYPE\n", 4},
		{"bad accept entry", "TASKTYPE T\nACCEPT 1 OF\n M 3 EXTRA\nEND ACCEPT\nEND TASKTYPE\n", 3},
		{"critical no lock", "TASKTYPE T\nCRITICAL\nEND CRITICAL\nEND TASKTYPE\n", 3}, // column-1 C: a comment
		{"stray end critical", "TASKTYPE T\nEND CRITICAL\nEND TASKTYPE\n", 2},
		{"stray nextseg", "TASKTYPE T\nNEXTSEG\nEND TASKTYPE\n", 2},
		{"bad presched", "TASKTYPE T\nPRESCHED DO 10\nEND TASKTYPE\n", 2},
		{"presched no equals", "TASKTYPE T\nPRESCHED DO 10 I 1, 5\nEND TASKTYPE\n", 2},
		{"presched bad bounds", "TASKTYPE T\nPRESCHED DO 10 I = 1\nEND TASKTYPE\n", 2},
		{"shared common name", "TASKTYPE T\nSHARED COMMON X, Y\nEND TASKTYPE\n", 2},
		{"shared common slash", "TASKTYPE T\nSHARED COMMON /BLK X, Y\nEND TASKTYPE\n", 2},
		{"handler no name", "TASKTYPE T\nHANDLER \nEND TASKTYPE\n", 2},

		// The inputs of the retired two-parser line-agreement test, with the
		// line both tools reported at the last commit that had two parsers.
		{"unterminated accept", "TASKTYPE T\n      ACCEPT 1 OF\n        M\n      DELAY 1.0 THEN\nEND TASKTYPE\n", 2},
		{"initiate w/o type", "TASKTYPE T\n      ON ANY INITIATE\nEND TASKTYPE\n", 2},
		{"send w/o dest", "TASKTYPE T\n      TO SEND M(1)\nEND TASKTYPE\n", 2},
		{"critical w/o lock", "TASKTYPE T\n      CRITICAL\nEND TASKTYPE\n", 2},
		{"parseg unterminated", "TASKTYPE T\n      PARSEG\n      PRINT *, 1\nEND TASKTYPE\n", 2},
		{"tasktype unterminated", "TASKTYPE T\n      PRINT *, 1\n", 1},
		{"shared common w/o slashes", "TASKTYPE T\n      SHARED COMMON FOO\nEND TASKTYPE\n", 2},
		{"second stmt bad", "TASKTYPE T\n      PRINT *, 'OK'\n      ON ANY INITIATE\nEND TASKTYPE\n", 3},

		// A Pisces statement where only ordinary Fortran can stand used to be
		// copied into the "standard Fortran" untranslated.
		{"pisces object of logical if", "TASKTYPE T\n      X = 1\n      IF (X .GT. 0) TO USER SEND M(1)\nEND TASKTYPE\n", 3},
		{"block pisces object of logical if", "TASKTYPE T\n      IF (X .GT. 0) BARRIER\n      END BARRIER\nEND TASKTYPE\n", 2},
		{"labelled pisces statement", "TASKTYPE T\n10    TO USER SEND M(1)\nEND TASKTYPE\n", 2},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		var pe *Error
		switch {
		case err == nil:
			t.Errorf("%s: expected a parse error", c.name)
		case !errors.As(err, &pe):
			t.Errorf("%s: error %v is not a *pfc.Error", c.name, err)
		case pe.Line != c.line:
			t.Errorf("%s: error at line %d (%v), want line %d", c.name, pe.Line, err, c.line)
		}
	}
}

// TestOpaqueLines: a line that is not a statement of the interpreted subset
// is no parse error — Emit passes it through byte for byte — and carries the
// positioned diagnostic the interpreter reports when asked to run it.
func TestOpaqueLines(t *testing.T) {
	cases := []struct{ line, diag string }{
		{"100   FORMAT(1X, I5)", "statement not supported by the interpreter"},
		{"      DATA X /1.0/", "statement not supported by the interpreter"},
		{"      COMMON /B/ X", "plain COMMON is not supported"},
		{"      X = 1 +", "unexpected token"},
		{"      X = 1 # 2", `unexpected "#"`},
		{"      PRINT 100, X", "only list-directed PRINT"},
		{"      S = NAME(1:3) // 'X'", `unexpected ":"`},
		{"      PRINT *, 'OOPS", "unterminated character literal"},
		{"      IF (X) 10, 20, 30", "statement not supported by the interpreter"},
		{"      IF (X .GT. 0) DO 10 I = 1, 2", "cannot be the object of a logical IF"},
		{"      TO USER SEND M(NAME(1:3))", `unexpected ":"`},
	}
	for _, c := range cases {
		src := "TASKTYPE T\n" + c.line + "\nEND TASKTYPE\n"
		prog, err := Parse(src)
		if err != nil {
			t.Errorf("%q: Parse: %v", c.line, err)
			continue
		}
		st := prog.TaskTypes[0].Body[0]
		if st.Err == nil || st.Err.Line != 2 || !strings.Contains(st.Err.Msg, c.diag) {
			t.Errorf("%q: Err = %v, want line 2 %q", c.line, st.Err, c.diag)
		}
		if st.Text != c.line {
			t.Errorf("%q: Text = %q", c.line, st.Text)
		}
		out, err := Emit(prog, Options{})
		if err != nil {
			t.Errorf("%q: Emit: %v", c.line, err)
		} else if st.Kind != StmtSend && !strings.Contains(out, "\n"+c.line+"\n") {
			t.Errorf("%q: not passed through unchanged:\n%s", c.line, out)
		}
	}
	// The one translated row: the argument text is copied as written.
	res, err := Preprocess("TASKTYPE T\n      TO USER SEND M(NAME(1:3))\nEND TASKTYPE\n", Options{})
	if err != nil || !strings.Contains(res.Fortran, "CALL PSMSGA(NAME(1:3))") {
		t.Errorf("unparsed argument not copied into the translation: %v\n%v", err, res)
	}
}

// TestCharacterLiteralsSurviveTranslation: message and initiation arguments
// are copied from the source exactly where it matters — inside a character
// literal — and upper-cased and blank-collapsed only outside one.
func TestCharacterLiteralsSurviveTranslation(t *testing.T) {
	cases := []struct{ stmt, want string }{
		{"TO SELF SEND MSG('hello  world')", "CALL PSMSGA('hello  world')"},
		{"to self send msg( 'it''s' ,  n )", "CALL PSMSGA('it''s')\n      CALL PSMSGA(N)"},
		{"TO USER SEND M('a, b', 'f(x)', \"q'q\")", "CALL PSMSGA('a, b')\n      CALL PSMSGA('f(x)')\n      CALL PSMSGA(\"q'q\")"},
		{"ON ANY INITIATE W('Mixed Case', len( 'a  b' ))", "CALL PSMSGA('Mixed Case')\n      CALL PSMSGA(LEN( 'a  b' ))"},
		{"TO ids( i ) SEND M('x')", "CALL PSSEND('M', 'TASKID', IDS( I ))"},
	}
	for _, c := range cases {
		res, err := Preprocess("TASKTYPE T\n      "+c.stmt+"\nEND TASKTYPE\n", Options{})
		if err != nil {
			t.Errorf("%s: %v", c.stmt, err)
			continue
		}
		if !strings.Contains(res.Fortran, c.want) {
			t.Errorf("%s: translation lacks %q:\n%s", c.stmt, c.want, res.Fortran)
		}
	}
}

// TestExpressionDepthIsCapped: a hostile line of a million parentheses is a
// positioned diagnostic, not a stack overflow — which in Go is fatal to the
// whole process, past any recover.
func TestExpressionDepthIsCapped(t *testing.T) {
	const n = 1_000_000
	src := "TASKTYPE T\n      X = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "\nEND TASKTYPE\n"
	start := time.Now()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.TaskTypes[0].Body[0]
	if st.Err == nil || st.Err.Line != 2 || !strings.Contains(st.Err.Msg, "nested deeper") {
		t.Fatalf("Err = %v, want a nesting diagnostic at line 2", st.Err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("parse took %v", d)
	}
	// The cap leaves room for anything a person writes.
	ok := "TASKTYPE T\n      X = " + strings.Repeat("(", 50) + "1" + strings.Repeat(")", 50) + "\nEND TASKTYPE\n"
	if prog, err := Parse(ok); err != nil || prog.TaskTypes[0].Body[0].Err != nil {
		t.Errorf("50 levels rejected: %v %v", err, prog.TaskTypes[0].Body[0].Err)
	}
}

func TestSelfschedWithoutTerminatorIsRejected(t *testing.T) {
	src := "TASKTYPE T\nFORCESPLIT\nSELFSCHED DO 30 I = 1, 10\n      X = I\nEND TASKTYPE\n"
	if _, err := Preprocess(src, Options{}); err == nil {
		t.Fatal("SELFSCHED DO without its terminating label should be rejected at emit time")
	}
}

func TestOrdinaryFortranPassesThroughUnchanged(t *testing.T) {
	src := `TASKTYPE PLAIN
      INTEGER I, J
      J = 0
      DO 10 I = 1, 10
      J = J + I
10    CONTINUE
      IF (J .GT. 50) THEN
        J = 50
      END IF
END TASKTYPE
`
	res, err := Preprocess(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"J = J + I", "10    CONTINUE", "IF (J .GT. 50) THEN", "END IF"} {
		if !strings.Contains(res.Fortran, want) {
			t.Errorf("pass-through line %q missing", want)
		}
	}
}

// TestSplitArgs: argument lists split at top-level commas only — commas
// inside parentheses and CHARACTER literals belong to the argument — and
// each argument keeps its exact source text.
func TestSplitArgs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"A", []string{"A"}},
		{"A, B, C", []string{"A", "B", "C"}},
		{"F(X, Y), B", []string{"F(X, Y)", "B"}},
		{"A(1,2), B(I, J(3))", []string{"A(1,2)", "B(I, J(3))"}},
		// Commas inside CHARACTER literals do not split.
		{"'A,B', C", []string{"'A,B'", "C"}},
		{"X, 'IT''S, OK', Y", []string{"X", "'IT''S, OK'", "Y"}},
	}
	for _, c := range cases {
		prog, err := Parse("TASKTYPE T\n      TO USER SEND M(" + c.in + ")\nEND TASKTYPE\n")
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		st := prog.TaskTypes[0].Body[0]
		var got []string
		for _, a := range st.Args {
			got = append(got, a.Src)
		}
		if !reflect.DeepEqual(got, c.want) || st.Err != nil {
			t.Errorf("arguments of M(%s) = %q (Err %v), want %q", c.in, got, st.Err, c.want)
		}
	}
}

// TestStatementLabel: the numeric label of a line is a field of its Stmt.
func TestStatementLabel(t *testing.T) {
	cases := map[string]string{
		"10    CONTINUE":    "10",
		"      X = 1":       "",
		"5     Y(2) = 3":    "5",
		"100":               "100", // a label alone labels an empty statement: CONTINUE
		"  20  Z = 1":       "20",
		"C a comment line ": "",
		"30    X = 'oops":   "30", // survives a line that does not tokenise
	}
	for line, want := range cases {
		prog, err := Parse("TASKTYPE T\n" + line + "\nEND TASKTYPE\n")
		if err != nil {
			t.Errorf("%q: %v", line, err)
			continue
		}
		if got := prog.TaskTypes[0].Body[0].Label; got != want {
			t.Errorf("label of %q = %q, want %q", line, got, want)
		}
	}
}

// Property: preprocessing is deterministic and ordinary Fortran assignment
// lines always survive verbatim.
func TestQuickPassThroughStability(t *testing.T) {
	f := func(a, b uint8) bool {
		line := "      X" + strings.Repeat("X", int(a%4)) + " = " + strings.Repeat("1+", int(b%4)) + "1"
		src := "TASKTYPE T\n" + line + "\nEND TASKTYPE\n"
		r1, err1 := Preprocess(src, Options{})
		r2, err2 := Preprocess(src, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Fortran == r2.Fortran && strings.Contains(r1.Fortran, line)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPreprocess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Preprocess(sampleProgram, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
