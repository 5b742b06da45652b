package pfi

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
)

// interpret compiles and runs src on a VM booted for cfg, returning the user
// terminal output and the compiled program.
func interpret(t *testing.T, cfg *config.Configuration, src string, opts Options, args ...core.Value) (string, *Program, error) {
	t.Helper()
	var buf strings.Builder
	vm, err := core.NewVM(cfg, core.Options{UserOutput: &buf, AcceptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	runErr := p.Run(vm, opts, args...)
	return buf.String(), p, runErr
}

func wantLines(t *testing.T, got string, want ...string) {
	t.Helper()
	if got != strings.Join(want, "\n")+"\n" {
		t.Errorf("output:\n%q\nwant lines %q", got, want)
	}
}

// TestSequentialFortran drives the ordinary Fortran 77 subset: declarations,
// arrays, DO loops (both forms), block and logical IF, GOTO, intrinsics.
func TestSequentialFortran(t *testing.T) {
	src := `TASKTYPE MAIN
      INTEGER I, J, K, A(5), B(3,3)
      REAL X
      J = 0
      DO 10 I = 1, 5
        A(I) = I * I
        J = J + A(I)
10    CONTINUE
      PRINT *, 'SUMSQ', J
      IF (J .GT. 50) THEN
        PRINT *, 'BIG'
      ELSE IF (J .EQ. 55) THEN
        PRINT *, 'EXACT'
      ELSE
        PRINT *, 'SMALL'
      END IF
      X = SQRT(REAL(A(4)))
      PRINT *, 'ROOT', X
      B(2,3) = 7
      PRINT *, 'B23', B(2, 3)
      I = 0
40    CONTINUE
      I = I + 1
      IF (I .LT. 3) GOTO 40
      PRINT *, 'LOOPED', I
      DO K = 1, 3
        IF (K .EQ. 2) GOTO 60
      END DO
60    CONTINUE
      PRINT *, 'DONE', MOD(7, 3), MIN(4, 2, 9), ABS(-2.5)
      IF (1.EQ.1 .AND. .NOT. 2 .GT. 3) PRINT *, 'DOTTED'
      WRITE(*,*) 'WROTE', 2 ** 3, 7 / 2, 7.0 / 2.0
      STOP
END TASKTYPE
`
	out, p, err := interpret(t, config.Simple(1, 2), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out,
		"SUMSQ 55",
		"BIG",
		"ROOT 4",
		"B23 7",
		"LOOPED 3",
		"DONE 1 2 2.5",
		"DOTTED",
		"WROTE 8 3 3.5",
	)
	if got := p.Counters().Get("tasks.completed"); got != 1 {
		t.Errorf("tasks.completed = %d", got)
	}
	if got := p.Counters().Get("loop.iterations"); got != 5+2 {
		t.Errorf("loop.iterations = %d, want 7", got)
	}
}

// TestInterpretPingPong exercises INITIATE, SEND to PARENT/SENDER/taskid
// variables, ACCEPT, and the SENDER/MSGI/NMSG intrinsics across two clusters.
func TestInterpretPingPong(t *testing.T) {
	src := `TASKTYPE MAIN
      TASKID WID
      SIGNAL READY
      ON OTHER INITIATE ECHO
      ACCEPT 1 OF READY
      WID = SENDER
      TO WID SEND PING(7)
      ACCEPT 1 OF PONG
      PRINT *, 'PONG VALUE', MSGI('PONG', 1, 1)
      TO WID SEND STOP
END TASKTYPE

TASKTYPE ECHO
      INTEGER V
      TO PARENT SEND READY
20    CONTINUE
      ACCEPT 1 OF PING, STOP
      IF (NMSG('STOP') .GT. 0) RETURN
      V = MSGI('PING', 1, 1)
      TO SENDER SEND PONG(V + 1)
      GOTO 20
END TASKTYPE
`
	out, p, err := interpret(t, config.Simple(2, 4), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "PONG VALUE 8")
	c := p.Counters()
	if got := c.Get("initiates"); got != 1 {
		t.Errorf("initiates = %d, want 1", got)
	}
	if got := c.Get("sends"); got != 4 { // READY, PING, PONG, STOP
		t.Errorf("sends = %d, want 4", got)
	}
	if got := c.Get("accepts"); got != 4 {
		t.Errorf("accepts = %d, want 4", got)
	}
	if got := c.Get("tasks.completed"); got != 2 {
		t.Errorf("tasks.completed = %d, want 2", got)
	}
}

// TestInterpretForcePresched exercises FORCESPLIT, PRESCHED DO, SHARED
// COMMON, LOCK/CRITICAL, BARRIER, and the MEMBERS intrinsic on a four-member
// force.
func TestInterpretForcePresched(t *testing.T) {
	src := `TASKTYPE MAIN
      INTEGER N
      REAL PRIV
      SHARED COMMON /ACC/ FSUM
      LOCK SUMLK
      N = 20
      FORCESPLIT
      PRIV = 0.0
      PRESCHED DO 30 I = 1, N
        PRIV = PRIV + REAL(I)
30    CONTINUE
      CRITICAL SUMLK
        FSUM = FSUM + PRIV
      END CRITICAL
      BARRIER
        PRINT *, 'MEMBERS', MEMBERS()
        PRINT *, 'SUM', FSUM
      END BARRIER
END TASKTYPE
`
	cfg := config.Simple(1, 2).WithForces(1, 7, 8, 9)
	out, p, err := interpret(t, cfg, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "MEMBERS 4", "SUM 210")
	c := p.Counters()
	if got := c.Get("forcesplits"); got != 1 {
		t.Errorf("forcesplits = %d, want 1", got)
	}
	if got := c.Get("barriers"); got != 4 { // one execution per member
		t.Errorf("barriers = %d, want 4", got)
	}
	if got := c.Get("criticals"); got != 4 {
		t.Errorf("criticals = %d, want 4", got)
	}
	if got := c.Get("loop.iterations"); got != 20 {
		t.Errorf("loop.iterations = %d, want 20", got)
	}
}

// TestInterpretSelfschedParseg covers the other two force scheduling
// disciplines on a single-member force (sequential degeneration).
func TestInterpretSelfschedParseg(t *testing.T) {
	src := `TASKTYPE MAIN
      INTEGER J
      SHARED COMMON /ACC/ TOT
      J = 0
      FORCESPLIT
      SELFSCHED DO 10 I = 1, 10
      J = J + I
10    CONTINUE
      CRITICAL LK
        TOT = TOT + REAL(J)
      END CRITICAL
      PARSEG
        PRINT *, 'SEG1'
      NEXTSEG
        PRINT *, 'SEG2'
      ENDSEG
      BARRIER
        PRINT *, 'TOT', TOT
      END BARRIER
END TASKTYPE
`
	out, _, err := interpret(t, config.Simple(1, 2), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "SEG1", "SEG2", "TOT 55")
}

// TestAcceptDelayTimeout exercises the DELAY ... THEN timeout path and the
// TIMEDOUT intrinsic.
func TestAcceptDelayTimeout(t *testing.T) {
	src := `TASKTYPE MAIN
      ACCEPT 1 OF
        NEVER
      DELAY 0.05 THEN
        PRINT *, 'TIMED OUT'
        IF (TIMEDOUT()) PRINT *, 'IN BODY', NMSG('NEVER')
      END ACCEPT
      IF (TIMEDOUT()) PRINT *, 'FLAG T'
END TASKTYPE
`
	out, p, err := interpret(t, config.Simple(1, 2), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// TIMEDOUT()/NMSG must already reflect this ACCEPT inside its own DELAY
	// body, not just after END ACCEPT.
	wantLines(t, out, "TIMED OUT", "IN BODY 0", "FLAG T")
	if got := p.Counters().Get("accept.timeouts"); got != 1 {
		t.Errorf("accept.timeouts = %d, want 1", got)
	}
}

// TestUnresolvedGotoFails: a GOTO whose label does not exist must be a
// reported error, not a silent early task exit.
func TestUnresolvedGotoFails(t *testing.T) {
	src := "TASKTYPE MAIN\n      GOTO 99\n      PRINT *, 'UNREACHED'\nEND TASKTYPE\n"
	_, p, err := interpret(t, config.Simple(1, 2), src, Options{})
	if err == nil || !strings.Contains(err.Error(), "GOTO 99") {
		t.Errorf("err = %v, want unresolved-GOTO error", err)
	}
	if got := p.Counters().Get("tasks.completed"); got != 0 {
		t.Errorf("tasks.completed = %d for a failed task", got)
	}
}

// TestSecondaryMemberStopFails: STOP inside a force region must be an error
// (a deserting member would hang the others at the next barrier).
func TestSecondaryMemberStopFails(t *testing.T) {
	src := `TASKTYPE MAIN
      FORCESPLIT
      IF (MEMBER() .GT. 1) STOP
END TASKTYPE
`
	cfg := config.Simple(1, 2).WithForces(1, 7)
	_, _, err := interpret(t, cfg, src, Options{})
	if err == nil || !strings.Contains(err.Error(), "desert the force") {
		t.Errorf("err = %v, want desertion error", err)
	}
}

// TestForceMemberErrorDoesNotDeadlock: a member hitting a run-time error
// before a BARRIER must not hang the force — the statement is skipped, the
// barrier completes, and the error is reported after the join.
func TestForceMemberErrorDoesNotDeadlock(t *testing.T) {
	src := `TASKTYPE MAIN
      INTEGER A(2)
      FORCESPLIT
      A(MEMBER() * 2) = 1
      BARRIER
        PRINT *, 'THROUGH'
      END BARRIER
END TASKTYPE
`
	out, err := interpretWithTimeout(t, config.Simple(1, 2).WithForces(1, 7), src)
	if err == nil || !strings.Contains(err.Error(), "force member 2") {
		t.Errorf("err = %v, want force member 2 subscript error", err)
	}
	if !strings.Contains(out, "THROUGH") {
		t.Errorf("barrier body did not run: %q", out)
	}
}

// interpretWithTimeout guards force-alignment tests against regressions that
// deadlock instead of failing.
func interpretWithTimeout(t *testing.T, cfg *config.Configuration, src string) (string, error) {
	t.Helper()
	done := make(chan struct{})
	var out string
	var err error
	go func() {
		defer close(done)
		out, _, err = interpret(t, cfg, src, Options{})
	}()
	select {
	case <-done:
		return out, err
	case <-time.After(20 * time.Second):
		t.Fatal("interpreted program deadlocked")
		return "", nil
	}
}

// TestSignalDeclInsideForce: SIGNAL executed by every member of a force
// declares nothing at run time, so no member touches the task's state.
func TestSignalDeclInsideForce(t *testing.T) {
	src := `TASKTYPE MAIN
      FORCESPLIT
      SIGNAL DONE
      BARRIER
        PRINT *, 'OK'
      END BARRIER
END TASKTYPE
`
	out, err := interpretWithTimeout(t, config.Simple(1, 2).WithForces(1, 7, 8), src)
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "OK")
}

// TestGotoOutOfBarrierBodyFails: a control transfer out of a BARRIER body
// would move only the primary; it must be an error, not a divergence hang.
func TestGotoOutOfBarrierBodyFails(t *testing.T) {
	src := `TASKTYPE MAIN
      FORCESPLIT
      BARRIER
        GOTO 40
      END BARRIER
      BARRIER
      END BARRIER
40    CONTINUE
END TASKTYPE
`
	_, err := interpretWithTimeout(t, config.Simple(1, 2).WithForces(1, 7), src)
	if err == nil || !strings.Contains(err.Error(), "BARRIER body") {
		t.Errorf("err = %v, want barrier-body transfer error", err)
	}
}

// TestSelfschedBoundErrorStaysAligned: a member whose SELFSCHED bounds fail
// to evaluate must skip the collective without desynchronising the force's
// collective numbering (the following BARRIER must still complete).
func TestSelfschedBoundErrorStaysAligned(t *testing.T) {
	src := `TASKTYPE MAIN
      FORCESPLIT
      SELFSCHED DO 30 I = 1, INT(MSGI('T', 1, 1))
      CONTINUE
30    CONTINUE
      BARRIER
        PRINT *, 'JOINED'
      END BARRIER
END TASKTYPE
`
	out, err := interpretWithTimeout(t, config.Simple(1, 2).WithForces(1, 7), src)
	if err == nil || !strings.Contains(err.Error(), "MSGI") {
		t.Errorf("err = %v, want MSGI-before-ACCEPT error", err)
	}
	if !strings.Contains(out, "JOINED") {
		t.Errorf("force did not rejoin at the barrier: %q", out)
	}
}

// TestSkippedCollectiveAbortsForce: when a member's error skips a compound
// statement containing a BARRIER, the force degrades its synchronisation
// (core's force abort) instead of stranding the members that do reach it.
func TestSkippedCollectiveAbortsForce(t *testing.T) {
	src := `TASKTYPE MAIN
      INTEGER A(2)
      A(1) = 1
      A(2) = 1
      FORCESPLIT
      IF (A(MEMBER()) .GT. 0) THEN
        BARRIER
          PRINT *, 'IN'
        END BARRIER
      END IF
END TASKTYPE
`
	// Three members: member 3 errors evaluating A(3), skips the IF block (and
	// with it the BARRIER); members 1 and 2 must still get through.
	out, err := interpretWithTimeout(t, config.Simple(1, 2).WithForces(1, 7, 8), src)
	if err == nil || !strings.Contains(err.Error(), "force member 3") {
		t.Errorf("err = %v, want member-3 subscript error", err)
	}
	if !strings.Contains(out, "IN") {
		t.Errorf("barrier body did not run after force abort: %q", out)
	}
}

// TestSharedCommonInsideRegionRejected: SHARED COMMON executed after the
// split would create member-private storage; it must be a diagnostic, not a
// silent wrong answer.
func TestSharedCommonInsideRegionRejected(t *testing.T) {
	src := `TASKTYPE MAIN
      FORCESPLIT
      SHARED COMMON /ACC/ FSUM
      BARRIER
      END BARRIER
END TASKTYPE
`
	_, err := interpretWithTimeout(t, config.Simple(1, 2).WithForces(1, 7), src)
	if err == nil || !strings.Contains(err.Error(), "before FORCESPLIT") {
		t.Errorf("err = %v, want declare-before-FORCESPLIT diagnostic", err)
	}
}

// TestPostAbortCollectivesDoNotPanic: after a member skips a collective and
// aborts the force, its misaligned op index must not pair with another
// statement's collective instance (formerly an interface-conversion panic).
func TestPostAbortCollectivesDoNotPanic(t *testing.T) {
	src := `TASKTYPE MAIN
      INTEGER N
      FORCESPLIT
      IF (MEMBER() .EQ. 1) N = 5
      SELFSCHED DO 30 I = 1, N
      CONTINUE
30    CONTINUE
      BARRIER
        PRINT *, 'END'
      END BARRIER
END TASKTYPE
`
	out, err := interpretWithTimeout(t, config.Simple(1, 2).WithForces(1, 7, 8), src)
	if err == nil || !strings.Contains(err.Error(), "used before it is set") {
		t.Errorf("err = %v, want the real unset-variable diagnostic", err)
	}
	if !strings.Contains(out, "END") {
		t.Errorf("degraded barrier did not run its body: %q", out)
	}
}

// TestPreSplitAcceptVisibleToAllMembers: the ACCEPT result from before the
// split steers region control flow identically on every member — a
// divergence here would strand the primary at the barrier.
func TestPreSplitAcceptVisibleToAllMembers(t *testing.T) {
	src := `TASKTYPE MAIN
      ON ANY INITIATE CHILD
      ACCEPT 1 OF PING
      FORCESPLIT
      IF (NMSG('PING') .GT. 0) THEN
        BARRIER
          PRINT *, 'SYNCED'
        END BARRIER
      END IF
END TASKTYPE

TASKTYPE CHILD
      TO PARENT SEND PING(1)
END TASKTYPE
`
	out, err := interpretWithTimeout(t, config.Simple(1, 4).WithForces(1, 7), src)
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "SYNCED")
}

// TestArrayParamReshapedTo2D: a 1-D message array bound to a parameter
// declared two-dimensional is reshaped in Fortran (column-major) storage
// order, not rejected.
func TestArrayParamReshapedTo2D(t *testing.T) {
	src := `TASKTYPE MAIN
      INTEGER M(6), I
      DO 10 I = 1, 6
      M(I) = I
10    CONTINUE
      ON ANY INITIATE T(M)
      ACCEPT 1 OF R
      PRINT *, 'V', MSGI('R', 1, 1)
END TASKTYPE

TASKTYPE T(M)
      INTEGER M(2, 3)
      TO PARENT SEND R(M(2, 1))
END TASKTYPE
`
	out, _, err := interpret(t, config.Simple(1, 4), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Column-major: element (2,1) is the second stored value.
	wantLines(t, out, "V 2")
}

// TestGotoLabeledEndIf: a labelled END IF is a legal GOTO target (transfer to
// just after the block); a labelled END DO cycles the loop.
func TestGotoLabeledEndIf(t *testing.T) {
	src := `TASKTYPE MAIN
      INTEGER I, S
      IF (1 .EQ. 1) THEN
        GOTO 100
        PRINT *, 'SKIPPED'
100   END IF
      PRINT *, 'AFTER'
      S = 0
      DO I = 1, 3
        S = S + 1
        IF (S .GT. 90) PRINT *, 'NEVER'
        GOTO 200
        S = S + 100
200   END DO
      PRINT *, 'S', S
END TASKTYPE
`
	out, _, err := interpret(t, config.Simple(1, 2), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "AFTER", "S 3")
}

// TestRunTwiceResetsError: a Program may be re-Run; a failed first run must
// not poison a successful second run.
func TestRunTwiceResetsError(t *testing.T) {
	var buf strings.Builder
	vm, err := core.NewVM(config.Simple(1, 2), core.Options{UserOutput: &buf, AcceptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()
	p, err := Compile("TASKTYPE MAIN(FAIL)\n      INTEGER FAIL, X\n      IF (FAIL .GT. 0) X = 1 / (FAIL - FAIL)\n      PRINT *, 'OK'\nEND TASKTYPE\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(vm, Options{}, core.Int(1)); err == nil {
		t.Fatal("first run should fail with division by zero")
	}
	if err := p.Run(vm, Options{}, core.Int(0)); err != nil {
		t.Errorf("second run reported stale error: %v", err)
	}
}

// TestSharedDoTerminator: nested DO loops ending on one shared label (legal
// Fortran 77) close every enclosing loop.
func TestSharedDoTerminator(t *testing.T) {
	src := `TASKTYPE MAIN
      INTEGER I, J, S
      S = 0
      DO 10 I = 1, 3
      DO 10 J = 1, 2
      S = S + 1
10    CONTINUE
      PRINT *, 'S', S
END TASKTYPE
`
	out, _, err := interpret(t, config.Simple(1, 2), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "S 6")

	// Reusing a terminator label for a later, disjoint loop is illegal
	// Fortran and must be a diagnostic, not a silently empty loop body.
	reuse := `TASKTYPE MAIN
      INTEGER I, J, S
      S = 0
      DO 10 I = 1, 3
      S = S + 1
10    CONTINUE
      DO 10 J = 1, 3
      S = S + 10
10    CONTINUE
END TASKTYPE
`
	if _, err := Compile(reuse); err == nil || !strings.Contains(err.Error(), "already used") {
		t.Errorf("reused DO terminator label: err = %v, want duplicate-label diagnostic", err)
	}
}

// TestSpacelessBlocks: Fortran blanks are optional around block keywords; the
// closers must match the openers' tolerance.
func TestSpacelessBlocks(t *testing.T) {
	src := `TASKTYPE MAIN
      INTEGER I
      I = 1
      IF(I.GT.1)THEN
        PRINT *, 'GT'
      ELSEIF(I.EQ.1)THEN
        PRINT *, 'EQ'
      ELSE
        PRINT *, 'LT'
      ENDIF
END TASKTYPE
`
	out, _, err := interpret(t, config.Simple(1, 2), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "EQ")
}

// TestAcceptInsideForceRegion: an ACCEPT the primary member executes inside
// a FORCESPLIT region must remain visible to MSG* after the region (when the
// region is nested inside a block and execution continues after it).
func TestAcceptInsideForceRegion(t *testing.T) {
	src := `TASKTYPE MAIN
      ON ANY INITIATE CHILD
      IF (1 .EQ. 1) THEN
      FORCESPLIT
      ACCEPT 1 OF HI
      END IF
      PRINT *, 'GOT', MSGI('HI', 1, 1)
END TASKTYPE

TASKTYPE CHILD
      TO PARENT SEND HI(5)
END TASKTYPE
`
	out, _, err := interpret(t, config.Simple(1, 2), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "GOT 5")
}

// TestParamBinding covers scalar and array initiation arguments.
func TestParamBinding(t *testing.T) {
	src := `TASKTYPE MAIN(BASE, XS)
      INTEGER BASE, I, S
      S = BASE
      DO 10 I = 1, 3
      S = S + INT(XS(I))
10    CONTINUE
      PRINT *, 'S', S
END TASKTYPE
`
	out, _, err := interpret(t, config.Simple(1, 2), src, Options{},
		core.Int(100), core.Reals([]float64{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "S 106")
}

// TestArrayParamSurvivesDeclaration: the type declaration Fortran requires
// for a dummy array must preserve (and convert) the INITIATE-passed data,
// not zero it.
func TestArrayParamSurvivesDeclaration(t *testing.T) {
	src := `TASKTYPE MAIN(A)
      INTEGER A(3), I, S
      REAL R(3)
      S = 0
      DO 10 I = 1, 3
      S = S + A(I)
10    CONTINUE
      PRINT *, 'SUM', S
END TASKTYPE
`
	out, _, err := interpret(t, config.Simple(1, 2), src, Options{},
		core.Ints([]int64{10, 20, 30}))
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "SUM 60")
}

func TestMainTaskTypeSelection(t *testing.T) {
	src := "TASKTYPE ALPHA\n      PRINT *, 'A'\nEND TASKTYPE\nTASKTYPE BETA\n      PRINT *, 'B'\nEND TASKTYPE\n"
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if name, err := p.MainTaskType(""); err != nil || name != "ALPHA" {
		t.Errorf("default main = %q, %v; want first tasktype ALPHA", name, err)
	}
	if name, err := p.MainTaskType("beta"); err != nil || name != "BETA" {
		t.Errorf("explicit main = %q, %v", name, err)
	}
	if _, err := p.MainTaskType("GAMMA"); err == nil {
		t.Error("unknown main tasktype accepted")
	}

	src = "TASKTYPE OTHER\n      CONTINUE\nEND TASKTYPE\nTASKTYPE MAIN\n      CONTINUE\nEND TASKTYPE\n"
	p, err = Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if name, _ := p.MainTaskType(""); name != "MAIN" {
		t.Errorf("main = %q, want MAIN when a MAIN tasktype exists", name)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"no tasktypes":       "      X = 1\n",
		"unsupported stmt":   "TASKTYPE T\n      FROB THE KNOB\nEND TASKTYPE\n",
		"unclosed block if":  "TASKTYPE T\n      IF (1 .EQ. 1) THEN\n      X = 1\nEND TASKTYPE\n",
		"stray endif":        "TASKTYPE T\n      END IF\nEND TASKTYPE\n",
		"stray else":         "TASKTYPE T\n      ELSE\nEND TASKTYPE\n",
		"do no terminator":   "TASKTYPE T\n      DO 10 I = 1, 5\n      X = I\nEND TASKTYPE\n",
		"enddo unopened":     "TASKTYPE T\n      END DO\nEND TASKTYPE\n",
		"goto no label":      "TASKTYPE T\n      GOTO X\nEND TASKTYPE\n",
		"unknown call":       "TASKTYPE T\n      CALL FROBNICATE(1)\nEND TASKTYPE\n",
		"plain common":       "TASKTYPE T\n      COMMON /B/ X\nEND TASKTYPE\n",
		"bad expression":     "TASKTYPE T\n      X = 1 +\nEND TASKTYPE\n",
		"bad print":          "TASKTYPE T\n      PRINT 'X'\nEND TASKTYPE\n",
		"presched no label":  "TASKTYPE T\nPRESCHED DO 10 I = 1, 5\n      X = I\nEND TASKTYPE\n",
		"forcesplit in do":   "TASKTYPE T\n      DO I = 1, 2\nFORCESPLIT\n      END DO\nEND TASKTYPE\n",
		"dup tasktype":       "TASKTYPE T\nEND TASKTYPE\nTASKTYPE T\nEND TASKTYPE\n",
		"bad dotted op":      "TASKTYPE T\n      X = 1 .FOO. 2\nEND TASKTYPE\n",
		"unterminated quote": "TASKTYPE T\n      PRINT *, 'OOPS\nEND TASKTYPE\n",
		"pisces in if":       "TASKTYPE T\n      IF (1 .GT. 0) TO USER SEND M(1)\nEND TASKTYPE\n",
		"labelled pisces":    "TASKTYPE T\n10    TO USER SEND M(1)\nEND TASKTYPE\n",
		"hostile nesting":    "TASKTYPE T\n      X = " + strings.Repeat("(", 100000) + "1" + strings.Repeat(")", 100000) + "\nEND TASKTYPE\n",
	}
	for name, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("%s: expected a compile error", name)
		}
	}
}

// TestCharacterLiteralArgumentsSurvive: SEND and INITIATE arguments are
// parsed from the source line itself, so a character literal arrives exactly
// as written — case, inner blanks, doubled quotes, commas and parentheses —
// the way PRINT always delivered it.
func TestCharacterLiteralArgumentsSurvive(t *testing.T) {
	cases := []struct{ literal, want string }{
		{"'hello  world'", "hello  world"},
		{"'Mixed Case'", "Mixed Case"},
		{"'it''s'", "it's"},
		{"'a, b'", "a, b"},
		{"'f(x), (y'", "f(x), (y"},
		{`"say 'hi'"`, "say 'hi'"},
	}
	for _, c := range cases {
		src := "TASKTYPE MAIN\n" +
			"      to self send msg( " + c.literal + " , 7)\n" +
			"      ACCEPT 1 OF MSG\n" +
			"      PRINT *, MSGS('MSG', 1, 1), MSGI('MSG', 1, 2)\n" +
			"      ON SAME INITIATE KID(" + c.literal + ")\n" +
			"      ACCEPT 1 OF BACK\n" +
			"      PRINT *, MSGS('BACK', 1, 1)\n" +
			"END TASKTYPE\n" +
			"TASKTYPE KID(S)\n" +
			"      TO PARENT SEND BACK(S)\n" +
			"END TASKTYPE\n"
		out, _, err := interpret(t, config.Simple(1, 2), src, Options{})
		if err != nil {
			t.Errorf("%s: %v", c.literal, err)
			continue
		}
		wantLines(t, out, c.want+" 7", c.want)
	}
}

// TestRuntimeErrors verifies that run-time failures are reported through
// Program.Err with source position, not silently swallowed.
func TestRuntimeErrors(t *testing.T) {
	cases := map[string]string{
		"unset variable":  "TASKTYPE MAIN\n      X = Y + 1\nEND TASKTYPE\n",
		"bad subscript":   "TASKTYPE MAIN\n      INTEGER A(3)\n      A(9) = 1\nEND TASKTYPE\n",
		"send to non-id":  "TASKTYPE MAIN\n      W = 2\nTO W SEND M(1)\nEND TASKTYPE\n",
		"unknown taskt":   "TASKTYPE MAIN\nON ANY INITIATE NOSUCH(1)\nEND TASKTYPE\n",
		"division zero":   "TASKTYPE MAIN\n      I = 0\n      J = 4 / I\nEND TASKTYPE\n",
		"msg before acc":  "TASKTYPE MAIN\n      I = MSGI('X', 1, 1)\nEND TASKTYPE\n",
		"param mismatch":  "TASKTYPE MAIN(A, B)\n      CONTINUE\nEND TASKTYPE\n",
		"if cond numeric": "TASKTYPE MAIN\n      IF (1 + 2) PRINT *, 'NO'\nEND TASKTYPE\n",
	}
	for name, src := range cases {
		out, p, err := interpret(t, config.Simple(1, 2), src, Options{})
		if err == nil {
			t.Errorf("%s: expected a run-time error", name)
			continue
		}
		if p.Err() == nil {
			t.Errorf("%s: Program.Err lost the error", name)
		}
		if !strings.Contains(out, "*** PFI error") {
			t.Errorf("%s: error not surfaced on the user terminal: %q", name, out)
		}
	}
}

// TestSecondaryMemberMessageGuard: message statements inside a force region
// are limited to the primary member.
func TestSecondaryMemberMessageGuard(t *testing.T) {
	src := `TASKTYPE MAIN
      FORCESPLIT
      TO PARENT SEND HELLO
END TASKTYPE
`
	cfg := config.Simple(1, 2).WithForces(1, 7)
	_, _, err := interpret(t, cfg, src, Options{})
	if err == nil || !strings.Contains(err.Error(), "primary member") {
		t.Errorf("err = %v, want primary-member guard", err)
	}
}

func TestExpressionEvaluation(t *testing.T) {
	// Pure-arithmetic evaluation without a VM: a bare execState with a frame.
	// All expressions compile against one slot table; the frame is created
	// after compilation (slots are assigned during compile) with N pre-set.
	tc := &taskCompiler{tab: newSlotTable()}
	nSlot := tc.tab.slotOf("N")
	st := &execState{p: mustCompile(t, "TASKTYPE T\nEND TASKTYPE\n")}
	cases := map[string]string{
		"1 + 2 * 3":            "7",
		"(1 + 2) * 3":          "9",
		"2 ** 3 ** 2":          "512", // right-associative
		"-2 ** 2":              "-4",  // unary minus binds looser than **
		"7 / 2":                "3",
		"7.0 / 2":              "3.5",
		"N - 1":                "9",
		"1.5E2":                "150",
		"1D1":                  "10",
		".5 + .5":              "1",
		"1 .LT. 2":             "T",
		"1 .GE. 2":             "F",
		"1 <= 2 .AND. 3 /= 4":  "T",
		".TRUE. .NEQV. .TRUE.": "F",
		"'A' .LT. 'B'":         "T",
		"MAX(1, 5, 3)":         "5",
		"NINT(2.6)":            "3",
		"MOD(9.5, 3.0)":        "0.5",
		"IABS(-4)":             "4",
		"AMAX1(1.0, 2.5)":      "2.5",
		"3 ** 4":               "81",
		"2 ** 62":              "4611686018427387904",
		"1 ** 2000000000":      "1", // must not spin O(exp)
		// Above 2**53: must compare on int64, not float64.
		"MIN(9007199254740993, 9007199254740992)": "9007199254740992",
		"MAX(9007199254740993, 9007199254740992)": "9007199254740993",
	}
	compiled := make(map[string]cexpr, len(cases))
	for src := range cases {
		compiled[src] = tc.compileExpr(mustParseExpr(t, src))
	}
	st.f = newFrame(tc.tab)
	st.f.slots[nSlot].v = intVal(10)
	for src, want := range cases {
		ce := compiled[src]
		if ce == nil {
			continue
		}
		v, err := ce(st)
		if err != nil {
			t.Errorf("%s: eval: %v", src, err)
			continue
		}
		if got := v.format(); got != want {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
}

func mustCompile(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWindowDeclarationDefinesZeroWindow: a declared-but-never-assigned
// WINDOW variable reads as the zero window (the run-time's documented
// treatment in value.windowPayload) rather than tripping use-before-set —
// programs have no statement form that manufactures a window value, so this
// is the only way a .pf program can put a WINDOW into a message it
// originates.
func TestWindowDeclarationDefinesZeroWindow(t *testing.T) {
	src := `TASKTYPE MAIN
      WINDOW W
      PRINT *, 'ROWS', WROWS(W)
      PRINT *, 'COLS', WCOLS(W)
END TASKTYPE
`
	out, _, err := interpret(t, config.Simple(1, 2), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "ROWS 0", "COLS 0")
}

// TestCountersGetAndSnapshot covers the interpreter's counter set on its own:
// bumps from several goroutines (tasks of one program share the set) add up
// while snapshots are being taken, an unknown name reads zero, and Snapshot
// lists every counter once, as pfi.<name>, in name order.
func TestCountersGetAndSnapshot(t *testing.T) {
	p, err := CompileUncached("TASKTYPE MAIN\n      PRINT *, 1\nEND TASKTYPE\n")
	if err != nil {
		t.Fatal(err)
	}
	c := p.Counters()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.statements.Inc()
				if i%100 == 0 {
					p.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Get("statements"); got != 8000 {
		t.Errorf("statements = %d, want 8000", got)
	}
	if got := c.Get("no.such.counter"); got != 0 {
		t.Errorf("unknown counter reads %d, want 0", got)
	}
	snap := p.Snapshot()
	if len(snap.Counters) != 12 {
		t.Fatalf("snapshot lists %d counters, want 12", len(snap.Counters))
	}
	for i, cs := range snap.Counters {
		name, ok := strings.CutPrefix(cs.Name, "pfi.")
		if !ok || cs.Value != c.Get(name) {
			t.Errorf("snapshot entry %q = %d, Get(%q) = %d", cs.Name, cs.Value, name, c.Get(name))
		}
		if i > 0 && snap.Counters[i-1].Name >= cs.Name {
			t.Errorf("snapshot not in name order: %q before %q", snap.Counters[i-1].Name, cs.Name)
		}
	}
}
