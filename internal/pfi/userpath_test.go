package pfi

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
)

// faninSource is bench/programs/fanin.pf with the round count a parameter:
// two producers on cluster 3 send rounds of 128 DATUM messages (8 REAL
// arguments) and a FLUSH to MAIN on cluster 1, which takes them one ACCEPT
// at a time and credits every FLUSH.
func faninSource(rounds int) (src string, msgs int) {
	msgs = 2 * rounds * 128
	return fmt.Sprintf(`TASKTYPE MAIN
      INTEGER GOT, WANT, NFL, WFL
      REAL TOTAL
      WANT = %d
      WFL = %d
      GOT = 0
      NFL = 0
      TOTAL = 0.0
      ON CLUSTER 3 INITIATE PROD(1.0)
      ON CLUSTER 3 INITIATE PROD(2.0)
10    CONTINUE
      ACCEPT 1 OF DATUM, FLUSH
      IF (NMSG('FLUSH') .GT. 0) THEN
        TO SENDER SEND CREDIT
        NFL = NFL + 1
      ELSE
        GOT = GOT + 1
        TOTAL = TOTAL + MSGR('DATUM', 1, 8)
      END IF
      IF (GOT .LT. WANT .OR. NFL .LT. WFL) GOTO 10
      PRINT *, 'GOT', GOT, TOTAL
END TASKTYPE

TASKTYPE PROD(X)
      REAL X
      INTEGER R, I
      DO 20 R = 1, %d
        DO 10 I = 1, 128
          TO PARENT SEND DATUM(X, X, X, X, X, X, X, X)
10      CONTINUE
        TO PARENT SEND FLUSH
        ACCEPT 1 OF CREDIT
20    CONTINUE
END TASKTYPE
`, msgs, 2*rounds, rounds), msgs
}

// TestInterpretedFanInAllocBudget holds what a Pisces Fortran message
// allocates on the user path — SEND evaluated, staged and decoded across
// clusters, ACCEPT 1 OF, NMSG, MSGR — to a quarter of an object and 64 bytes.
// PR 20 (cc83ccc) reads 8.18 objects and 3,097 bytes a message in this test;
// PR 21, which reused SEND's argument list, ACCEPT's spec and ACCEPT's
// result, 1.08 and 1,294 under a budget of half PR 20's — the one object left
// was the receiver's decoded argument list, 8 Values of 144 bytes.  That list
// now lives in the pooled message header, which read 0.03-0.08 objects and
// 4-32 bytes; PR 25 made the timer an ACCEPT blocked under its finite timeout
// waits on once per task instead of once per wait, and this tree reads
// 0.01-0.02 objects and 3-8 bytes.
func TestInterpretedFanInAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		parentObjects, parentBytes = 1.08, 1294.0
		maxObjects, maxBytes       = 0.25, 64.0
	)
	run := func(rounds int) (objects, bytes float64) {
		src, msgs := faninSource(rounds)
		var out strings.Builder
		vm, err := core.NewVM(config.Simple(4, 4), core.Options{UserOutput: &out, AcceptTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer vm.Shutdown()
		p, err := CompileUncached(src)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = p.Run(vm, Options{})
		runtime.ReadMemStats(&after)
		if want := fmt.Sprintf("GOT %d %d\n", msgs, msgs/2*3); err != nil || out.String() != want {
			t.Fatalf("fan-in printed %q, %v; want %q", out.String(), err, want)
		}
		return float64(after.Mallocs-before.Mallocs) / float64(msgs), float64(after.TotalAlloc-before.TotalAlloc) / float64(msgs)
	}
	run(4) // warm the message pool
	objects, bytes := run(64)
	t.Logf("%.2f objects and %.0f bytes a message (parent: %.2f and %.0f)", objects, bytes, parentObjects, parentBytes)
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("an interpreted fan-in message allocates %.2f objects and %.0f bytes; budget %.2f and %.0f", objects, bytes, maxObjects, maxBytes)
	}
}

// acceptProgram is one program written twice: head holds the ACCEPT operands
// as the literals or as the variables N, K and D (set to the same values).
const acceptProgram = `TASKTYPE MAIN
      INTEGER N, K, I
      REAL D
      N = 3
      K = 2
      D = 0.05
      DO 10 I = 1, 4
        TO SELF SEND A(I)
        TO SELF SEND B(I)
10    CONTINUE
      ACCEPT %[1]s OF A, B
      PRINT *, 'SHARED', NMSG('A'), NMSG('B'), QLEN()
      ACCEPT OF
        A %[2]s
        B ALL
      END ACCEPT
      PRINT *, 'COUNTED', NMSG('A'), NMSG('B'), MSGI('A', %[2]s, 1), QLEN()
      ACCEPT %[1]s OF
        A
        NEVER
      DELAY %[3]s THEN
        PRINT *, 'TIMED OUT WITH', NMSG('A')
      END ACCEPT
      PRINT *, 'LEFT', QLEN(), TIMEDOUT()
END TASKTYPE
`

// TestCompiledAcceptSpecMatchesEvaluated: an ACCEPT whose total, counts and
// DELAY are constants and one whose operands are variables accept identically
// — shared total, per-type count next to ALL, and a DELAY that expires — with
// the statement's type list refilled in the task's scratch each time.
func TestCompiledAcceptSpecMatchesEvaluated(t *testing.T) {
	literal := fmt.Sprintf(acceptProgram, "3", "2", "0.05")
	variable := fmt.Sprintf(acceptProgram, "N", "K", "D")

	want := []string{"SHARED 2 1 5", "COUNTED 2 3 4 0", "TIMED OUT WITH 0", "LEFT 0 T"}
	for name, src := range map[string]string{"literal": literal, "variable": variable} {
		out, _, err := interpret(t, config.Simple(1, 2), src, Options{})
		if err != nil {
			t.Fatalf("%s operands: %v", name, err)
		}
		if out != strings.Join(want, "\n")+"\n" {
			t.Errorf("%s operands printed\n%q\nwant lines %q", name, out, want)
		}
	}

	// A constant head that cannot be evaluated fails at the statement, with
	// the statement's line.
	_, _, err := interpret(t, config.Simple(1, 2), "TASKTYPE MAIN\n      ACCEPT 'X' OF A\nEND TASKTYPE\n", Options{})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("ACCEPT 'X' OF A: %v, want a run-time error at line 2", err)
	}
}
