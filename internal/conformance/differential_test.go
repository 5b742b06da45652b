package conformance

import (
	"errors"
	"os"
	"testing"

	"repro/internal/pfc"
	"repro/internal/pfi"
)

// errLine extracts the source line number from a pfc or pfi diagnostic.
func errLine(t *testing.T, err error) int {
	t.Helper()
	var pe *pfc.Error
	if errors.As(err, &pe) {
		return pe.Line
	}
	var ie *pfi.Error
	if errors.As(err, &ie) {
		return ie.Line
	}
	t.Fatalf("error %v (%T) carries no line number", err, err)
	return 0
}

// TestDifferentialCompile: the two consumers of the one Pisces Fortran front
// end — pfc.Emit (paper's Section 10 tool chain) and the pfi interpreter —
// must agree on the corpus: every corpus program preprocesses if and only if
// it compiles.  For this corpus that means both succeed everywhere; a
// program one consumer accepts and the other rejects is a fault in one of
// them.
func TestDifferentialCompile(t *testing.T) {
	names, srcs := corpusPrograms(t)
	for _, name := range names {
		src := srcs[name]
		_, pfcErr := pfc.Preprocess(src, pfc.Options{})
		_, pfiErr := pfi.CompileUncached(src)
		if (pfcErr == nil) != (pfiErr == nil) {
			t.Errorf("%s: consumers disagree: pfc err=%v, pfi err=%v", name, pfcErr, pfiErr)
			continue
		}
		if pfcErr != nil {
			t.Errorf("%s: corpus program rejected by both consumers: %v", name, pfcErr)
		}
	}
}

// TestDifferentialDiagnostics: what pfc.Parse rejects, both tools reject with
// the very same diagnostic — `pisces run` reports the parser's *pfc.Error and
// adds no reading of its own — so a workflow that hops between `piscesfc`
// and `pisces run` is never sent to two different statements.  (With one
// parser the lines cannot differ; what this still pins is that the
// interpreter passes the parser's diagnostic through unchanged.  The line
// numbers themselves are asserted in internal/pfc's TestParserErrors.)
func TestDifferentialDiagnostics(t *testing.T) {
	cases := map[string]string{
		"unterminated accept":   "TASKTYPE T\n      ACCEPT 1 OF\n        M\n      DELAY 1.0 THEN\nEND TASKTYPE\n",
		"initiate w/o type":     "TASKTYPE T\n      ON ANY INITIATE\nEND TASKTYPE\n",
		"send w/o dest":         "TASKTYPE T\n      TO SEND M(1)\nEND TASKTYPE\n",
		"critical w/o lock":     "TASKTYPE T\n      CRITICAL\nEND TASKTYPE\n",
		"parseg unterminated":   "TASKTYPE T\n      PARSEG\n      PRINT *, 1\nEND TASKTYPE\n",
		"tasktype unterminated": "TASKTYPE T\n      PRINT *, 1\n",
		"shared common name":    "TASKTYPE T\n      SHARED COMMON FOO\nEND TASKTYPE\n",
		"second stmt bad": "TASKTYPE T\n      PRINT *, 'OK'\n" +
			"      ON ANY INITIATE\nEND TASKTYPE\n",
		// Once rejected by `pisces run` only, and copied untranslated into
		// `piscesfc`'s "standard Fortran".
		"pisces object of logical if": "TASKTYPE T\n      IF (X .GT. 0) TO USER SEND M(1)\nEND TASKTYPE\n",
		"labelled pisces statement":   "TASKTYPE T\n10    TO USER SEND M(1)\nEND TASKTYPE\n",
	}
	for name, src := range cases {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			_, pfcErr := pfc.Preprocess(src, pfc.Options{})
			_, pfiErr := pfi.CompileUncached(src)
			if pfcErr == nil || pfiErr == nil {
				t.Fatalf("expected both tools to reject: piscesfc=%v pisces run=%v", pfcErr, pfiErr)
			}
			var pe *pfc.Error
			if !errors.As(pfiErr, &pe) || pfiErr.Error() != pfcErr.Error() {
				t.Errorf("diagnostics differ: piscesfc %q vs pisces run %q", pfcErr, pfiErr)
			}
		})
	}

	// pfi performs whole-program checks pfc (a line-by-line translator) does
	// not, and refuses lines pfc passes through as ordinary Fortran; both
	// must still carry accurate line numbers.
	pfiOnly := map[string]struct {
		src  string
		line int
	}{
		"duplicate tasktype": {"TASKTYPE T\nEND TASKTYPE\nTASKTYPE T\nEND TASKTYPE\n", 3},
		"truncated expr":     {"TASKTYPE T\n      X = 1 +\nEND TASKTYPE\n", 2},
	}
	for name, c := range pfiOnly {
		name, c := name, c
		t.Run("pfi-only/"+name, func(t *testing.T) {
			if _, err := pfc.Preprocess(c.src, pfc.Options{}); err != nil {
				t.Fatalf("pfc unexpectedly rejects: %v", err)
			}
			_, err := pfi.CompileUncached(c.src)
			if err == nil {
				t.Fatal("pfi unexpectedly accepts")
			}
			if got := errLine(t, err); got != c.line {
				t.Errorf("pfi line = %d (%v), want %d", got, err, c.line)
			}
		})
	}
}

// TestExamplesCompileBothWays keeps the shipped example programs valid for
// both consumers (the corpus check above covers them too, via
// corpusPrograms; this asserts it for the exact files on disk).
func TestExamplesCompileBothWays(t *testing.T) {
	for _, p := range []string{"../../examples/sumsq.pf", "../../examples/piscesfortran/program.pf"} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pfc.Preprocess(string(b), pfc.Options{}); err != nil {
			t.Errorf("%s: pfc: %v", p, err)
		}
		if _, err := pfi.CompileUncached(string(b)); err != nil {
			t.Errorf("%s: pfi: %v", p, err)
		}
	}
}
