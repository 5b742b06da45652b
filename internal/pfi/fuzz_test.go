package pfi

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pfc"
)

// fuzzSeedSources collects the repository's real Pisces Fortran programs as
// the fuzz seed corpus: the examples and the conformance corpus.
func fuzzSeedSources(f *testing.F) []string {
	f.Helper()
	var srcs []string
	for _, pattern := range []string{
		"../../examples/*.pf",
		"../../examples/*/*.pf",
		"../conformance/corpus/*.pf",
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			srcs = append(srcs, string(b))
		}
	}
	if len(srcs) == 0 {
		f.Fatal("no seed .pf programs found")
	}
	return srcs
}

// compileNeverPanics compiles src and checks the error's type: a parse
// diagnostic is a *pfc.Error, everything the structure pass and the code
// generator reject is a *pfi.Error.  CompileUncached keeps fuzz garbage out
// of the process-wide compiled-unit cache.
func compileNeverPanics(t *testing.T, src string) {
	_, err := CompileUncached(src)
	var pe *pfc.Error
	var ie *Error
	if err != nil && !errors.As(err, &pe) && !errors.As(err, &ie) {
		t.Fatalf("compile error %v (%T) carries no source line", err, err)
	}
}

// FuzzLex is the line-level fuzz target of the interpreter's front end: one
// arbitrary line as the whole body of a task, through pfc.Parse and the
// structure and code-generation passes.  (The tokenizer itself is fuzzed
// where it lives, by internal/pfc's FuzzLex; mutating single lines reaches
// statement forms that whole-program mutation in FuzzParse rarely does.)
func FuzzLex(f *testing.F) {
	for _, src := range fuzzSeedSources(f) {
		for _, line := range strings.Split(src, "\n") {
			f.Add(line)
		}
	}
	f.Add("1.EQ.2 .AND. .NOT. X")
	f.Add("'unterminated")
	f.Add("1E+")
	f.Add(".XYZ.")
	f.Fuzz(func(t *testing.T, line string) {
		compileNeverPanics(t, "TASKTYPE T\n"+line+"\nEND TASKTYPE\n")
	})
}

// FuzzParse feeds arbitrary program text through the full front end: the
// pfc parser followed by the pfi structure pass and code generator.  Both
// must reject malformed programs with positioned errors, never panic.
func FuzzParse(f *testing.F) {
	for _, src := range fuzzSeedSources(f) {
		f.Add(src)
	}
	f.Add("TASKTYPE T\n      ACCEPT 1 OF\nEND TASKTYPE\n")
	f.Add("TASKTYPE T\n      DO 10 I = 1,\n10    CONTINUE\nEND TASKTYPE\n")
	f.Add("TASKTYPE T(")
	for _, dims := range hostileExtents {
		f.Add("TASKTYPE T\n      REAL A(" + dims + ")\nEND TASKTYPE\n")
	}
	f.Fuzz(compileNeverPanics)
}
