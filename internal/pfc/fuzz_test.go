package pfc

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// deepLine nests an expression far past maxExprDepth.
var deepLine = "      X = " + strings.Repeat("(", 10_000) + "1" + strings.Repeat(")", 10_000)

// FuzzLex feeds arbitrary text lines through the tokenizer.  It must either
// tokenise or return a positioned error — never panic — and every token must
// map back to a slice of the line, in order.
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
	f.Add(deepLine)
	f.Fuzz(func(t *testing.T, line string) {
		toks, err := lex(nil, line, 1)
		var pe *Error
		if err != nil && (!errors.As(err, &pe) || pe.Line != 1) {
			t.Fatalf("lex(%q) error %v is not a *Error at line 1", line, err)
		}
		at := 0
		for _, tok := range toks {
			if tok.pos < at || tok.end <= tok.pos || tok.end > len(line) {
				t.Fatalf("lex(%q): token %+v out of order or out of the line", line, tok)
			}
			at = tok.end
		}
	})
}

// FuzzParse feeds arbitrary program text through Parse and Emit (the
// interpreter's half of the same property is internal/pfi's FuzzParse).
// Malformed programs are rejected with a *Error whose Line lies inside the
// source, never a panic; what Parse accepts, Emit translates or rejects the
// same way, and every soft diagnostic is positioned inside the source too.
func FuzzParse(f *testing.F) {
	for _, src := range fuzzSeedSources(f) {
		f.Add(src)
	}
	f.Add("TASKTYPE T\n      ACCEPT 1 OF\nEND TASKTYPE\n")
	f.Add("TASKTYPE T\n      DO 10 I = 1,\n10    CONTINUE\nEND TASKTYPE\n")
	f.Add("TASKTYPE T(")
	f.Add("TASKTYPE T\n" + deepLine + "\nEND TASKTYPE\n")
	f.Fuzz(func(t *testing.T, src string) {
		lines := strings.Count(src, "\n") + 1
		inside := func(err error) {
			var pe *Error
			if !errors.As(err, &pe) {
				t.Fatalf("error %v (%T) is not a *pfc.Error", err, err)
			}
			if pe.Line < 1 || pe.Line > lines {
				t.Fatalf("error %v is positioned outside the %d-line source", err, lines)
			}
		}
		prog, err := Parse(src)
		if err != nil {
			inside(err)
			return
		}
		var walk func([]Stmt)
		walk = func(body []Stmt) {
			for _, st := range body {
				if st.Err != nil {
					inside(st.Err)
				}
				walk(st.Body)
				for _, seg := range st.Segments {
					walk(seg)
				}
				if st.Accept != nil {
					walk(st.Accept.OnTimeout)
				}
			}
		}
		for _, tt := range prog.TaskTypes {
			walk(tt.Body)
		}
		if _, err := Emit(prog, Options{}); err != nil {
			inside(err)
		}
	})
}
