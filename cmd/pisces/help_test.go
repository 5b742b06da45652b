package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// helpGoldens names each verb's -h capture under testdata/help, the
// function that implements the verb and the arguments that print it.
var helpGoldens = []struct {
	golden string
	verb   func([]string, io.Writer) error
	args   []string
}{
	{"top", runConfigure, []string{"-h"}},
	{"run", runInterpreted, []string{"-h"}},
	{"serve-peers", runServeVerb, []string{"-peers", "a:1,b:2", "-h"}},
	{"serve", runServeVerb, []string{"-h"}},
	{"loadgen", runLoadgen, []string{"-h"}},
	{"blackbox", runBlackbox, []string{"-h"}},
}

// TestHelpGolden pins every verb's -h text — each flag's name, type, help
// line and default — and requires the usage block of the package comment to
// name every flag the verbs take.
func TestHelpGolden(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "package main")
	documented := map[string]bool{}
	for _, w := range strings.FieldsFunc(doc, func(r rune) bool { return r != '-' && (r < 'a' || r > 'z') }) {
		documented[w] = true
	}
	for _, tc := range helpGoldens {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "help", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := tc.verb(tc.args, &out); err != nil {
				t.Fatalf("%v: %v", tc.args, err)
			}
			if out.String() != string(want) {
				t.Errorf("%v differs from testdata/help/%s.golden:\n%s", tc.args, tc.golden, out.String())
			}
			for _, line := range strings.Split(string(want), "\n") {
				if f := strings.Fields(line); strings.HasPrefix(line, "  -") && !documented[f[0]] {
					t.Errorf("the usage block of main.go's package comment does not name %s", f[0])
				}
			}
		})
	}
}
