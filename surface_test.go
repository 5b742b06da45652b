package pisces_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// surfaceAllowed names the exported functions and methods under internal/
// that no non-test code of the module or of bench/ calls, each with the
// reason it stays.  A key is the package directory's last element, then the
// receiver's type name for a method, then the function's name.  Some
// entries name a method whose name happens to be used elsewhere, so the
// name check below would pass without them; they are listed because the
// decision to keep them was made by hand.
var surfaceAllowed = map[string]string{
	// Go forms of the paper's statements, reached through the types
	// pisces.go re-exports.
	"core.Task.NewArray":          "Section 8: a task's local arrays exist only through NewArray",
	"core.Task.WholeWindow":       "Section 8: the window on a whole array",
	"core.Task.RequestFileWindow": "Section 8: a window on a file-controller array",
	"core.Common.SetInt":          "Section 7: the INTEGER store of a SHARED COMMON block",
	"core.Common.Int":             "accessor of the re-exported Common",
	"core.Common.Ints":            "accessor of the re-exported Common",
	"core.Common.Reals":           "accessor of the re-exported Common",
	"core.Common.Name":            "accessor of the re-exported Common",
	"core.Array.ID":               "accessor of the re-exported Array",
	"core.Array.Name":             "accessor of the re-exported Array",
	"core.Array.Owner":            "accessor of the re-exported Array",
	"core.Array.Rows":             "accessor of the re-exported Array",
	"core.Array.Cols":             "accessor of the re-exported Array",
	"core.Force.Members":          "accessor of the re-exported Force",
	"core.ForceMember.PE":         "accessor of the re-exported ForceMember",
	"core.ForceMember.Task":       "accessor of the re-exported ForceMember",
	"core.Lock.Name":              "accessor of the re-exported Lock",
	"core.Task.Println":           "Section 6 output TO USER, beside the Printf the examples use",
	"core.Task.TaskType":          "accessor of the re-exported Task",
	"core.VM.Backend":             "accessor of the re-exported VM",
	"core.VM.FlightRecorder":      "accessor of the re-exported VM",
	"core.VM.Kernel":              "accessor of the re-exported VM",
	"core.VM.TaskTypes":           "accessor of the re-exported VM",

	// The conformance harness: its entry points are run by the package's
	// own sweeps.
	"conformance.Corpus":          "the sweeps' program corpus",
	"conformance.Run":             "the plain sweep",
	"conformance.RunInstrumented": "the metrics-and-spans sweep",
	"conformance.RunRecorded":     "the flight-recorder sweep",
	"conformance.RunObserved":     "the all-sinks sweep",
	"conformance.RunFault":        "the fault-network sweep",
	"conformance.RunKill":         "the kill-a-node sweep",

	// Test drivers that other packages' tests share.
	"node.FaultMesh.Checkpoint": "cuts node i's checkpoint for core's and node's HA tests",
	"msgcodec.Equal":            "compares decoded argument lists in several packages' tests",
	"msgcodec.Encode":           "encodes a whole message for several packages' tests",
	"obs.Kinds":                 "the event kinds, for the root catalogue test",
	"experiments.E4Result.Best": "E4's speedup at the largest force, for the root benchmark and experiments' tests",
}

// TestEveryExportHasAProductionCaller is the ratchet that keeps test-only
// exports from coming back: every exported function, and every exported
// method of an exported type, declared in a non-test file under internal/
// must be named somewhere in the non-test code of the module or of bench/
// (its own declaration aside), or have an entry in surfaceAllowed.  An
// exported method of an unexported type is left out: outside its package it
// is reachable only through an interface it implements.  The check compares
// names, not objects, so that it needs only go/parser and stays well under a
// second; a method that shares its name with another function or method
// used anywhere passes even when nothing calls it, so the check
// under-reports and never over-reports.
func TestEveryExportHasAProductionCaller(t *testing.T) {
	used := make(map[string]bool)
	type decl struct {
		key string
		pos token.Position
	}
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := make(map[*ast.Ident]bool)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
				continue
			}
			key := filepath.Base(filepath.Dir(path)) + "."
			if fd.Recv != nil {
				recv := recvTypeName(fd.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				key += recv + "."
			}
			decls = append(decls, decl{key + fd.Name.Name, fset.Position(fd.Name.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 100 {
		t.Fatalf("found %d exported functions under internal/; is the test running at the module root?", len(decls))
	}
	seen := make(map[string]bool)
	for _, d := range decls {
		seen[d.key] = true
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if !used[name] && surfaceAllowed[d.key] == "" {
			t.Errorf("%s: %s has no caller outside tests; give it one, move it into the test file that uses it, or delete it", d.pos, d.key)
		}
	}
	for key := range surfaceAllowed {
		if !seen[key] {
			t.Errorf("surfaceAllowed names %s, which is not an exported function under internal/", key)
		}
	}
}

func recvTypeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// TestCIRunPatternsMatchTests reads the CI workflow and, for every `go test`
// step with a -run pattern, requires each `|` alternative of the pattern to
// match a Test, Fuzz or Benchmark function in one of the package
// directories the step lists: a -run alternative that matches nothing
// passes without running anything, so a renamed or deleted test would
// silently leave its step empty.  '^$' (run no test, used beside -fuzz) is
// the one pattern exempt.
func TestCIRunPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	runArg := regexp.MustCompile(`-run (?:'([^']*)'|"([^"]*)"|(\S+))`)
	steps := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		m := runArg.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pattern := m[1] + m[2] + m[3]
		if pattern == "^$" {
			continue
		}
		var names []string
		for _, field := range strings.Fields(line) {
			if strings.HasPrefix(field, "./") {
				names = append(names, testFuncs(t, field)...)
			}
		}
		if len(names) == 0 {
			t.Errorf("ci.yml: no test functions in the packages of %q", strings.TrimSpace(line))
			continue
		}
		steps++
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
			if err != nil {
				t.Errorf("ci.yml: -run alternative %q: %v", alt, err)
				continue
			}
			found := false
			for _, name := range names {
				if re.MatchString(name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("ci.yml: -run alternative %q matches no test in the packages of %q", alt, strings.TrimSpace(line))
			}
		}
	}
	if steps < 10 {
		t.Fatalf("found %d go test steps with -run in ci.yml", steps)
	}
}

// testFuncs lists the Test, Fuzz and Benchmark functions of the test files
// in dir.
func testFuncs(t *testing.T, dir string) []string {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
					if strings.HasPrefix(fd.Name.Name, prefix) {
						names = append(names, fd.Name.Name)
					}
				}
			}
		}
	}
	return names
}
