package pisces_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// surfaceAllowed names the declarations under internal/ that no non-test
// code of the module or of bench/ refers to, each with the reason it stays.
// A key is the package directory's last element, then the receiver's type
// name for a method (the struct type's name for a field), then the
// declared name.  An entry for a declaration that has a reference fails.
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
	"core.Task.OnMessage":         "Section 6: the Go form of a HANDLER declaration",
	"core.Task.Signal":            "Section 6: the Go form of a SIGNAL declaration",
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

// TestEveryExportHasAProductionCaller is the ratchet that keeps unused and
// test-only declarations from coming back.  It type-checks the non-test code
// of the module and of bench/ and collects every object a non-test file
// refers to.  Every package-level declaration under internal/ (function,
// method, type, variable, constant, unexported ones included) and every
// field of a struct type declared there must be among them, or have an entry
// in surfaceAllowed.  A reference is to an object, not a name: a use of an
// instantiated generic method or field counts for its origin, and a struct
// literal without keys refers to every field it sets.  Three kinds are
// exempt: a method that satisfies an interface type present in the checked
// code (net.Conn, backend.Backend, a marker interface) or one the standard
// library asserts an any to (fmt.Stringer, errors.Is's Is), as the call goes
// through the interface; an embedded field, whose uses are its promoted
// fields and methods; and a blank name.
func TestEveryExportHasAProductionCaller(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := typeCheck(t, fset)

	used := make(map[types.Object]bool)
	ifaces := make(map[*types.Interface]bool)
	for _, it := range implicitIfaces() {
		ifaces[it] = true
	}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, tv := range p.info.Types {
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tuple.Len(); i++ {
						addIface(tuple.At(i).Type())
					}
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				if st, ok := p.info.Types[lit].Type.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						used[origin(st.Field(i))] = true
					}
				}
				return true
			})
		}
	}
	satisfiesIface := func(fn *types.Func) bool {
		recv := fn.Signature().Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}

	seen := make(map[string]bool)
	declared := 0
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, "repro/internal/") {
			continue
		}
		pkgName := p.path[strings.LastIndex(p.path, "/")+1:]
		for _, f := range p.files {
			check := func(id *ast.Ident, key string) {
				obj := p.info.Defs[id]
				if obj == nil || id.Name == "_" {
					return
				}
				declared++
				seen[key] = true
				if used[obj] {
					if surfaceAllowed[key] != "" {
						t.Errorf("%s: surfaceAllowed lists %s, which has a reference outside tests; drop the entry", fset.Position(id.Pos()), key)
					}
					return
				}
				if surfaceAllowed[key] != "" {
					return
				}
				if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil && satisfiesIface(fn) {
					return
				}
				t.Errorf("%s: %s has no reference outside tests; give it one, move it into the test file that uses it, or delete it", fset.Position(id.Pos()), key)
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name == "init" {
						continue
					}
					key := pkgName + "."
					if d.Recv != nil {
						key += recvTypeName(d.Recv.List[0].Type) + "."
					}
					check(d.Name, key+d.Name.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								check(id, pkgName+"."+id.Name)
							}
						case *ast.TypeSpec:
							check(spec.Name, pkgName+"."+spec.Name.Name)
						}
					}
				}
			}
			// Fields of every struct type, keyed by the innermost type
			// declaration (or function) around them.
			var scope []string
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					scope = append(scope, n.Name.Name)
					ast.Inspect(n.Type, walk)
					scope = scope[:len(scope)-1]
					return false
				case *ast.FuncDecl:
					scope = append(scope, n.Name.Name)
					if n.Body != nil {
						ast.Inspect(n.Body, walk)
					}
					scope = scope[:len(scope)-1]
					return false
				case *ast.Field:
					if len(n.Names) == 0 {
						return true // embedded
					}
					if v, ok := p.info.Defs[n.Names[0]].(*types.Var); !ok || !v.IsField() {
						return true // a parameter or result
					}
					owner := "?"
					if len(scope) > 0 {
						owner = scope[len(scope)-1]
					}
					for _, id := range n.Names {
						check(id, pkgName+"."+owner+"."+id.Name)
					}
				}
				return true
			}
			ast.Inspect(f, walk)
		}
	}
	if declared < 1000 {
		t.Fatalf("checked %d declarations under internal/; is the test running at the module root?", declared)
	}
	for key := range surfaceAllowed {
		if !seen[key] {
			t.Errorf("surfaceAllowed names %s, which is not a declaration under internal/", key)
		}
	}
}

// checkedPackage is one type-checked package of the module or of bench/.
type checkedPackage struct {
	path  string
	files []*ast.File
	info  *types.Info
}

// typeCheck type-checks the non-test files of every package of the module
// and of bench/ from source, in dependency order, and imports the standard
// library from the export data go list names.
func typeCheck(t *testing.T, fset *token.FileSet) []*checkedPackage {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...", "repro/...")
	cmd.Dir = "bench" // its module requires this one, so both are in view
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	exports := make(map[string]string)
	var order []listed
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var l listed
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		if l.Standard {
			exports[l.ImportPath] = l.Export
		} else {
			order = append(order, l)
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	var pkgs []*checkedPackage
	for _, l := range order {
		if checked[l.ImportPath] != nil {
			continue
		}
		p := &checkedPackage{path: l.ImportPath, info: &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}}
		for _, name := range l.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(l.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			p.files = append(p.files, f)
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(l.ImportPath, fset, p.files, p.info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", l.ImportPath, err)
		}
		checked[l.ImportPath] = tp
		pkgs = append(pkgs, p)
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// implicitIfaces are the interfaces the standard library asserts a value of
// type any to: fmt.Stringer, which fmt's verbs call, and the Is method
// errors.Is looks for.
func implicitIfaces() []*types.Interface {
	method := func(name string, param, result types.Type) *types.Interface {
		var params *types.Tuple
		if param != nil {
			params = types.NewTuple(types.NewVar(token.NoPos, nil, "", param))
		}
		sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewVar(token.NoPos, nil, "", result)), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	errType := types.Universe.Lookup("error").Type()
	return []*types.Interface{
		method("String", nil, types.Typ[types.String]),
		method("Is", errType, types.Typ[types.Bool]),
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
