package pisces_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRuntimeDoesNotImportPaperReproduction pins the layering the roadmap
// states: internal/schedule, exec and experiments are the paper reproduction
// (§3 baseline, §11 menu, E1–E8) and sit above the runtime, so nothing in
// the import closure of the runtime packages may reach them.
func TestRuntimeDoesNotImportPaperReproduction(t *testing.T) {
	runtime := []string{"./internal/core", "./internal/node", "./internal/serve", "./internal/pfi", "./internal/obs"}
	out, err := exec.Command("go", append([]string{"list", "-deps"}, runtime...)...).Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	if len(deps) < len(runtime) {
		t.Fatalf("go list -deps printed %d packages for %d roots", len(deps), len(runtime))
	}
	for _, dep := range deps {
		switch dep {
		case "repro/internal/schedule", "repro/internal/exec", "repro/internal/experiments":
			t.Errorf("runtime packages import %s", dep)
		}
	}
}

// TestOnlyMsgcodecImportsEncodingBinary pins the one-wire-cursor rule: how a
// length-checked big-endian field comes off a peer's bytes is decided in
// internal/msgcodec and nowhere else, so no other package's non-test code
// reaches for encoding/binary.
func TestOnlyMsgcodecImportsEncodingBinary(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}}{{range .Imports}} {{.}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 10 {
		t.Fatalf("go list printed %d packages", len(lines))
	}
	for _, line := range lines {
		pkg, imports, _ := strings.Cut(line, " ")
		if pkg == "repro/internal/msgcodec" {
			continue
		}
		for _, imp := range strings.Fields(imports) {
			if imp == "encoding/binary" {
				t.Errorf("%s imports encoding/binary; read wire bytes through msgcodec's Cursor and Append* instead", pkg)
			}
		}
	}
}

// TestOneFrontEndForPiscesFortran pins where Pisces Fortran text is read:
// internal/pfc is the standalone Section 10 preprocessor — tokenizer,
// expression parser and statement recogniser — and imports nothing else of
// this repository (the Expr it shares with the interpreter must not drag
// pfi or core in), and internal/pfi has no lexer or expression parser to
// grow a second reading of the language in.
func TestOneFrontEndForPiscesFortran(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{join .Imports " "}}`, "./internal/pfc").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	if len(strings.Fields(string(out))) == 0 {
		t.Fatal("go list printed no imports for internal/pfc")
	}
	for _, imp := range strings.Fields(string(out)) {
		if strings.HasPrefix(imp, "repro/") {
			t.Errorf("internal/pfc imports %s; the preprocessor stands alone", imp)
		}
	}
	for _, name := range []string{"lexer.go", "expr.go"} {
		if _, err := os.Stat(filepath.Join("internal", "pfi", name)); err == nil {
			t.Errorf("internal/pfi/%s exists; tokenizing and expression parsing belong to internal/pfc", name)
		}
	}
}

// TestOneEmissionRoutinePerLayer pins the one-announcement-per-site rule: an
// event reaches the Section 12 trace sinks, the flight-recorder ring and the
// span capture only through the emission routine — obs.Registry.Emit, which
// core's VM.emit forwards to — so no non-test code outside internal/obs calls
// (*obs.Recorder).Record (recognised by its five arguments), builds a
// trace.Event, calls a trace sink's Emit (any .Emit( in a file that imports
// internal/trace, or in that package) or calls the span buffer's add
// (spans.add), and inside internal/obs only event.go does.  bench/ is the
// measuring harness: it times Record directly and is not walked.
func TestOneEmissionRoutinePerLayer(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "." {
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
		files++
		slash := filepath.ToSlash(path)
		if slash == "internal/obs/event.go" {
			return nil
		}
		knowsTrace := f.Name.Name == "trace"
		for _, imp := range f.Imports {
			knowsTrace = knowsTrace || imp.Path.Value == `"repro/internal/trace"`
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Event" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "trace" {
						t.Errorf("%s: builds a trace.Event; the trace line is rendered in obs.Registry.Emit", fset.Position(n.Pos()))
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				buf, _ := sel.X.(*ast.SelectorExpr)
				announces := sel.Sel.Name == "Record" && len(n.Args) == 5 ||
					sel.Sel.Name == "add" && buf != nil && buf.Sel.Name == "spans" ||
					sel.Sel.Name == "Emit" && knowsTrace
				if announces {
					t.Errorf("%s: calls %s directly; announce through emit (obs.Registry.Emit) instead",
						fset.Position(n.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked %d non-test Go files; the rule is not looking at the repository", files)
	}
}

// TestOneSendHead pins the shape of the way out of internal/core: one
// routing decision (VM.dispatch is the only caller of routeRemote and of
// routeMessage, the two cross-cluster routes), one staging encode (the only AppendEncode, into an outbound frame's payload
// buffer), and one enqueue
// owning queue.put and its outcomes for every user or system message —
// FlushUserOutput's sync token and Shutdown's unmetered shutdown message are
// the two puts that are not messages anyone sent.  The heap shards only
// count: no call addresses their bytes.  What only connected the old copies
// stays gone: the per-VM message sequence number nothing read, the in-process
// loopback Transport, the inbound header struct and the route enum.
func TestOneSendHead(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("internal", "core"), func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs["core"]
	if pkg == nil || len(pkg.Files) < 15 {
		t.Fatalf("parsed %d packages from internal/core; the rule is not looking at the run-time", len(pkgs))
	}
	calls := map[string][]string{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if n.Name == "msgSeq" {
						t.Errorf("%s: identifier msgSeq; arrival order is the in-queue's ring order", fset.Position(n.Pos()))
					}
				case *ast.TypeSpec:
					if n.Name.Name == "loopback" || n.Name.Name == "inbound" || n.Name.Name == "route" {
						t.Errorf("%s: type %s is back", fset.Position(n.Pos()), n.Name.Name)
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					name := sel.Sel.Name
					if recv, ok := sel.X.(*ast.SelectorExpr); name == "put" && (!ok || recv.Sel.Name != "queue") {
						return true
					}
					if fn != nil && name == "put" && (fn.Name.Name == "FlushUserOutput" || fn.Name.Name == "Shutdown") {
						return true
					}
					calls[name] = append(calls[name], fset.Position(n.Pos()).String())
				}
				return true
			})
		}
	}
	for _, name := range []string{"put", "routeRemote", "routeMessage", "AppendEncode"} {
		if got := calls[name]; len(got) != 1 {
			t.Errorf("%d calls of %s in internal/core, want exactly one: %v", len(got), name, got)
		}
	}
	if got := calls["Bytes"]; len(got) != 0 {
		t.Errorf("internal/core addresses a heap shard's arena: %v", got)
	}
}

// TestSimPackagesUseTheBackend pins determinism by construction: the code a
// -sim run executes touches time, concurrency and the network only through
// the backend (backend.Backend: Spawn, Now, AfterFunc, gates, conds), so the
// simulator's seed fixes everything it does.  Non-test code of core, pfi,
// memory, node, serve, flex and mmos — the TCP adapter (node/tcp.go) and the
// HTTP API (serve/http.go) aside — may contain no go statement, no wall-clock
// read or timer of package time, no net dial or listen, and no call of
// math/rand's shared generator; a generator of its own, seeded with rand.New,
// is what a seed replays.  Node code waits on its peers, and MMOS's processes
// on each PE's CPU, so node, flex and mmos may also hold no select statement,
// channel send or receive, or sync.Cond: the simulator cannot see a task
// blocked on one, and a run would hang where it should report a deadlock.
func TestSimPackagesUseTheBackend(t *testing.T) {
	forbidden := map[string]func(name string) bool{
		"time": func(name string) bool {
			switch name {
			case "Now", "Sleep", "After", "NewTimer", "NewTicker", "Since", "Until":
				return true
			}
			return false
		},
		"net": func(name string) bool {
			return strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") && name != "Listener"
		},
		"math/rand": func(name string) bool {
			return name != "New" && name != "NewSource" && name != "Rand" && name != "Source"
		},
		"sync": func(name string) bool { return name == "Cond" || name == "NewCond" },
	}
	fset := token.NewFileSet()
	var files []*ast.File
	strict := map[*ast.File]bool{} // files that may not wait outside the backend
	for _, dir := range []string{"core", "pfi", "memory", "node", "serve", "flex", "mmos"} {
		pkgs, err := parser.ParseDir(fset, filepath.Join("internal", dir), func(fi fs.FileInfo) bool {
			name := fi.Name()
			return !strings.HasSuffix(name, "_test.go") && !(dir == "node" && name == "tcp.go") && !(dir == "serve" && name == "http.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range pkgs[dir].Files {
			files = append(files, f)
			strict[f] = dir == "node" || dir == "flex" || dir == "mmos"
		}
	}
	if len(files) < 35 {
		t.Fatalf("parsed %d files; the rule is not looking at the run-time", len(files))
	}
	for _, f := range files {
		imported := map[string]string{} // local name -> import path, for the guarded packages
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if forbidden[path] == nil || path == "sync" && !strict[f] {
				continue
			}
			name := filepath.Base(path)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement; spawn through the backend", fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if path := imported[x.Name]; path != "" && forbidden[path](n.Sel.Name) {
						t.Errorf("%s: %s.%s; the backend owns time, concurrency and the network", fset.Position(n.Pos()), path, n.Sel.Name)
					}
				}
			case *ast.SelectStmt:
				if strict[f] {
					t.Errorf("%s: select statement; wait on a backend primitive", fset.Position(n.Pos()))
				}
			case *ast.SendStmt:
				if strict[f] {
					t.Errorf("%s: channel send; wait on a backend primitive", fset.Position(n.Pos()))
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && strict[f] {
					t.Errorf("%s: channel receive; wait on a backend primitive", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}
