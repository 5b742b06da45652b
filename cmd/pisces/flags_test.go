package main

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// flagDefiners maps each flag-defining method of flag.FlagSet (and of the
// flag package) to the index of its name argument and its argument count.
var flagDefiners = map[string][2]int{
	"Bool": {0, 3}, "Int": {0, 3}, "Int64": {0, 3}, "Uint": {0, 3}, "Uint64": {0, 3}, "String": {0, 3},
	"Float64": {0, 3}, "Duration": {0, 3}, "Func": {0, 3}, "BoolFunc": {0, 3},
	"BoolVar": {1, 4}, "IntVar": {1, 4}, "Int64Var": {1, 4}, "UintVar": {1, 4}, "Uint64Var": {1, 4},
	"StringVar": {1, 4}, "Float64Var": {1, 4}, "DurationVar": {1, 4}, "TextVar": {1, 4}, "Var": {1, 3},
}

// TestFlagSurface pins the command's flag surface: the non-test code of
// cmd/pisces holds at most 43 flag definitions, and each flag name is
// defined once — a flag several verbs take is registered through its group.
// -addr is the one name with two meanings: the daemon's listen address and
// loadgen's target.
func TestFlagSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	defs := map[string][]string{} // flag name -> positions defining it
	total := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			def, ok := flagDefiners[sel.Sel.Name]
			if !ok || len(call.Args) != def[1] {
				return true // String() and friends: not a definition
			}
			at := def[0]
			total++
			lit, ok := call.Args[at].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: flag name is not a string literal", fset.Position(call.Pos()))
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			defs[name] = append(defs[name], fset.Position(call.Pos()).String())
			return true
		})
	}
	if total > 43 || total < 30 {
		t.Errorf("cmd/pisces defines %d flags, want at most 43 (and a count under 30 means this rule lost sight of them)", total)
	}
	for name, at := range defs {
		if len(at) > 1 && !(name == "addr" && len(at) == 2) {
			t.Errorf("-%s is defined %d times (%s); register it through its flag group", name, len(at), strings.Join(at, ", "))
		}
	}
	t.Logf("%d flag definitions, %d names", total, len(defs))
}

// TestFlagSurfaceReachesFollower: a follower forked by "pisces run -nodes 2"
// is given every flag of the machine, program, observe and HA groups that
// the run was given (-trace-out as -trace-collect, since a follower writes no
// trace file of its own), and "pisces serve -peers" accepts each of them.
func TestFlagSurfaceReachesFollower(t *testing.T) {
	given := map[string][2]string{ // flag -> value given to run, argument the follower must get
		"clusters": {"3", "-clusters=3"}, "slots": {"5", "-slots=5"}, "forces": {"7,8", "-forces=7,8"},
		"main": {"WORKER", "-main=WORKER"}, "accept-timeout": {"7s", "-accept-timeout=7s"},
		"stats": {"true", "-stats=true"}, "trace-out": {"t.json", "-trace-collect"},
		"blackbox-out": {"bb", "-blackbox-out=bb"}, "ha": {"true", "-ha=true"},
		"heartbeat-interval":  {"5ms", "-heartbeat-interval=5ms"},
		"checkpoint-interval": {"60ms", "-checkpoint-interval=60ms"},
	}
	// Every flag the groups define must be in the table, except -trace, which
	// -nodes refuses.
	groups := flag.NewFlagSet("groups", flag.ContinueOnError)
	var (
		mach machineFlags
		prog programFlags
		seen observeFlags
		ha   haFlags
	)
	mach.bind(groups)
	prog.bind(groups, "main", "accept-timeout", "trace")
	seen.bind(groups)
	ha.bind(groups)
	groups.VisitAll(func(f *flag.Flag) {
		if _, ok := given[f.Name]; !ok && f.Name != "trace" {
			t.Errorf("group flag -%s has no row here", f.Name)
		}
	})

	r := newRunFlags()
	args := []string{"-nodes", "2"}
	for name, v := range given {
		args = append(args, "-"+name+"="+v[0])
	}
	if err := r.fs.Parse(append(args, "prog.pf")); err != nil {
		t.Fatal(err)
	}
	follower := r.follower()
	for name, v := range given {
		if !slices.Contains(follower, v[1]) {
			t.Errorf("run -%s=%s: follower arguments %q lack %s", name, v[0], follower, v[1])
		}
	}
	if len(follower) != len(given) {
		t.Errorf("follower arguments %q, want exactly one per group flag given", follower)
	}
	if err := runServe(append(follower, "-peers", "a:1,b:2", "-h"), io.Discard); err != nil {
		t.Errorf("serve -peers refuses the follower arguments: %v", err)
	}
}
