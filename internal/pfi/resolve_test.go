package pfi

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/pfc"
)

// lookup reports the slot of a name without assigning one.
func (tab *slotTable) lookup(name string) (int, bool) {
	i, ok := tab.index[name]
	return i, ok
}

// TestSlotTableAssignment drives the resolver directly: slots are dense,
// stable, and carry the Fortran implicit kinds.
func TestSlotTableAssignment(t *testing.T) {
	tab := newSlotTable()
	cases := []struct {
		name     string
		wantSlot int
		implicit valKind
	}{
		{"I", 0, kInt},
		{"X", 1, kReal},
		{"NAME", 2, kInt}, // N starts the I-N integer range
		{"HZ", 3, kReal},  // H is below it
		{"I", 0, kInt},    // re-resolution is stable
		{"NAME", 2, kInt},
	}
	for _, c := range cases {
		if got := tab.slotOf(c.name); got != c.wantSlot {
			t.Errorf("slotOf(%s) = %d, want %d", c.name, got, c.wantSlot)
		}
		if got := tab.implicit[tab.slotOf(c.name)]; got != c.implicit {
			t.Errorf("implicit kind of %s = %v, want %v", c.name, got, c.implicit)
		}
	}
	if tab.size() != 4 {
		t.Errorf("size = %d, want 4 distinct names", tab.size())
	}
	if _, ok := tab.lookup("MISSING"); ok {
		t.Error("lookup of an unresolved name succeeded")
	}
	if got := tab.name(2); got != "NAME" {
		t.Errorf("name(2) = %q", got)
	}
}

// TestResolvedTaskSlots checks that compilation resolves parameters and every
// mentioned name into one slot table per tasktype.
func TestResolvedTaskSlots(t *testing.T) {
	p, err := Compile(`TASKTYPE MAIN(A, B)
      INTEGER A, C(4)
      SHARED COMMON /S/ TOTAL
      C(1) = A + B
      TOTAL = 0.0
END TASKTYPE
`)
	if err != nil {
		t.Fatal(err)
	}
	tp := p.unit.byName["MAIN"]
	if tp == nil {
		t.Fatal("MAIN not compiled")
	}
	// Parameters resolve first, in order.
	if len(tp.paramSlots) != 2 || tp.paramSlots[0] != 0 || tp.paramSlots[1] != 1 {
		t.Errorf("paramSlots = %v, want [0 1]", tp.paramSlots)
	}
	for _, name := range []string{"A", "B", "C", "TOTAL"} {
		if _, ok := tp.tab.lookup(name); !ok {
			t.Errorf("name %s did not get a slot", name)
		}
	}
}

// TestMemberPrivateVsShared: copying a frame for a force member must copy
// scalars (member-private) but share arrays and shared cells by reference —
// the slot-vector frame must preserve the paper's FORCESPLIT data semantics.
func TestMemberPrivateVsShared(t *testing.T) {
	tab := newSlotTable()
	sPriv := tab.slotOf("PRIV")
	sArr := tab.slotOf("ARR")
	sCell := tab.slotOf("CELL")

	f := newFrame(tab)
	f.slots[sPriv].v = intVal(1)
	f.slots[sArr].arr = newArray(kInt, 3, 0)
	f.slots[sCell].cell = &sharedCell{v: realVal(0)}

	g := f.copyForMember()
	// Scalars diverge.
	g.slots[sPriv].v = intVal(99)
	if f.slots[sPriv].v.i() != 1 {
		t.Errorf("scalar not member-private: primary sees %d", f.slots[sPriv].v.i())
	}
	// Arrays and cells are the same storage.
	g.slots[sArr].arr.data[0] = intVal(7)
	if f.slots[sArr].arr.data[0].i() != 7 {
		t.Error("array not shared by reference between members")
	}
	g.slots[sCell].cell.store(realVal(2.5))
	if got := f.slots[sCell].cell.load(); got.r() != 2.5 {
		t.Errorf("shared cell not shared: primary reads %v", got.r())
	}
}

// TestIntrinsicShadowing: a name that is also an intrinsic reads as the
// intrinsic until the program assigns it, after which the slot value shadows
// the intrinsic — matching the dynamic semantics of the map-based engine.
func TestIntrinsicShadowing(t *testing.T) {
	src := `TASKTYPE MAIN
      INTEGER QLEN
      PRINT *, 'BEFORE', QLEN
      QLEN = 42
      PRINT *, 'AFTER', QLEN
END TASKTYPE
`
	out, _, err := interpret(t, config.Simple(1, 2), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "BEFORE 0", "AFTER 42")
}

// TestUndeclaredNameErrors: reading a name that has no binding and is no
// intrinsic must fail with the unset-variable diagnostic, with the source
// line attached.
func TestUndeclaredNameErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"TASKTYPE MAIN\n      X = NOSUCH + 1\nEND TASKTYPE\n", "variable NOSUCH used before it is set"},
		{"TASKTYPE MAIN\n      INTEGER A(2)\n      X = A\nEND TASKTYPE\n", "array A used without subscripts"},
		{"TASKTYPE MAIN\n      A(3) = 1\nEND TASKTYPE\n", "A is not a declared array"},
		{"TASKTYPE MAIN\n      X = NOFUNC(3)\nEND TASKTYPE\n", "neither a declared array nor a known function"},
	}
	for _, c := range cases {
		_, _, err := interpret(t, config.Simple(1, 2), c.src, Options{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("src %q: err = %v, want %q", c.src, err, c.want)
		}
	}
}

// TestConstantFolding: constant subexpressions are folded at compile time,
// and a folding candidate that would error (division by zero in dead code)
// is left to fail at run time only if executed.
func TestConstantFolding(t *testing.T) {
	tc := &taskCompiler{tab: newSlotTable()}
	folded := foldExpr(mustParseExpr(t, "(1 + 2) * 3 - 2 ** 3"))
	lit, ok := folded.(pfc.Lit)
	if !ok {
		t.Fatalf("foldExpr = %T, want pfc.Lit", folded)
	}
	if lit.I != 1 {
		t.Errorf("folded value = %d, want 1", lit.I)
	}

	// Dead 1/0 must not become a compile error...
	ce := tc.compileExpr(mustParseExpr(t, "1 / 0"))
	st := &execState{f: newFrame(tc.tab)}
	if _, err := ce(st); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("1/0 eval err = %v, want division by zero at run time", err)
	}

	// ...and a program that never executes it runs clean.
	src := "TASKTYPE MAIN\n      IF (1 .GT. 2) PRINT *, 1 / 0\n      PRINT *, 'OK'\nEND TASKTYPE\n"
	out, _, err := interpret(t, config.Simple(1, 2), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "OK")
}

// mustParseExpr parses src with the one expression parser there is, as the
// right-hand side of an assignment.
func mustParseExpr(t *testing.T, src string) pfc.Expr {
	t.Helper()
	prog, err := pfc.Parse("TASKTYPE T\n      X = " + src + "\nEND TASKTYPE\n")
	if err != nil {
		t.Fatal(err)
	}
	st := prog.TaskTypes[0].Body[0]
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	return st.X.Expr
}

// TestCompileCacheSharesUnit: compiling the same source twice must reuse the
// compiled unit while keeping per-Program run state (counters) separate.
func TestCompileCacheSharesUnit(t *testing.T) {
	src := "TASKTYPE MAIN\n      PRINT *, 'HI'\nEND TASKTYPE\n"
	p1, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1.unit != p2.unit {
		t.Error("cached compile did not share the compiled unit")
	}
	if p1.Counters() == p2.Counters() {
		t.Error("Programs over a shared unit must have separate counters")
	}
	u, err := CompileUncached(src)
	if err != nil {
		t.Fatal(err)
	}
	if u.unit == p1.unit {
		t.Error("CompileUncached returned the cached unit")
	}
	// A cached program still runs (fresh counters count this run only).
	out, prog, err := interpretProgram(t, p2)
	if err != nil {
		t.Fatal(err)
	}
	if out != "HI\n" {
		t.Errorf("output = %q", out)
	}
	if got := prog.Counters().Get("tasks.completed"); got != 1 {
		t.Errorf("tasks.completed = %d, want 1", got)
	}
}

// interpretProgram runs an already compiled program on a fresh VM.
func interpretProgram(t *testing.T, p *Program) (string, *Program, error) {
	t.Helper()
	var buf strings.Builder
	vm, err := core.NewVM(config.Simple(1, 2), core.Options{UserOutput: &buf})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()
	runErr := p.Run(vm, Options{})
	return buf.String(), p, runErr
}
