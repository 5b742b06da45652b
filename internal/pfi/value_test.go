package pfi

import (
	"bytes"
	"math"
	"math/big"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/pfc"
	"repro/internal/rect"
)

// TestValueIsThreeWords pins the layout the evaluator's speed rests on:
// (value, error) must fit the nine integer registers Go's amd64 ABI returns
// results in, with room to spare for arguments beside it.
func TestValueIsThreeWords(t *testing.T) {
	if n := unsafe.Sizeof(value{}); n > 24 {
		t.Errorf("value is %d bytes, want at most 24", n)
	}
	if n := unsafe.Sizeof(binding{}); n > 48 {
		t.Errorf("binding is %d bytes, want at most 48", n)
	}
}

// TestValueRoundTrip: every constructor hands its accessor back what it was
// given, bit for bit; a value of a pointer kind made without a payload reads
// as that kind's zero; and a message argument survives the trip through an
// interpreter value.
func TestValueRoundTrip(t *testing.T) {
	for _, x := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64} {
		if v := intVal(x); v.kind != kInt || v.i() != x {
			t.Errorf("intVal(%d) reads %d", x, v.i())
		}
	}
	reals := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1), math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4000000abcdef)}
	for _, x := range reals {
		if v := realVal(x); v.kind != kReal || math.Float64bits(v.r()) != math.Float64bits(x) {
			t.Errorf("realVal(%x) reads %x", math.Float64bits(x), math.Float64bits(v.r()))
		}
	}
	for _, x := range []bool{false, true} {
		if v := boolVal(x); v.kind != kBool || v.b() != x {
			t.Errorf("boolVal(%v) reads %v", x, v.b())
		}
	}
	long := strings.Repeat("PISCES ", 10000) // 70 KB
	for _, x := range []string{"", "A", long} {
		if v := strVal(x); v.kind != kStr || v.s() != x {
			t.Errorf("strVal of %d bytes reads %d bytes", len(x), len(v.s()))
		}
	}
	ids := []core.TaskID{core.NilTask, {Cluster: 3, Slot: 2, Unique: 41}}
	for _, x := range ids {
		if v := idVal(x); v.kind != kTaskID || v.id() != x {
			t.Errorf("idVal(%v) reads %v", x, v.id())
		}
	}
	wins := []core.Window{{}, {Owner: ids[1], ArrayID: 7, Region: rect.New(2, 5, 1, 9)}}
	for _, x := range wins {
		if v := winVal(x); v.kind != kWindow || v.windowPayload() != x {
			t.Errorf("winVal(%v) reads %v", x, v.windowPayload())
		}
	}

	// No payload behind the pointer: the kind's zero.
	if v := zeroVal(kStr); v.s() != "" {
		t.Errorf("zero CHARACTER reads %q", v.s())
	}
	if v := zeroVal(kTaskID); v.id() != core.NilTask {
		t.Errorf("zero TASKID reads %v", v.id())
	}
	if v := zeroVal(kWindow); v.windowPayload() != (core.Window{}) {
		t.Errorf("zero WINDOW reads %v", v.windowPayload())
	}
	if v := zeroVal(kReal); math.Float64bits(v.r()) != 0 {
		t.Errorf("zero REAL reads %x", math.Float64bits(v.r()))
	}

	args := []core.Value{core.Bool(false), core.Bool(true), core.Str(""), core.Str(long)}
	for _, x := range []int64{0, math.MinInt64, math.MaxInt64} {
		args = append(args, core.Int(x))
	}
	for _, x := range reals {
		args = append(args, core.Real(x))
	}
	for _, x := range ids {
		args = append(args, core.ID(x))
	}
	for _, x := range wins {
		args = append(args, core.Win(x))
	}
	for _, cv := range args {
		v, err := fromCoreValue(&cv)
		if err != nil {
			t.Errorf("fromCoreValue(%s): %v", cv.Kind, err)
			continue
		}
		var back core.Value
		if err := toCoreValue(&back, v); err != nil {
			t.Errorf("toCoreValue(%s): %v", v.kind, err)
			continue
		}
		// Every accessor, Real by bits (NaN is not equal to itself), and the
		// wire form byte for byte; no scalar sets the array.
		wantWire, err1 := msgcodec.Encode([]core.Value{cv})
		gotWire, err2 := msgcodec.Encode([]core.Value{back})
		same := back.Kind == cv.Kind && back.Integer() == cv.Integer() && back.Logical() == cv.Logical() &&
			math.Float64bits(back.Real()) == math.Float64bits(cv.Real()) && back.Character() == cv.Character() &&
			back.TaskID() == cv.TaskID() && back.Window() == cv.Window() && back.RealArray == nil &&
			err1 == nil && err2 == nil && bytes.Equal(gotWire, wantWire)
		if !same {
			t.Errorf("%s argument came back changed: %+v, want %+v", cv.Kind, back, cv)
		}
	}
}

// TestArrayExtentCapped: a declaration whose extents are too large for the
// process, for makeslice, or for their own product ends its task with a
// positioned diagnostic; the largest extents that pass still index to their
// last element, and a re-declaration is held to the same count.
func TestArrayExtentCapped(t *testing.T) {
	for _, dims := range hostileExtents {
		src := "TASKTYPE MAIN\n      REAL A(" + dims + ")\n      A(1) = 1.0\nEND TASKTYPE\n"
		_, _, err := interpret(t, config.Simple(1, 2), src, Options{})
		if err == nil || !strings.HasPrefix(err.Error(), "tasktype MAIN") || !strings.Contains(err.Error(), "pfi: line 2: array A has more than 4194304 elements") {
			t.Errorf("REAL A(%s): %v, want the element-cap diagnostic at line 2", dims, err)
		}
	}
	for name, src := range map[string]string{
		"2-D product":    "TASKTYPE MAIN\n      INTEGER A(2049, 2048)\nEND TASKTYPE\n",
		"shared common":  "TASKTYPE MAIN\n      SHARED COMMON /G/ A(4194305)\nEND TASKTYPE\n",
		"re-declaration": "TASKTYPE MAIN\n      INTEGER A(6)\n      INTEGER A(4194305)\nEND TASKTYPE\n",
	} {
		_, _, err := interpret(t, config.Simple(1, 2), src, Options{})
		if err == nil || !strings.Contains(err.Error(), "array A has more than 4194304 elements") {
			t.Errorf("%s: %v, want the element-cap diagnostic", name, err)
		}
	}
	out, _, err := interpret(t, config.Simple(1, 2), `TASKTYPE MAIN
      INTEGER A(1024, 1024)
      A(1024, 1024) = 7
      PRINT *, A(1024, 1024), A(1, 1)
END TASKTYPE
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "7 0")
}

// hostileExtents are the three declarations that, before the cap, killed the
// process (144 GB asked of the Go run-time), failed makeslice, and overflowed
// rows*cols to zero.
var hostileExtents = []string{"2000000000", "9000000000000000000", "4294967296, 4294967296"}

// TestForceSharedStorage: four members of a force read and write disjoint
// elements of one shared REAL array with no lock, and one SHARED COMMON scalar
// under CRITICAL.  Elements are three words each and neighbours in one slice,
// so under -race this is the test that an element store touches nothing but
// its own element.
func TestForceSharedStorage(t *testing.T) {
	src := `TASKTYPE MAIN
      INTEGER M, K
      REAL A(8)
      SHARED COMMON /ACC/ TOT
      FORCESPLIT
      M = MEMBER()
      DO 10 K = 1, 50
        A(M) = A(M) + 1.0
        A(M + 4) = A(M) * 2.0
        CRITICAL LK
          TOT = TOT + A(M + 4) - A(M)
        END CRITICAL
10    CONTINUE
      BARRIER
        PRINT *, 'A', A(1), A(4), A(5), A(8)
        PRINT *, 'TOT', TOT
      END BARRIER
END TASKTYPE
`
	cfg := config.Simple(1, 2).WithForces(1, 7, 8, 9)
	out, _, err := interpret(t, cfg, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, "A 50 50 100 100", "TOT 5100")
}

// --- the reference evaluator ------------------------------------------------

// refClass is what an evaluation came to: a value, or one of the two ways an
// expression over numbers and LOGICALs can fail.
type refClass int

const (
	refOK     refClass = iota
	refType            // an operand of the wrong kind for its operator
	refDomain          // division by zero, 0 ** negative
)

// refVal is a reference value: plain Go fields, no packing.
type refVal struct {
	kind valKind
	i    int64
	r    float64
	b    bool
}

func (v refVal) real() float64 {
	if v.kind == kInt {
		return float64(v.i)
	}
	return v.r
}

func (v refVal) numeric() bool { return v.kind == kInt || v.kind == kReal }

// refEval walks the tree with Go's own int64 and float64 arithmetic.  It is
// written against the language rules the interpreter documents, not against
// its code: INTEGER op INTEGER stays INTEGER and wraps, division truncates,
// anything mixed promotes to REAL, comparison promotes both sides to REAL,
// the left operand is evaluated (and fails) first.
func refEval(e pfc.Expr, vars map[string]refVal) (refVal, refClass) {
	switch e := e.(type) {
	case pfc.Lit:
		switch e.Kind {
		case pfc.LitInt:
			return refVal{kind: kInt, i: e.I}, refOK
		case pfc.LitReal:
			return refVal{kind: kReal, r: e.R}, refOK
		}
		return refVal{kind: kBool, b: e.B}, refOK
	case pfc.Name:
		return vars[e.Name], refOK
	case pfc.Unary:
		x, c := refEval(e.X, vars)
		if c != refOK {
			return refVal{}, c
		}
		switch {
		case e.Op == "-" && x.kind == kInt:
			return refVal{kind: kInt, i: -x.i}, refOK
		case e.Op == "-" && x.kind == kReal:
			return refVal{kind: kReal, r: -x.r}, refOK
		case e.Op == "NOT" && x.kind == kBool:
			return refVal{kind: kBool, b: !x.b}, refOK
		}
		return refVal{}, refType
	case pfc.Binary:
		x, c := refEval(e.X, vars)
		if c != refOK {
			return refVal{}, c
		}
		y, c := refEval(e.Y, vars)
		if c != refOK {
			return refVal{}, c
		}
		return refBinary(e.Op, x, y)
	}
	panic("reference evaluator: expression kind the generator does not make")
}

func refBinary(op string, x, y refVal) (refVal, refClass) {
	switch op {
	case "AND", "OR", "EQV", "NEQV":
		if x.kind != kBool || y.kind != kBool {
			return refVal{}, refType
		}
		b := map[string]bool{"AND": x.b && y.b, "OR": x.b || y.b, "EQV": x.b == y.b, "NEQV": x.b != y.b}[op]
		return refVal{kind: kBool, b: b}, refOK
	case "EQ", "NE", "LT", "LE", "GT", "GE":
		if !x.numeric() || !y.numeric() {
			return refVal{}, refType
		}
		a, b := x.real(), y.real()
		r := map[string]bool{"EQ": a == b, "NE": a != b, "LT": a < b, "LE": a <= b, "GT": a > b, "GE": a >= b}[op]
		return refVal{kind: kBool, b: r}, refOK
	}
	if !x.numeric() || !y.numeric() {
		return refVal{}, refType
	}
	if x.kind == kInt && y.kind == kInt {
		switch op {
		case "+":
			return refVal{kind: kInt, i: x.i + y.i}, refOK
		case "-":
			return refVal{kind: kInt, i: x.i - y.i}, refOK
		case "*":
			return refVal{kind: kInt, i: x.i * y.i}, refOK
		case "/":
			if y.i == 0 {
				return refVal{}, refDomain
			}
			return refVal{kind: kInt, i: x.i / y.i}, refOK
		}
		return refIntPow(x.i, y.i)
	}
	a, b := x.real(), y.real()
	switch op {
	case "+":
		return refVal{kind: kReal, r: a + b}, refOK
	case "-":
		return refVal{kind: kReal, r: a - b}, refOK
	case "*":
		return refVal{kind: kReal, r: a * b}, refOK
	case "/":
		if b == 0 {
			return refVal{}, refDomain
		}
		return refVal{kind: kReal, r: a / b}, refOK
	}
	return refVal{kind: kReal, r: math.Pow(a, b)}, refOK
}

// refIntPow is INTEGER ** INTEGER: a negative exponent is the truncated
// reciprocal, a non-negative one the product modulo 2**64 (what wrapping
// int64 multiplication computes), taken here with math/big.
func refIntPow(base, exp int64) (refVal, refClass) {
	if exp < 0 {
		switch {
		case base == 0:
			return refVal{}, refDomain
		case base == 1, base == -1 && exp%2 == 0:
			return refVal{kind: kInt, i: 1}, refOK
		case base == -1:
			return refVal{kind: kInt, i: -1}, refOK
		}
		return refVal{kind: kInt, i: 0}, refOK
	}
	mod := new(big.Int).Lsh(big.NewInt(1), 64)
	p := new(big.Int).Exp(new(big.Int).SetUint64(uint64(base)), big.NewInt(exp), mod)
	return refVal{kind: kInt, i: int64(p.Uint64())}, refOK
}

// exprGen builds an expression tree out of fuzz bytes; when they run out it
// closes the tree with literals.
type exprGen struct {
	data []byte
}

func (g *exprGen) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

var (
	genInts  = []int64{0, 1, -1, 2, 3, -7, 10, 62, 63, 64, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	genReals = []float64{0, math.Copysign(0, -1), 0.5, 1, -2.25, 3, 1e308, 5e-324, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xfff4000000abcdef)}
	genOps  = []string{"+", "-", "*", "/", "**", "EQ", "NE", "LT", "LE", "GT", "GE", "AND", "OR", "EQV", "NEQV"}
	genVars = []string{"I", "X", "L"}
)

func (g *exprGen) expr(depth int) pfc.Expr {
	b := g.next()
	if depth >= 6 {
		b %= 4
	}
	switch b % 10 {
	case 0:
		return pfc.Lit{Kind: pfc.LitInt, I: genInts[int(g.next())%len(genInts)]}
	case 1:
		return pfc.Lit{Kind: pfc.LitReal, R: genReals[int(g.next())%len(genReals)]}
	case 2:
		return pfc.Lit{Kind: pfc.LitLogical, B: g.next()%2 == 1}
	case 3:
		return pfc.Name{Name: genVars[int(g.next())%len(genVars)]}
	case 4:
		return pfc.Unary{Op: []string{"-", "NOT"}[g.next()%2], X: g.expr(depth + 1)}
	}
	op := genOps[int(g.next())%len(genOps)]
	return pfc.Binary{Op: op, X: g.expr(depth + 1), Y: g.expr(depth + 1)}
}

// FuzzExprAgreesWithReference: an expression over INTEGER, REAL and LOGICAL
// literals and the variables I, X and L, compiled (folding included) and run
// on the packed three-word value, comes to what the reference evaluator above
// makes of the same tree — the same class of failure, or the same kind and
// the same 64 bits.
func FuzzExprAgreesWithReference(f *testing.F) {
	negZero := math.Float64bits(math.Copysign(0, -1))
	nan := uint64(0x7ff8000000000001)
	for _, seed := range []struct {
		data  []byte
		i     int64
		xbits uint64
		l     bool
	}{
		{[]byte{5, 0, 3, 0, 5, 2, 3, 1, 1, 2}, 7, math.Float64bits(2.5), true}, // I + X * 0.5: mixed mode
		{[]byte{5, 3, 3, 0, 0, 0}, -7, 0, false},                               // I / 0
		{[]byte{5, 3, 3, 0, 0, 3}, -7, 0, false},                               // I / 2 truncates toward zero
		{[]byte{5, 3, 1, 3, 3, 1}, 0, negZero, false},                          // 1.0 / -0.0
		{[]byte{5, 4, 0, 3, 4, 0, 0, 4}, 0, 0, false},                          // 2 ** -3
		{[]byte{5, 4, 3, 0, 4, 0, 0, 4}, 0, 0, false},                          // 0 ** -3
		{[]byte{5, 4, 3, 0, 0, 7}, -3, 0, false},                               // I ** 62 wraps
		{[]byte{5, 13, 3, 2, 5, 7, 3, 0, 3, 1}, 1, nan, true},                  // L .EQV. (I .LT. X), X a NaN
		{[]byte{5, 14, 3, 2, 2, 1}, 0, 0, true},                                // L .NEQV. .TRUE.
		{[]byte{5, 2, 3, 0, 3, 0}, math.MinInt64, 0, false},                    // I * I wraps
		{[]byte{5, 11, 3, 0, 3, 2}, 3, 0, true},                                // I .AND. L: wrong kind
		{[]byte{4, 0, 3, 1}, 0, negZero, false},                                // -X keeps the sign of zero
	} {
		f.Add(seed.data, seed.i, seed.xbits, seed.l)
	}
	f.Fuzz(func(t *testing.T, data []byte, iv int64, xbits uint64, lv bool) {
		e := (&exprGen{data: data}).expr(0)
		xv := math.Float64frombits(xbits)

		tc := &taskCompiler{tab: newSlotTable()}
		ce := tc.compileExpr(e)
		st := &execState{f: newFrame(tc.tab)}
		for name, v := range map[string]value{"I": intVal(iv), "X": realVal(xv), "L": boolVal(lv)} {
			if slot, ok := tc.tab.lookup(name); ok {
				st.f.slots[slot].v = v
			}
		}
		got, err := ce(st)

		want, class := refEval(e, map[string]refVal{
			"I": {kind: kInt, i: iv}, "X": {kind: kReal, r: xv}, "L": {kind: kBool, b: lv}})

		gotClass := refOK
		if err != nil {
			gotClass = refType
			if msg := err.Error(); strings.Contains(msg, "division by zero") || strings.Contains(msg, "negative exponent") {
				gotClass = refDomain
			}
		}
		if gotClass != class {
			t.Fatalf("%#v: compiled gives (%s, %v), reference class %d", e, got.format(), err, class)
		}
		if class != refOK {
			return
		}
		var wantBits uint64
		switch want.kind {
		case kInt:
			wantBits = uint64(want.i)
		case kReal:
			wantBits = math.Float64bits(want.r)
		case kBool:
			if want.b {
				wantBits = 1
			}
		}
		if got.kind != want.kind || got.bits != wantBits || got.ref != nil {
			t.Fatalf("%#v: compiled gives %s %#x, reference %s %#x", e, got.kind, got.bits, want.kind, wantBits)
		}
	})
}
