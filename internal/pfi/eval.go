package pfi

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/msgcodec"
)

// valKind is the run-time type of an interpreter value, mirroring the Pisces
// Fortran data types.  kNone is the zero value, so a zeroed binding or value
// reads as "unset".
type valKind uint8

const (
	kNone valKind = iota
	kInt
	kReal
	kBool
	kStr
	kTaskID
	kWindow
)

func (k valKind) String() string {
	switch k {
	case kInt:
		return "INTEGER"
	case kReal:
		return "REAL"
	case kBool:
		return "LOGICAL"
	case kStr:
		return "CHARACTER"
	case kTaskID:
		return "TASKID"
	case kWindow:
		return "WINDOW"
	}
	return "?"
}

// value is one interpreter value, three machine words: the kind, one 64-bit
// word, and one pointer.  (value, error) is then five words, which Go's
// register ABI returns in registers (it spills past nine), so a compiled
// expression hands its result to its caller without touching memory.
//
// INTEGER, REAL and LOGICAL live in bits: the integer itself, the IEEE 754
// bits of the real (NaN payloads and -0.0 survive), 1 for .TRUE.  CHARACTER,
// TASKID and WINDOW payloads sit out of line behind ref and are never written
// after construction, so copies of a value share one payload.  A nil ref reads
// as the kind's zero — "", NilTask, the zero window — which is what zeroVal, a
// declared-but-unassigned WINDOW and a never-assigned array element hold.
//
// Numeric and LOGICAL evaluation allocates nothing.  Literals are built once
// at compile time, so the only run-time allocations are where a CHARACTER,
// TASKID or WINDOW value is made: MSGS/MSGT/MSGW, SELF/PARENT/SENDER, and
// binding such an INITIATE argument to a parameter.
type value struct {
	kind valKind
	bits uint64
	ref  *payload
}

// payload is the out-of-line part of a CHARACTER, TASKID or WINDOW value;
// only the field of the value's kind is meaningful.
type payload struct {
	s   string
	id  core.TaskID
	win core.Window
}

func intVal(v int64) value    { return value{kind: kInt, bits: uint64(v)} }
func realVal(v float64) value { return value{kind: kReal, bits: math.Float64bits(v)} }
func boolVal(v bool) value {
	if v {
		return value{kind: kBool, bits: 1}
	}
	return value{kind: kBool}
}
func strVal(v string) value      { return value{kind: kStr, ref: &payload{s: v}} }
func idVal(v core.TaskID) value  { return value{kind: kTaskID, ref: &payload{id: v}} }
func winVal(v core.Window) value { return value{kind: kWindow, ref: &payload{win: v}} }
func zeroVal(k valKind) value    { return value{kind: k} }
func implicitKind(name string) valKind {
	if name != "" && name[0] >= 'I' && name[0] <= 'N' {
		return kInt
	}
	return kReal
}

// The accessors below read a value as its own kind; the caller has checked
// v.kind.

func (v value) i() int64   { return int64(v.bits) }
func (v value) r() float64 { return math.Float64frombits(v.bits) }
func (v value) b() bool    { return v.bits != 0 }

func (v value) s() string {
	if v.ref == nil {
		return ""
	}
	return v.ref.s
}

func (v value) id() core.TaskID {
	if v.ref == nil {
		return core.NilTask
	}
	return v.ref.id
}

// windowPayload returns the WINDOW payload, treating a never-assigned WINDOW
// variable as the zero window.
func (v value) windowPayload() core.Window {
	if v.ref == nil {
		return core.Window{}
	}
	return v.ref.win
}

// toInt converts a numeric value to INTEGER (truncating, as Fortran does).
func (v value) toInt() (int64, error) {
	switch v.kind {
	case kInt:
		return v.i(), nil
	case kReal:
		return int64(v.r()), nil
	}
	return 0, fmt.Errorf("%s value where a number is required", v.kind)
}

// toReal converts a numeric value to REAL.
func (v value) toReal() (float64, error) {
	switch v.kind {
	case kInt:
		return float64(v.i()), nil
	case kReal:
		return v.r(), nil
	}
	return 0, fmt.Errorf("%s value where a number is required", v.kind)
}

// truth returns the LOGICAL interpretation of the value.
func (v value) truth() (bool, error) {
	if v.kind != kBool {
		return false, fmt.Errorf("%s value where a LOGICAL is required", v.kind)
	}
	return v.b(), nil
}

// format renders the value for PRINT/WRITE output.
func (v value) format() string {
	switch v.kind {
	case kInt:
		return strconv.FormatInt(v.i(), 10)
	case kReal:
		return strconv.FormatFloat(v.r(), 'g', -1, 64)
	case kBool:
		if v.b() {
			return "T"
		}
		return "F"
	case kStr:
		return v.s()
	case kTaskID:
		return v.id().String()
	case kWindow:
		return v.windowPayload().String()
	}
	return "?"
}

// convert coerces a value to the declared kind of its destination.  Numeric
// kinds inter-convert (Fortran assignment conversion); everything else must
// match exactly.
func convert(v value, k valKind) (value, error) {
	if v.kind == k {
		return v, nil
	}
	switch {
	case k == kInt && v.kind == kReal:
		return intVal(int64(v.r())), nil
	case k == kReal && v.kind == kInt:
		return realVal(float64(v.i())), nil
	}
	return value{}, fmt.Errorf("cannot assign %s value to %s variable", v.kind, k)
}

// array is one declared array: 1-based, one- or two-dimensional, of a single
// element kind.  Arrays are shared by reference between force members, so
// they double as the shared data of a force region (SHARED COMMON arrays in
// particular).
type array struct {
	kind valKind
	rows int
	cols int // 0 for a one-dimensional array
	data []value
}

// maxArrayElems caps the elements of one declared array.  It is sized against
// the storage a declaration takes at once: an element is a 24-byte value, so
// the largest array is 96 MiB — room for a 2048 x 2048 grid — and a
// declaration can neither ask the Go run-time for more than the process can
// have (which ends every task in it, not just this one) nor overflow the
// extent product.  No core.Limits field sees interpreter storage, so this is
// the only bound on it.
const maxArrayElems = 1 << 22

// newArray makes a zeroed array; its extents come from arrayExtents or from
// a message argument, both bounded.
func newArray(kind valKind, rows, cols int) *array {
	n := rows
	if cols > 0 {
		n = rows * cols
	}
	a := &array{kind: kind, rows: rows, cols: cols, data: make([]value, n)}
	for i := range a.data {
		a.data[i] = zeroVal(kind)
	}
	return a
}

// offset1 resolves a one-subscript element reference.
func (a *array) offset1(name string, i1 int64) (int, error) {
	if a.cols != 0 {
		return 0, fmt.Errorf("array %s needs 2 subscripts, got 1", name)
	}
	if i1 < 1 || i1 > int64(a.rows) {
		return 0, fmt.Errorf("subscript %d outside array %s(%d)", i1, name, a.rows)
	}
	return int(i1 - 1), nil
}

// offset2 resolves a two-subscript element reference (column-major, as
// Fortran stores arrays).
func (a *array) offset2(name string, i1, i2 int64) (int, error) {
	if a.cols == 0 {
		return 0, fmt.Errorf("array %s needs 1 subscript, got 2", name)
	}
	if i1 < 1 || i1 > int64(a.rows) || i2 < 1 || i2 > int64(a.cols) {
		return 0, fmt.Errorf("subscripts (%d,%d) outside array %s(%d,%d)", i1, i2, name, a.rows, a.cols)
	}
	return int(i2-1)*a.rows + int(i1-1), nil
}

// sharedCell is one SHARED COMMON scalar: a mutex-protected cell shared by
// every member of a force (the program is still responsible for higher-level
// synchronisation through BARRIER and CRITICAL, exactly as in the paper).
type sharedCell struct {
	mu sync.Mutex
	v  value
}

func (c *sharedCell) load() value {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

func (c *sharedCell) store(v value) {
	c.mu.Lock()
	c.v = v
	c.mu.Unlock()
}

// binding is the run-time state of one resolved name slot.  At any moment a
// name is a scalar (v set), a shared cell, an array, or still unset; the
// compiled code checks in that order, preserving the dynamic declaration
// semantics of the map-based interpreter.
type binding struct {
	v    value       // scalar value; v.kind == kNone means unset
	kind valKind     // declared scalar kind; kNone means implicit typing
	arr  *array      // non-nil once declared as an array
	cell *sharedCell // non-nil once declared SHARED COMMON
}

// frame holds one task's (or one force member's) variables as a slot-indexed
// binding vector — slot indices are assigned per tasktype at compile time by
// the resolver, so the hot path never looks names up in a map.  Scalars are
// per-frame; arrays and shared cells are shared by reference when a frame is
// copied for a force member, which gives SHARED COMMON its paper semantics
// while keeping ordinary scalars member-private.
type frame struct {
	tab   *slotTable
	slots []binding
}

func newFrame(tab *slotTable) *frame {
	return &frame{tab: tab, slots: make([]binding, tab.size())}
}

// copyForMember clones the frame for a secondary force member: scalars are
// copied (member-private), arrays and shared cells are shared by reference.
func (f *frame) copyForMember() *frame {
	g := &frame{tab: f.tab, slots: make([]binding, len(f.slots))}
	copy(g.slots, f.slots)
	return g
}

// declaredKind returns the kind a scalar slot would take on first assignment.
func (f *frame) declaredKind(slot int) valKind {
	if k := f.slots[slot].kind; k != kNone {
		return k
	}
	return f.tab.implicit[slot]
}

// --- operators ---------------------------------------------------------------

// binOp is a compiled binary operator: the operator string is resolved to an
// opcode once at compile time, so evaluation dispatches on a small integer.
type binOp uint8

const (
	opAdd binOp = iota
	opSub
	opMul
	opDiv
	opPow
	opEQ
	opNE
	opLT
	opLE
	opGT
	opGE
	opAND
	opOR
	opEQV
	opNEQV
)

// binOpCode maps the lexer's canonical operator names to opcodes.
var binOpCode = map[string]binOp{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "**": opPow,
	"EQ": opEQ, "NE": opNE, "LT": opLT, "LE": opLE, "GT": opGT, "GE": opGE,
	"AND": opAND, "OR": opOR, "EQV": opEQV, "NEQV": opNEQV,
}

// opSource renders an opcode in source form for error messages.
func opSource(op binOp) string {
	switch op {
	case opAdd:
		return "+"
	case opSub:
		return "-"
	case opMul:
		return "*"
	case opDiv:
		return "/"
	case opPow:
		return "**"
	case opEQ:
		return ".EQ."
	case opNE:
		return ".NE."
	case opLT:
		return ".LT."
	case opLE:
		return ".LE."
	case opGT:
		return ".GT."
	case opGE:
		return ".GE."
	case opAND:
		return ".AND."
	case opOR:
		return ".OR."
	case opEQV:
		return ".EQV."
	default:
		return ".NEQV."
	}
}

func negVal(x value) (value, error) {
	switch x.kind {
	case kInt:
		return intVal(-x.i()), nil
	case kReal:
		return realVal(-x.r()), nil
	}
	return value{}, fmt.Errorf("unary - applied to %s value", x.kind)
}

func notVal(x value) (value, error) {
	b, err := x.truth()
	if err != nil {
		return value{}, err
	}
	return boolVal(!b), nil
}

func applyBinary(op binOp, x, y value) (value, error) {
	switch {
	case op <= opPow:
		return applyArith(op, x, y)
	case op <= opGE:
		return applyCompare(op, x, y)
	}
	a, err := x.truth()
	if err != nil {
		return value{}, err
	}
	b, err := y.truth()
	if err != nil {
		return value{}, err
	}
	switch op {
	case opAND:
		return boolVal(a && b), nil
	case opOR:
		return boolVal(a || b), nil
	case opEQV:
		return boolVal(a == b), nil
	default:
		return boolVal(a != b), nil
	}
}

// applyArith implements Fortran numeric rules: INTEGER op INTEGER stays
// INTEGER (including truncating division); mixed operands promote to REAL.
func applyArith(op binOp, x, y value) (value, error) {
	if x.kind == kInt && y.kind == kInt {
		switch op {
		case opAdd:
			return intVal(x.i() + y.i()), nil
		case opSub:
			return intVal(x.i() - y.i()), nil
		case opMul:
			return intVal(x.i() * y.i()), nil
		case opDiv:
			if y.i() == 0 {
				return value{}, fmt.Errorf("INTEGER division by zero")
			}
			return intVal(x.i() / y.i()), nil
		default:
			return intPow(x.i(), y.i())
		}
	}
	a, err := x.toReal()
	if err != nil {
		return value{}, fmt.Errorf("operator %s: %v", opSource(op), err)
	}
	b, err := y.toReal()
	if err != nil {
		return value{}, fmt.Errorf("operator %s: %v", opSource(op), err)
	}
	switch op {
	case opAdd:
		return realVal(a + b), nil
	case opSub:
		return realVal(a - b), nil
	case opMul:
		return realVal(a * b), nil
	case opDiv:
		if b == 0 {
			return value{}, fmt.Errorf("REAL division by zero")
		}
		return realVal(a / b), nil
	default:
		return realVal(math.Pow(a, b)), nil
	}
}

func intPow(base, exp int64) (value, error) {
	if exp < 0 {
		if base == 0 {
			return value{}, fmt.Errorf("0 ** negative exponent")
		}
		// Fortran INTEGER ** negative truncates toward zero.
		switch base {
		case 1:
			return intVal(1), nil
		case -1:
			if exp%2 == 0 {
				return intVal(1), nil
			}
			return intVal(-1), nil
		default:
			return intVal(0), nil
		}
	}
	// Exponentiation by squaring: O(log exp) even for absurd exponents.
	result := int64(1)
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return intVal(result), nil
}

func applyCompare(op binOp, x, y value) (value, error) {
	// TASKID and CHARACTER values support equality comparison.
	if x.kind == kTaskID && y.kind == kTaskID {
		switch op {
		case opEQ:
			return boolVal(x.id() == y.id()), nil
		case opNE:
			return boolVal(x.id() != y.id()), nil
		}
		return value{}, fmt.Errorf("TASKID values only compare with .EQ./.NE.")
	}
	if x.kind == kStr && y.kind == kStr {
		switch op {
		case opEQ:
			return boolVal(x.s() == y.s()), nil
		case opNE:
			return boolVal(x.s() != y.s()), nil
		case opLT:
			return boolVal(x.s() < y.s()), nil
		case opLE:
			return boolVal(x.s() <= y.s()), nil
		case opGT:
			return boolVal(x.s() > y.s()), nil
		default:
			return boolVal(x.s() >= y.s()), nil
		}
	}
	a, err := x.toReal()
	if err != nil {
		return value{}, fmt.Errorf("comparison %s: %v", opSource(op), err)
	}
	b, err := y.toReal()
	if err != nil {
		return value{}, fmt.Errorf("comparison %s: %v", opSource(op), err)
	}
	switch op {
	case opEQ:
		return boolVal(a == b), nil
	case opNE:
		return boolVal(a != b), nil
	case opLT:
		return boolVal(a < b), nil
	case opLE:
		return boolVal(a <= b), nil
	case opGT:
		return boolVal(a > b), nil
	default:
		return boolVal(a >= b), nil
	}
}

// --- intrinsics --------------------------------------------------------------

// intrinsicFn is one compiled built-in function.  Implementations must not
// retain args: the slice aliases the execState's argument stack.
type intrinsicFn func(st *execState, args []value) (value, error)

// intrinsicAliases maps the classic Fortran type-specific generic names onto
// the base intrinsic.
var intrinsicAliases = map[string]string{
	"IABS": "ABS", "DABS": "ABS",
	"AMOD": "MOD",
	"MIN0": "MIN", "AMIN0": "MIN", "AMIN1": "MIN", "MIN1": "MIN",
	"MAX0": "MAX", "AMAX0": "MAX", "AMAX1": "MAX", "MAX1": "MAX",
	"FLOAT": "REAL", "DBLE": "REAL",
	"IFIX": "INT", "IDINT": "INT",
	"ALOG": "LOG", "DLOG": "LOG", "DSQRT": "SQRT", "DEXP": "EXP",
	"DSIN": "SIN", "DCOS": "COS",
}

// resolveIntrinsic resolves a (possibly aliased) name to its intrinsic
// implementation at compile time, or nil when the name is not an intrinsic.
func resolveIntrinsic(name string) intrinsicFn {
	if base, ok := intrinsicAliases[name]; ok {
		name = base
	}
	return intrinsicTable[name]
}

// intrinsicTable is the pre-resolved dispatch table for every built-in
// function: the compiler binds the implementation once per call site, so
// evaluation never switches on the function name.
var intrinsicTable map[string]intrinsicFn

func ifail(name, format string, a ...any) (value, error) {
	return value{}, fmt.Errorf(name+": "+format, a...)
}

func init() {
	intrinsicTable = map[string]intrinsicFn{
		// --- Pisces run-time queries ---
		"SELF": func(st *execState, _ []value) (value, error) {
			return idVal(st.t.ID()), nil
		},
		"PARENT": func(st *execState, _ []value) (value, error) {
			return idVal(st.t.Parent()), nil
		},
		"SENDER": func(st *execState, _ []value) (value, error) {
			return idVal(st.t.Sender()), nil
		},
		"CLUSTER": func(st *execState, _ []value) (value, error) {
			return intVal(int64(st.t.Cluster())), nil
		},
		"MEMBER": func(st *execState, _ []value) (value, error) {
			// 1-based, matching the paper's "the Ith force member".
			if st.m == nil {
				return intVal(1), nil
			}
			return intVal(int64(st.m.Member() + 1)), nil
		},
		"MEMBERS": func(st *execState, _ []value) (value, error) {
			if st.m == nil {
				return intVal(1), nil
			}
			return intVal(int64(st.m.Members())), nil
		},
		"QLEN": func(st *execState, _ []value) (value, error) {
			return intVal(int64(st.t.QueueLength())), nil
		},

		// --- last ACCEPT result ---
		"TIMEDOUT": func(st *execState, _ []value) (value, error) {
			if st.lastAccept == nil {
				return boolVal(false), nil
			}
			return boolVal(st.lastAccept.TimedOut), nil
		},
		"NMSG": func(st *execState, args []value) (value, error) {
			if len(args) != 1 || args[0].kind != kStr {
				return ifail("NMSG", "needs one CHARACTER message-type argument")
			}
			if st.lastAccept == nil {
				return intVal(0), nil
			}
			return intVal(int64(st.lastAccept.Count(strings.ToUpper(args[0].s())))), nil
		},
		"MSGI": msgArgFn("MSGI", kInt),
		"MSGR": msgArgFn("MSGR", kReal),
		"MSGS": msgArgFn("MSGS", kStr),
		"MSGT": msgArgFn("MSGT", kTaskID),
		"MSGW": msgArgFn("MSGW", kWindow),

		// --- windows ---
		"WROWS": func(_ *execState, args []value) (value, error) {
			if len(args) != 1 || args[0].kind != kWindow {
				return ifail("WROWS", "needs one WINDOW argument")
			}
			return intVal(int64(args[0].windowPayload().Rows())), nil
		},
		"WCOLS": func(_ *execState, args []value) (value, error) {
			if len(args) != 1 || args[0].kind != kWindow {
				return ifail("WCOLS", "needs one WINDOW argument")
			}
			return intVal(int64(args[0].windowPayload().Cols())), nil
		},

		// --- numeric intrinsics ---
		"ABS": func(_ *execState, args []value) (value, error) {
			if len(args) != 1 {
				return ifail("ABS", "needs one argument")
			}
			if args[0].kind == kInt {
				if args[0].i() < 0 {
					return intVal(-args[0].i()), nil
				}
				return args[0], nil
			}
			r, err := args[0].toReal()
			if err != nil {
				return ifail("ABS", "%v", err)
			}
			return realVal(math.Abs(r)), nil
		},
		"MOD": func(_ *execState, args []value) (value, error) {
			if len(args) != 2 {
				return ifail("MOD", "needs two arguments")
			}
			if args[0].kind == kInt && args[1].kind == kInt {
				if args[1].i() == 0 {
					return ifail("MOD", "division by zero")
				}
				return intVal(args[0].i() % args[1].i()), nil
			}
			a, err1 := args[0].toReal()
			b, err2 := args[1].toReal()
			if err1 != nil || err2 != nil || b == 0 {
				return ifail("MOD", "bad arguments")
			}
			return realVal(math.Mod(a, b)), nil
		},
		"MIN": minMaxFn("MIN"),
		"MAX": minMaxFn("MAX"),
		"INT": func(_ *execState, args []value) (value, error) {
			if len(args) != 1 {
				return ifail("INT", "needs one argument")
			}
			n, err := args[0].toInt()
			if err != nil {
				return ifail("INT", "%v", err)
			}
			return intVal(n), nil
		},
		"NINT": func(_ *execState, args []value) (value, error) {
			if len(args) != 1 {
				return ifail("NINT", "needs one argument")
			}
			r, err := args[0].toReal()
			if err != nil {
				return ifail("NINT", "%v", err)
			}
			return intVal(int64(math.Round(r))), nil
		},
		"REAL": func(_ *execState, args []value) (value, error) {
			if len(args) != 1 {
				return ifail("REAL", "needs one argument")
			}
			r, err := args[0].toReal()
			if err != nil {
				return ifail("REAL", "%v", err)
			}
			return realVal(r), nil
		},
		"SQRT": realFn("SQRT", func(r float64) (float64, error) {
			if r < 0 {
				return 0, fmt.Errorf("SQRT: negative argument %g", r)
			}
			return math.Sqrt(r), nil
		}),
		"EXP": realFn("EXP", func(r float64) (float64, error) { return math.Exp(r), nil }),
		"LOG": realFn("LOG", func(r float64) (float64, error) {
			if r <= 0 {
				return 0, fmt.Errorf("LOG: non-positive argument %g", r)
			}
			return math.Log(r), nil
		}),
		"SIN": realFn("SIN", func(r float64) (float64, error) { return math.Sin(r), nil }),
		"COS": realFn("COS", func(r float64) (float64, error) { return math.Cos(r), nil }),
	}
}

// realFn builds a one-REAL-argument intrinsic.
func realFn(name string, f func(float64) (float64, error)) intrinsicFn {
	return func(_ *execState, args []value) (value, error) {
		if len(args) != 1 {
			return ifail(name, "needs one argument")
		}
		r, err := args[0].toReal()
		if err != nil {
			return ifail(name, "%v", err)
		}
		out, err := f(r)
		if err != nil {
			return value{}, err
		}
		return realVal(out), nil
	}
}

// minMaxFn builds the MIN/MAX variadic intrinsics.
func minMaxFn(name string) intrinsicFn {
	wantMin := name == "MIN"
	return func(_ *execState, args []value) (value, error) {
		if len(args) < 2 {
			return ifail(name, "needs at least two arguments")
		}
		allInt := true
		for _, a := range args {
			if a.kind != kInt {
				allInt = false
			}
		}
		if allInt {
			// Compare on int64 directly: going through float64 loses
			// precision above 2**53.
			best := args[0].i()
			for _, a := range args[1:] {
				if (wantMin && a.i() < best) || (!wantMin && a.i() > best) {
					best = a.i()
				}
			}
			return intVal(best), nil
		}
		best, err := args[0].toReal()
		if err != nil {
			return ifail(name, "%v", err)
		}
		for _, a := range args[1:] {
			r, err := a.toReal()
			if err != nil {
				return ifail(name, "%v", err)
			}
			if (wantMin && r < best) || (!wantMin && r > best) {
				best = r
			}
		}
		return realVal(best), nil
	}
}

// msgArgFn builds MSGI/MSGR/MSGS/MSGT/MSGW('TYPE', i, j): the j-th argument
// of the i-th accepted message of the given type from the task's most recent
// ACCEPT statement (both indices 1-based).  The argument is read where the
// message holds it.
func msgArgFn(name string, want valKind) intrinsicFn {
	return func(st *execState, args []value) (value, error) {
		if len(args) != 3 || args[0].kind != kStr {
			return value{}, fmt.Errorf("%s needs ('TYPE', message, argument)", name)
		}
		msgType := strings.ToUpper(args[0].s())
		i, err1 := args[1].toInt()
		j, err2 := args[2].toInt()
		if err1 != nil || err2 != nil {
			return value{}, fmt.Errorf("%s indices must be INTEGER", name)
		}
		if st.lastAccept == nil {
			return value{}, fmt.Errorf("%s used before any ACCEPT", name)
		}
		msgs := st.lastAccept.ByType(msgType)
		if i < 1 || i > int64(len(msgs)) {
			return value{}, fmt.Errorf("%s: message %d of type %s not accepted (have %d)", name, i, msgType, len(msgs))
		}
		m := msgs[i-1]
		if j < 1 || j > int64(len(m.Args)) {
			return value{}, fmt.Errorf("%s: message %s has %d arguments, asked for %d", name, msgType, len(m.Args), j)
		}
		v, err := fromCoreValue(&m.Args[j-1])
		if err != nil {
			return value{}, fmt.Errorf("%s: %v", name, err)
		}
		cv, err := convert(v, want)
		if err != nil {
			return value{}, fmt.Errorf("%s: %v", name, err)
		}
		return cv, nil
	}
}

// --- core.Value conversions --------------------------------------------------

// fromCoreValue converts a message/initiation argument to an interpreter
// value.  Array arguments are handled separately by bindParams.
func fromCoreValue(v *core.Value) (value, error) {
	switch v.Kind {
	case msgcodec.KindInteger:
		return intVal(v.Integer()), nil
	case msgcodec.KindReal:
		return realVal(v.Real()), nil
	case msgcodec.KindLogical:
		return boolVal(v.Logical()), nil
	case msgcodec.KindCharacter:
		return strVal(v.Character()), nil
	case msgcodec.KindTaskID:
		id, err := core.AsID(*v)
		if err != nil {
			return value{}, err
		}
		return idVal(id), nil
	case msgcodec.KindWindow:
		w, err := core.AsWin(*v)
		if err != nil {
			return value{}, err
		}
		return winVal(w), nil
	}
	return value{}, fmt.Errorf("%s argument has no scalar interpreter form", v.Kind)
}

// toCoreValue writes an interpreter value into the zero message argument dst.
func toCoreValue(dst *core.Value, v value) error {
	switch v.kind {
	case kInt:
		*dst = core.Int(v.i())
	case kReal:
		*dst = core.Real(v.r())
	case kBool:
		*dst = core.Bool(v.b())
	case kStr:
		*dst = core.Str(v.s())
	case kTaskID:
		*dst = core.ID(v.id())
	case kWindow:
		*dst = core.Win(v.windowPayload())
	default:
		return fmt.Errorf("internal error: unknown value kind %d", v.kind)
	}
	return nil
}
