// Closure code generation: turning pfc's parsed expression trees, and the
// payloads of the statements compile.go walks, into pre-bound Go closures.
// Every name is resolved to a frame slot (see resolve.go), every operator to
// an opcode, and every intrinsic to its implementation, so executing a
// statement walks no tree, switches on no strings, and looks up no maps.
// Constant subexpressions are folded at compile time.
package pfi

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pfc"
)

// cexpr is one compiled expression.
type cexpr func(*execState) (value, error)

// cstore stores a value into a compiled assignment target.
type cstore func(*execState, value) error

// csendArg writes one message/initiation argument into dst, its zero slot in
// the argument list being built: the list core.Task.SendArgs lent the
// statement, which the run-time reads once the last argument is in.
type csendArg func(st *execState, dst *core.Value) error

// cstmt is one compiled, executable statement.
type cstmt struct {
	run   func(*execState) (ctl, error)
	label string
	line  int
	// collective marks a statement whose subtree contains a construct other
	// force members synchronise on (BARRIER, or the shared iteration counter
	// of SELFSCHED DO); precomputed so the sticky error path need not walk
	// the statement tree.
	collective bool
}

// taskCompiler compiles one tasktype's statements and expressions against
// its slot table.
type taskCompiler struct {
	tab *slotTable
}

// seqCollective reports whether any statement of a compiled sequence is (or
// contains) a collective construct.
func seqCollective(ns []cstmt) bool {
	for i := range ns {
		if ns[i].collective {
			return true
		}
	}
	return false
}

// compiled statement payloads --------------------------------------------------

// cdo is a compiled DO loop.
type cdo struct {
	store        cstore
	lo, hi, step cexpr
	body         []cstmt
}

// csched is a compiled PRESCHED/SELFSCHED DO loop.
type csched struct {
	store        cstore
	lo, hi, step cexpr
	body         []cstmt
	selfsched    bool
}

// cdeclItem is one compiled declaration entry with its array extents.
type cdeclItem struct {
	slot int
	name string
	kind valKind
	dims []cexpr
}

// cinitiate is a compiled INITIATE statement.
type cinitiate struct {
	tasktype  string
	placement pfc.PlaceKind
	where     cexpr // cluster number of a CLUSTER placement
	args      []csendArg
}

// csend is a compiled SEND statement.
type csend struct {
	msgType string
	dest    pfc.DestKind
	where   cexpr // cluster number or TASKID of the destination
	args    []csendArg
}

// cacceptType is one compiled message-type entry of an ACCEPT.
type cacceptType struct {
	name  string
	all   bool
	count cexpr
}

// caccept is a compiled ACCEPT statement.
type caccept struct {
	total     cexpr
	types     []cacceptType
	delay     cexpr
	onTimeout []cstmt
}

// --- declaration compilation --------------------------------------------------

// compileDecls types a declaration's entries — kind k, or with k == kNone the
// implicit (I-N) kind of each name — and compiles their extents.
func (tc *taskCompiler) compileDecls(st *pfc.Stmt, k valKind) ([]cdeclItem, error) {
	out := make([]cdeclItem, len(st.Decls))
	for i, d := range st.Decls {
		if len(d.Dims) > 2 {
			return nil, errf(st.Line, "array %s must have one or two extents", d.Name)
		}
		out[i] = cdeclItem{slot: tc.tab.slotOf(d.Name), name: d.Name, kind: k}
		if k == kNone {
			out[i].kind = implicitKind(d.Name)
		}
		for _, dim := range d.Dims {
			out[i].dims = append(out[i].dims, tc.compileExpr(dim))
		}
	}
	return out, nil
}

// --- expression compilation ---------------------------------------------------

// compileOperands compiles a statement's expression list (nil when empty).
func (tc *taskCompiler) compileOperands(ops []pfc.Operand) []cexpr {
	if len(ops) == 0 {
		return nil
	}
	out := make([]cexpr, len(ops))
	for i, op := range ops {
		out[i] = tc.compileExpr(op.Expr)
	}
	return out
}

// compileOptional compiles an operand a statement may omit (nil when absent).
func (tc *taskCompiler) compileOptional(op pfc.Operand) cexpr {
	if op.Expr == nil {
		return nil
	}
	return tc.compileExpr(op.Expr)
}

// compileExpr folds constant subexpressions, then generates the evaluation
// closure.
func (tc *taskCompiler) compileExpr(e pfc.Expr) cexpr {
	return tc.gen(foldExpr(e))
}

// litValue is the interpreter value of a literal constant.
func litValue(l pfc.Lit) value {
	switch l.Kind {
	case pfc.LitInt:
		return intVal(l.I)
	case pfc.LitReal:
		return realVal(l.R)
	case pfc.LitLogical:
		return boolVal(l.B)
	}
	return strVal(l.S)
}

// valueLit is the literal constant of a folded value (operators on literals
// yield only the four literal kinds).
func valueLit(v value) pfc.Lit {
	switch v.kind {
	case kInt:
		return pfc.Lit{Kind: pfc.LitInt, I: v.i()}
	case kReal:
		return pfc.Lit{Kind: pfc.LitReal, R: v.r()}
	case kBool:
		return pfc.Lit{Kind: pfc.LitLogical, B: v.b()}
	}
	return pfc.Lit{Kind: pfc.LitChar, S: v.s()}
}

// foldExpr evaluates constant subtrees at compile time.  A constant subtree
// whose evaluation errors (1/0 in dead code, say) is left to fail at run
// time, preserving the interpreter's error placement.
func foldExpr(e pfc.Expr) pfc.Expr {
	switch e := e.(type) {
	case pfc.Unary:
		x := foldExpr(e.X)
		if lx, ok := x.(pfc.Lit); ok {
			var v value
			var err error
			if e.Op == "-" {
				v, err = negVal(litValue(lx))
			} else {
				v, err = notVal(litValue(lx))
			}
			if err == nil {
				return valueLit(v)
			}
		}
		return pfc.Unary{Op: e.Op, X: x}
	case pfc.Binary:
		x, y := foldExpr(e.X), foldExpr(e.Y)
		if lx, ok := x.(pfc.Lit); ok {
			if ly, ok := y.(pfc.Lit); ok {
				if op, known := binOpCode[e.Op]; known {
					if v, err := applyBinary(op, litValue(lx), litValue(ly)); err == nil {
						return valueLit(v)
					}
				}
			}
		}
		return pfc.Binary{Op: e.Op, X: x, Y: y}
	case pfc.Call:
		args := make([]pfc.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = foldExpr(a)
		}
		return pfc.Call{Name: e.Name, Args: args}
	default:
		return e
	}
}

func (tc *taskCompiler) gen(e pfc.Expr) cexpr {
	switch e := e.(type) {
	case pfc.Lit:
		v := litValue(e)
		return func(*execState) (value, error) { return v, nil }

	case pfc.Name:
		slot := tc.tab.slotOf(e.Name)
		name := e.Name
		fn := resolveIntrinsic(e.Name)
		return func(st *execState) (value, error) {
			b := &st.f.slots[slot]
			if b.v.kind != kNone {
				return b.v, nil
			}
			if b.cell != nil {
				return b.cell.load(), nil
			}
			if b.arr != nil {
				return value{}, fmt.Errorf("array %s used without subscripts", name)
			}
			if fn != nil {
				return fn(st, nil)
			}
			return value{}, fmt.Errorf("variable %s used before it is set", name)
		}

	case pfc.Call:
		return tc.genCall(e)

	case pfc.Unary:
		x := tc.gen(e.X)
		if e.Op == "-" {
			return func(st *execState) (value, error) {
				v, err := x(st)
				if err != nil {
					return value{}, err
				}
				return negVal(v)
			}
		}
		return func(st *execState) (value, error) {
			v, err := x(st)
			if err != nil {
				return value{}, err
			}
			return notVal(v)
		}

	case pfc.Binary:
		op, known := binOpCode[e.Op]
		if !known {
			// A tokenizer/parser operator without an opcode is a compiler bug;
			// fail loudly instead of miscompiling to the zero opcode.
			err := fmt.Errorf("internal error: unknown operator %q", e.Op)
			return func(*execState) (value, error) { return value{}, err }
		}
		x, y := tc.gen(e.X), tc.gen(e.Y)
		return func(st *execState) (value, error) {
			xv, err := x(st)
			if err != nil {
				return value{}, err
			}
			yv, err := y(st)
			if err != nil {
				return value{}, err
			}
			return applyBinary(op, xv, yv)
		}
	}
	err := fmt.Errorf("internal error: unknown expression %T", e)
	return func(*execState) (value, error) { return value{}, err }
}

// genCall compiles NAME(args): an array element reference or an intrinsic
// call — Fortran syntax does not distinguish the two, so the closure checks
// the slot's array binding first, then dispatches to the pre-resolved
// intrinsic.
func (tc *taskCompiler) genCall(e pfc.Call) cexpr {
	slot := tc.tab.slotOf(e.Name)
	name := e.Name
	fn := resolveIntrinsic(e.Name)
	args := make([]cexpr, len(e.Args))
	for i, a := range e.Args {
		args[i] = tc.gen(a)
	}
	return func(st *execState) (value, error) {
		if a := st.f.slots[slot].arr; a != nil {
			off, err := st.evalOffset(a, name, args)
			if err != nil {
				return value{}, err
			}
			return a.data[off], nil
		}
		if fn == nil {
			return value{}, fmt.Errorf("%s is neither a declared array nor a known function", name)
		}
		// Arguments are evaluated onto the execState's argument stack, so
		// nested intrinsic calls share one growing buffer instead of
		// allocating a slice per call.
		base := len(st.argv)
		for _, a := range args {
			v, err := a(st)
			if err != nil {
				st.argv = st.argv[:base]
				return value{}, err
			}
			st.argv = append(st.argv, v)
		}
		v, err := fn(st, st.argv[base:])
		st.argv = st.argv[:base]
		return v, err
	}
}

// compileStore compiles an assignment target: a scalar/shared-cell name, or
// an array element.
func (tc *taskCompiler) compileStore(name string, index []pfc.Operand) cstore {
	slot := tc.tab.slotOf(name)
	idx := tc.compileOperands(index)
	if idx == nil {
		return func(st *execState, v value) error { return st.storeScalar(slot, v) }
	}
	return func(st *execState, v value) error {
		a := st.f.slots[slot].arr
		if a == nil {
			return fmt.Errorf("%s is not a declared array", name)
		}
		off, err := st.evalOffset(a, name, idx)
		if err != nil {
			return err
		}
		cv, err := convert(v, a.kind)
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		a.data[off] = cv
		return nil
	}
}

// compileSendArgs compiles message/initiation arguments; a bare array name
// passes the whole array as an INTEGER or REAL array argument.
func (tc *taskCompiler) compileSendArgs(items []pfc.Operand) []csendArg {
	out := make([]csendArg, len(items))
	for i, item := range items {
		e := item.Expr
		if ne, ok := e.(pfc.Name); ok {
			slot := tc.tab.slotOf(ne.Name)
			name := ne.Name
			inner := tc.compileExpr(e)
			out[i] = func(st *execState, dst *core.Value) error {
				if a := st.f.slots[slot].arr; a != nil {
					return arrayToCore(dst, name, a)
				}
				v, err := inner(st)
				if err != nil {
					return err
				}
				return toCoreValue(dst, v)
			}
			continue
		}
		inner := tc.compileExpr(e)
		out[i] = func(st *execState, dst *core.Value) error {
			v, err := inner(st)
			if err != nil {
				return err
			}
			return toCoreValue(dst, v)
		}
	}
	return out
}

// --- shared runtime helpers used by the compiled closures ---------------------

// evalOffset evaluates compiled subscripts against an array binding.
func (st *execState) evalOffset(a *array, name string, idx []cexpr) (int, error) {
	switch len(idx) {
	case 1:
		v, err := idx[0](st)
		if err != nil {
			return 0, err
		}
		i1, err := v.toInt()
		if err != nil {
			return 0, err
		}
		return a.offset1(name, i1)
	case 2:
		v1, err := idx[0](st)
		if err != nil {
			return 0, err
		}
		i1, err := v1.toInt()
		if err != nil {
			return 0, err
		}
		v2, err := idx[1](st)
		if err != nil {
			return 0, err
		}
		i2, err := v2.toInt()
		if err != nil {
			return 0, err
		}
		return a.offset2(name, i1, i2)
	}
	if a.cols == 0 {
		return 0, fmt.Errorf("array %s needs 1 subscript, got %d", name, len(idx))
	}
	return 0, fmt.Errorf("array %s needs 2 subscripts, got %d", name, len(idx))
}

// storeScalar stores into a scalar slot: shared cells first, then the
// declared-kind conversion of an ordinary scalar.
func (st *execState) storeScalar(slot int, v value) error {
	b := &st.f.slots[slot]
	if c := b.cell; c != nil {
		cv, err := convert(v, c.load().kind)
		if err != nil {
			return fmt.Errorf("%s: %v", st.f.tab.name(slot), err)
		}
		c.store(cv)
		return nil
	}
	if b.arr != nil {
		return fmt.Errorf("array %s assigned without subscripts", st.f.tab.name(slot))
	}
	cv, err := convert(v, st.f.declaredKind(slot))
	if err != nil {
		return fmt.Errorf("%s: %v", st.f.tab.name(slot), err)
	}
	b.v = cv
	return nil
}

// evalInt evaluates a compiled expression and converts to INTEGER.
func (st *execState) evalInt(e cexpr) (int64, error) {
	v, err := e(st)
	if err != nil {
		return 0, err
	}
	return v.toInt()
}

// evalSendArgs evaluates compiled message/initiation arguments into out, a
// zeroed list of len(args) values: the list core.Task.SendArgs lent the
// statement.  The run-time copies or encodes it before SEND or INITIATE
// returns, so the next statement fills the same storage.
func (st *execState) evalSendArgs(args []csendArg, out []core.Value) error {
	for i, a := range args {
		if err := a(st, &out[i]); err != nil {
			return err
		}
	}
	return nil
}

// arrayToCore writes a whole array into the zero message argument dst.
func arrayToCore(dst *core.Value, name string, a *array) error {
	switch a.kind {
	case kInt:
		vs := make([]int64, len(a.data))
		for i := range a.data {
			vs[i] = a.data[i].i()
		}
		*dst = core.Ints(vs)
		return nil
	case kReal:
		vs := make([]float64, len(a.data))
		for i := range a.data {
			vs[i] = a.data[i].r()
		}
		*dst = core.Reals(vs)
		return nil
	}
	return fmt.Errorf("array %s of kind %s cannot be a message argument", name, a.kind)
}

// acceptSpec evaluates a compiled ACCEPT head into a core.AcceptSpec.  Its
// type list is the execState's scratch, refilled per statement: core.Accept
// copies what it needs out of the spec before anything can run another ACCEPT.
func (st *execState) acceptSpec(a *caccept) (core.AcceptSpec, error) {
	spec := core.AcceptSpec{}
	if a.total != nil {
		total, err := st.evalInt(a.total)
		if err != nil {
			return spec, err
		}
		spec.Total = int(total)
	}
	st.specTypes = st.specTypes[:0]
	for _, ty := range a.types {
		tycount := core.TypeCount{Type: ty.name}
		switch {
		case ty.all:
			tycount.Count = core.All
		case ty.count != nil:
			cnt, err := st.evalInt(ty.count)
			if err != nil {
				return spec, err
			}
			tycount.Count = int(cnt)
		}
		st.specTypes = append(st.specTypes, tycount)
	}
	spec.Types = st.specTypes
	if a.delay != nil {
		secs, err := a.delay(st)
		if err != nil {
			return spec, err
		}
		s, err := secs.toReal()
		if err != nil {
			return spec, fmt.Errorf("DELAY: %v", err)
		}
		spec.Delay = time.Duration(s * float64(time.Second))
		if spec.Delay <= 0 {
			spec.Delay = time.Nanosecond
		}
	}
	return spec, nil
}
