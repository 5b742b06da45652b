package pfc

// Expr is a parsed Fortran expression: a small tree that internal/pfi
// compiles into closures.  An expression is parsed by a Pratt (top-down
// operator precedence) parser — a fitting choice for a reproduction of a
// Pratt paper.
type Expr interface{ isExpr() }

// LitKind is the type of a literal constant.
type LitKind int

// Literal kinds.
const (
	LitInt LitKind = iota
	LitReal
	LitLogical
	LitChar
)

// Lit is a literal constant; the field matching Kind holds its value.
type Lit struct {
	Kind LitKind
	I    int64
	R    float64
	B    bool
	S    string
}

// Name is a bare identifier: a scalar variable or a no-argument intrinsic
// such as SELF or SENDER.
type Name struct{ Name string }

// Call is NAME(args): an array element reference or an intrinsic call —
// Fortran syntax does not distinguish the two.
type Call struct {
	Name string
	Args []Expr
}

// Unary and Binary are operator applications; Op is the canonical operator
// name from the tokenizer ("-", "NOT", "+", "**", "EQ", "AND", ...).
type Unary struct {
	Op string
	X  Expr
}
type Binary struct {
	Op   string
	X, Y Expr
}

func (Lit) isExpr()    {}
func (Name) isExpr()   {}
func (Call) isExpr()   {}
func (Unary) isExpr()  {}
func (Binary) isExpr() {}

// Operand is one expression of a statement — an argument, bound, count or
// delay — as its parsed tree plus the exact source text it was read from,
// which Emit copies into the generated Fortran.  Expr is nil when the text is
// not an expression of the interpreted subset (the statement then carries
// the diagnostic in Err).
type Operand struct {
	Expr
	Src string
}

// maxExprDepth caps expression nesting (parentheses, call arguments, unary
// and ** chains).  Fortran 77 needs a few dozen levels; without a cap a line
// of a million parentheses overflows the goroutine stack, which is fatal to
// the whole process rather than a recoverable panic.
const maxExprDepth = 200

func errNested(line int) error {
	return errf(line, "expression nested deeper than %d levels", maxExprDepth)
}

// binding powers, low to high.  ** is right-associative; unary +/- bind like
// their binary forms (Fortran: -A*B is -(A*B), -A**2 is -(A**2)).
var binPower = map[string]int{
	"EQV": 10, "NEQV": 10,
	"OR":  20,
	"AND": 30,
	"EQ":  50, "NE": 50, "LT": 50, "LE": 50, "GT": 50, "GE": 50,
	"+": 60, "-": 60,
	"*": 70, "/": 70,
	"**": 90,
}

type exprParser struct {
	toks  []token
	pos   int
	line  int
	depth int
}

// parseExpr parses the tokens as one complete expression.
func parseExpr(toks []token, line int) (Expr, error) {
	p := &exprParser{toks: toks, line: line}
	e, err := p.parse(0)
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != tEOF {
		return nil, errf(line, "unexpected %q after expression", tokenText(t))
	}
	return e, nil
}

func (p *exprParser) peek() token {
	if p.pos >= len(p.toks) {
		return token{kind: tEOF}
	}
	return p.toks[p.pos]
}

func (p *exprParser) next() token {
	t := p.peek()
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

// parse implements precedence climbing: parse a prefix operand, then consume
// binary operators with binding power above min.
func (p *exprParser) parse(min int) (Expr, error) {
	if p.depth >= maxExprDepth {
		return nil, errNested(p.line)
	}
	p.depth++
	e, err := p.climb(min)
	p.depth--
	return e, err
}

func (p *exprParser) climb(min int) (Expr, error) {
	left, err := p.parsePrefix()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tOp {
			return left, nil
		}
		bp, ok := binPower[t.text]
		if !ok || bp <= min {
			return left, nil
		}
		p.pos++
		// Right-associative ** parses its right side at bp-1 so A**B**C is
		// A**(B**C); everything else is left-associative.
		rightMin := bp
		if t.text == "**" {
			rightMin = bp - 1
		}
		right, err := p.parse(rightMin)
		if err != nil {
			return nil, err
		}
		left = Binary{Op: t.text, X: left, Y: right}
	}
}

func (p *exprParser) parsePrefix() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tInt:
		return Lit{Kind: LitInt, I: t.i}, nil
	case tReal:
		return Lit{Kind: LitReal, R: t.r}, nil
	case tLogic:
		return Lit{Kind: LitLogical, B: t.i != 0}, nil
	case tStr:
		return Lit{Kind: LitChar, S: t.text}, nil
	case tName:
		if p.peek().is("(") {
			p.pos++
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return Call{Name: t.text, Args: args}, nil
		}
		return Name{Name: t.text}, nil
	case tOp:
		switch t.text {
		case "(":
			e, err := p.parse(0)
			if err != nil {
				return nil, err
			}
			if !p.next().is(")") {
				return nil, errf(p.line, "missing closing parenthesis")
			}
			return e, nil
		case "-", "+":
			// Unary +/- parse their operand just above additive power so
			// -A*B groups as -(A*B) but -A+B as (-A)+B.
			x, err := p.parse(60)
			if err != nil {
				return nil, err
			}
			if t.text == "+" {
				return x, nil
			}
			return Unary{Op: "-", X: x}, nil
		case "NOT":
			x, err := p.parse(40)
			if err != nil {
				return nil, err
			}
			return Unary{Op: "NOT", X: x}, nil
		}
	}
	return nil, errf(p.line, "unexpected token %q in expression", tokenText(t))
}

// parseArgs parses "args)" after an opening parenthesis, allowing an empty
// argument list for no-argument intrinsics such as MEMBERS().
func (p *exprParser) parseArgs() ([]Expr, error) {
	if p.peek().is(")") {
		p.pos++
		return nil, nil
	}
	var args []Expr
	for {
		a, err := p.parse(0)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		switch t := p.next(); {
		case t.is(","):
		case t.is(")"):
			return args, nil
		case t.kind == tOp:
			return nil, errf(p.line, "unexpected %q in argument list", t.text)
		default:
			return nil, errf(p.line, "malformed argument list")
		}
	}
}

func tokenText(t token) string {
	switch t.kind {
	case tEOF:
		return "end of expression"
	case tStr:
		return "'" + t.text + "'"
	default:
		return t.text
	}
}
