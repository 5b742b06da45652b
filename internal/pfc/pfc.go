// Package pfc implements the Pisces Fortran preprocessor (paper, Sections 10
// and 11): "A preprocessor converts Pisces Fortran programs into standard
// Fortran 77, with embedded calls on the Pisces run-time library.  The Unix
// Fortran compiler then compiles the preprocessed programs."
//
// A Pisces Fortran program is a set of TASKTYPE definitions in which ordinary
// Fortran 77 and the Pisces extensions are intermixed.  The preprocessor
// recognises the extension statements described in the paper —
//
//	TASKTYPE <name> (<params>) ... END TASKTYPE
//	ON <cluster> INITIATE <tasktype> (<args>)
//	TO <taskid> SEND <msgtype> (<args>)
//	ACCEPT <number> OF <msgtype>... DELAY <t> THEN ... END ACCEPT
//	SIGNAL <msgtype> / HANDLER <msgtype> declarations
//	FORCESPLIT
//	SHARED COMMON /<name>/ <list>
//	LOCK <names>
//	BARRIER ... END BARRIER
//	CRITICAL <lock> ... END CRITICAL
//	PRESCHED DO <n> <var> = <lo>, <hi>[, <step>]
//	SELFSCHED DO <n> <var> = <lo>, <hi>[, <step>]
//	PARSEG / NEXTSEG / ENDSEG
//	TASKID <names> / WINDOW <names> declarations
//
// — and rewrites each of them into standard Fortran with CALL statements on
// the PISCES run-time library, passing every other line through unchanged.
// Ordinary Fortran 77 subprograms therefore require no changes, exactly as
// the paper promises.
//
// This package is the only code that reads Pisces Fortran text.  Parse
// tokenises each statement line once (token.go), parses expressions with one
// Pratt parser (expr.go), and recognises every statement — the Pisces
// extensions and the Fortran 77 subset the interpreter runs — in one
// token-driven switch (parser.go) that yields typed Stmts: labels, placements
// and destinations are fields, and arguments, bounds, counts and delays are
// parsed expressions that keep their exact source text.  The AST has two
// consumers: Emit in this package generates the Fortran 77 translation, and
// internal/pfi compiles the same AST into closures and runs it on an
// in-memory virtual machine, so .pf programs can be executed end-to-end
// without a Fortran compiler.
//
// The parser stays line-oriented for ordinary Fortran: DO and IF lines come
// out flat, in source order, and nesting them is the interpreter's business.
// A line that is not a statement of the interpreted subset (FORMAT, DATA,
// plain COMMON, an expression form the Pratt parser does not read) is no
// parse error: Emit passes its Text through like any other ordinary line,
// and the Stmt carries in Err the positioned diagnostic internal/pfi reports
// when asked to execute it.  Parse itself rejects only what cannot be
// translated: malformed Pisces statements and unclosed blocks.
package pfc

import "fmt"

// Options tune the preprocessor output.
type Options struct {
	// RuntimePrefix is prepended to generated run-time entry points;
	// the default "PS" yields names such as PSINIT and PSSEND.
	RuntimePrefix string
	// KeepComments controls whether full-line comments are copied through.
	KeepComments bool
}

func (o Options) prefix() string {
	if o.RuntimePrefix == "" {
		return "PS"
	}
	return o.RuntimePrefix
}

// Error is a preprocessing error with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("pisces fortran: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Result is the outcome of preprocessing one source file.
type Result struct {
	// Fortran is the generated standard Fortran 77 text.
	Fortran string
	// Program is the parsed structure of the source.
	Program *Program
}

// Preprocess translates Pisces Fortran source text into standard Fortran 77
// with calls on the PISCES run-time library.
func Preprocess(src string, opts Options) (*Result, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	out, err := Emit(prog, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Fortran: out, Program: prog}, nil
}

// --- program structure -------------------------------------------------------

// Program is a parsed Pisces Fortran source file.
type Program struct {
	// TaskTypes lists the tasktype definitions in source order.
	TaskTypes []*TaskTypeDef
	// Other holds source lines outside any TASKTYPE (ordinary subroutines,
	// handler subroutines, comments), in source order, passed through.
	Other []Line
}

// TaskTypeDef is one TASKTYPE ... END TASKTYPE definition.  Names are
// upper-cased.
type TaskTypeDef struct {
	Name   string
	Params []string
	Line   int
	// Body is the statement sequence of the tasktype.
	Body []Stmt
	// Handlers and Signals are the declared message types, SharedCommons the
	// declared SHARED COMMON block names.
	Handlers      []string
	Signals       []string
	SharedCommons []string
	// UsesForce reports whether the body contains a FORCESPLIT.
	UsesForce bool
}

// Line is one passed-through source line.
type Line struct {
	Number int
	Text   string
}

// StmtKind identifies the kind of a parsed statement.
type StmtKind int

// Statement kinds.  StmtFortran and the kinds after StmtSignalDecl are
// ordinary Fortran, which Emit passes through unchanged.
const (
	// StmtFortran is a line with no structure: a comment or blank line, or
	// (Err set) a line that is not a statement of the interpreted subset.
	StmtFortran StmtKind = iota
	StmtInitiate
	StmtSend
	StmtAccept
	StmtForceSplit
	StmtBarrier
	StmtCritical
	StmtPreschedDo
	StmtSelfschedDo
	StmtParseg
	StmtSharedCommon // SHARED COMMON /name/ list
	StmtLockDecl     // LOCK <names>
	StmtTaskIDDecl   // TASKID <names>
	StmtWindowDecl   // WINDOW <names>
	StmtHandlerDecl  // HANDLER <msgtype>
	StmtSignalDecl   // SIGNAL <msgtype>

	StmtAssign   // Name[(Args)] = X
	StmtIf       // logical IF (X) <Body[0]>
	StmtIfThen   // IF (X) THEN
	StmtElseIf   // ELSE IF (X) THEN
	StmtElse     // ELSE
	StmtEndIf    // END IF
	StmtDo       // DO [DoLabel] Name = Lo, Hi[, Step]
	StmtEndDo    // END DO
	StmtGoto     // GOTO DoLabel
	StmtContinue // CONTINUE, or a label alone on a line
	StmtStop     // STOP [X]
	StmtReturn   // RETURN, or END alone
	StmtPrint    // PRINT *, Args / WRITE(...) Args
	StmtCall     // CALL Name[(Args)]
	StmtDecl     // <Name: INTEGER|REAL|LOGICAL|CHARACTER|DIMENSION> Decls

	// Block closers of the Pisces constructs: consumed by Parse, never part
	// of a Program.
	stmtEndTaskType
	stmtEndAccept
	stmtEndBarrier
	stmtEndCritical
	stmtNextSeg
	stmtEndSeg
)

// PlaceKind is the placement form of an INITIATE statement.
type PlaceKind int

// Placements; PlaceCluster takes its cluster number from Stmt.Where.
const (
	PlaceAny PlaceKind = iota
	PlaceOther
	PlaceSame
	PlaceCluster
)

// DestKind is the destination form of a SEND statement.
type DestKind int

// Destinations; DestAllCluster and DestTContr take a cluster number, and
// DestTask a TASKID-valued expression, from Stmt.Where.
const (
	DestParent DestKind = iota
	DestSelf
	DestSender
	DestUser
	DestAll
	DestAllCluster
	DestTContr
	DestTask
)

// Stmt is one parsed statement of a tasktype body.
type Stmt struct {
	Kind StmtKind
	Line int
	// Label is the numeric statement label ("" for none).  Only ordinary
	// Fortran lines carry one.
	Label string
	// Text is the source line, verbatim.
	Text string
	// Err, when set, says why internal/pfi cannot execute this statement
	// although Emit can pass or translate it.
	Err *Error

	// Name is the statement's one identifier: the tasktype of INITIATE, the
	// message type of SEND/HANDLER/SIGNAL, the lock of CRITICAL, the block of
	// SHARED COMMON, the variable of an assignment or any DO form, the
	// subroutine of CALL, the type keyword of a declaration.
	Name string
	// Args are the arguments of INITIATE/SEND/CALL, the items of PRINT/WRITE,
	// the subscripts of an assignment target.
	Args []Operand
	// X is the right-hand side of an assignment, the condition of an IF form,
	// the message of STOP.
	X Operand

	Place PlaceKind // StmtInitiate
	Dest  DestKind  // StmtSend
	Where Operand   // cluster number or TASKID expression of Place/Dest

	// DoLabel is the terminator label of a DO form ("" for DO ... END DO) and
	// the target of GOTO; Lo, Hi, Step are the loop bounds (Step defaults
	// to 1).
	DoLabel      string
	Lo, Hi, Step Operand

	// Decls are the entries of a declaration: StmtDecl, StmtSharedCommon,
	// StmtLockDecl, StmtTaskIDDecl, StmtWindowDecl.
	Decls []DeclItem

	Accept *AcceptStmt // StmtAccept

	// Body is the body of BARRIER and CRITICAL and the object statement of a
	// logical IF; Segments are the PARSEG segments.
	Body     []Stmt
	Segments [][]Stmt
}

// DeclItem is one declared name with its array extents.  Name is "" when the
// entry is not NAME or NAME(extents).
type DeclItem struct {
	Name string
	Dims []Expr
	Src  string
}

// AcceptStmt is a parsed ACCEPT statement.  An absent Total or Delay has an
// empty Src.
type AcceptStmt struct {
	// Total is the <number> OF expression (absent when per-type counts are
	// used).
	Total Operand
	// Types lists the accepted message types.
	Types []AcceptType
	// Delay is the DELAY expression (absent = system default).
	Delay Operand
	// OnTimeout is the DELAY ... THEN statement sequence.
	OnTimeout []Stmt
}

// AcceptType is one message-type entry of an ACCEPT statement: All accepts
// every message of the type received, an absent Count charges the type
// against the shared total.
type AcceptType struct {
	Name  string
	All   bool
	Count Operand
}
