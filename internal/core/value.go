package core

import (
	"fmt"

	"repro/internal/msgcodec"
	"repro/internal/rect"
)

// Value is one message or task argument.  The supported kinds mirror the
// Pisces Fortran data types: INTEGER, REAL, LOGICAL, CHARACTER, TASKID,
// WINDOW, and one-dimensional INTEGER and REAL arrays.
type Value = msgcodec.Arg

// Shorthand aliases for the codec's argument kinds, used when inspecting
// Value.Kind directly.
const (
	kindInteger   = msgcodec.KindInteger
	kindReal      = msgcodec.KindReal
	kindLogical   = msgcodec.KindLogical
	kindCharacter = msgcodec.KindCharacter
	kindTaskID    = msgcodec.KindTaskID
	kindWindow    = msgcodec.KindWindow
	kindIntArray  = msgcodec.KindIntArray
	kindRealArray = msgcodec.KindRealArray
)

// Int returns an INTEGER value.
func Int(v int64) Value { return msgcodec.Int(v) }

// Real returns a REAL value.
func Real(v float64) Value { return msgcodec.Real(v) }

// Bool returns a LOGICAL value.
func Bool(v bool) Value { return msgcodec.Logical(v) }

// Str returns a CHARACTER value.
func Str(v string) Value { return msgcodec.Str(v) }

// ID returns a TASKID value.
func ID(t TaskID) Value { return msgcodec.TaskID(t.codecValue()) }

// Ints returns an INTEGER array value.
func Ints(v []int64) Value { return msgcodec.Ints(v) }

// Reals returns a REAL array value.
func Reals(v []float64) Value { return msgcodec.Reals(v) }

// Win returns a WINDOW value.
func Win(w Window) Value {
	return msgcodec.Window(msgcodec.WindowValue{
		Owner:   w.Owner.codecValue(),
		ArrayID: w.ArrayID,
		Row1:    int32(w.Region.Row1),
		Row2:    int32(w.Region.Row2),
		Col1:    int32(w.Region.Col1),
		Col2:    int32(w.Region.Col2),
	})
}

// The As* and Must* readers check the kind and read the field themselves
// rather than one calling the other: a Value is six words, more than the
// compiler keeps in registers inside a function, so handing one on to
// another reader copies it through memory.  Their mismatch is a kindError
// value, formatted only when read, so that no reader makes a call and every
// one stays small enough to inline.

// kindError is an As* reader's error, and a Must* reader's panic, for a
// value of kind got.
type kindError struct {
	got  msgcodec.ArgKind
	want string
}

func (e kindError) Error() string {
	return fmt.Sprintf("core: value is %s, not %s", e.got, e.want)
}

// AsInt extracts an INTEGER value.
func AsInt(v Value) (int64, error) {
	if v.Kind != msgcodec.KindInteger {
		return 0, kindError{v.Kind, "INTEGER"}
	}
	return v.Integer(), nil
}

// AsReal extracts a REAL value.
func AsReal(v Value) (float64, error) {
	if v.Kind != msgcodec.KindReal {
		return 0, kindError{v.Kind, "REAL"}
	}
	return v.Real(), nil
}

// AsBool extracts a LOGICAL value.
func AsBool(v Value) (bool, error) {
	if v.Kind != msgcodec.KindLogical {
		return false, kindError{v.Kind, "LOGICAL"}
	}
	return v.Logical(), nil
}

// AsStr extracts a CHARACTER value.
func AsStr(v Value) (string, error) {
	if v.Kind != msgcodec.KindCharacter {
		return "", kindError{v.Kind, "CHARACTER"}
	}
	return v.Character(), nil
}

// AsID extracts a TASKID value.
func AsID(v Value) (TaskID, error) {
	if v.Kind != msgcodec.KindTaskID {
		return NilTask, kindError{v.Kind, "TASKID"}
	}
	return taskIDFromCodec(v.TaskID()), nil
}

// AsInts extracts an INTEGER array value.  An array read from a message is
// the message's own storage: it is valid until the message is recycled
// (Task.RecycleAccept), which hands it to the next message to refill.
func AsInts(v Value) ([]int64, error) {
	if v.Kind != msgcodec.KindIntArray {
		return nil, kindError{v.Kind, "INTEGER array"}
	}
	return v.IntArray(), nil
}

// AsReals extracts a REAL array value.  Like AsInts's, an array read from a
// message is valid until the message is recycled.
func AsReals(v Value) ([]float64, error) {
	if v.Kind != msgcodec.KindRealArray {
		return nil, kindError{v.Kind, "REAL array"}
	}
	return v.RealArray, nil
}

// AsWin extracts a WINDOW value.
func AsWin(v Value) (Window, error) {
	if v.Kind != msgcodec.KindWindow {
		return Window{}, kindError{v.Kind, "WINDOW"}
	}
	return winFromCodec(v.Window()), nil
}

// winFromCodec is the Window a WINDOW value carries.  Its Region is a
// literal, not rect.New, which keeps AsWin and MustWin within the inliner's
// budget.
func winFromCodec(w msgcodec.WindowValue) Window {
	return Window{
		Owner:   taskIDFromCodec(w.Owner),
		ArrayID: w.ArrayID,
		Region:  rect.Rect{Row1: int(w.Row1), Row2: int(w.Row2), Col1: int(w.Col1), Col2: int(w.Col2)},
	}
}

// MustInt is AsInt for arguments known to be INTEGER; it panics otherwise.
// Handlers typically use the Must form after declaring the message signature.
func MustInt(v Value) int64 {
	if v.Kind != msgcodec.KindInteger {
		panic(kindError{v.Kind, "INTEGER"})
	}
	return v.Integer()
}

// MustReal is AsReal that panics on kind mismatch.
func MustReal(v Value) float64 {
	if v.Kind != msgcodec.KindReal {
		panic(kindError{v.Kind, "REAL"})
	}
	return v.Real()
}

// MustStr is AsStr that panics on kind mismatch.
func MustStr(v Value) string {
	if v.Kind != msgcodec.KindCharacter {
		panic(kindError{v.Kind, "CHARACTER"})
	}
	return v.Character()
}

// MustID is AsID that panics on kind mismatch.
func MustID(v Value) TaskID {
	if v.Kind != msgcodec.KindTaskID {
		panic(kindError{v.Kind, "TASKID"})
	}
	return taskIDFromCodec(v.TaskID())
}

// MustReals is AsReals that panics on kind mismatch; the array it returns
// from a message is valid until the message is recycled.
func MustReals(v Value) []float64 {
	if v.Kind != msgcodec.KindRealArray {
		panic(kindError{v.Kind, "REAL array"})
	}
	return v.RealArray
}

// MustWin is AsWin that panics on kind mismatch.
func MustWin(v Value) Window {
	if v.Kind != msgcodec.KindWindow {
		panic(kindError{v.Kind, "WINDOW"})
	}
	return winFromCodec(v.Window())
}
