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

// AsInt extracts an INTEGER value.
func AsInt(v Value) (int64, error) {
	if v.Kind != msgcodec.KindInteger {
		return 0, fmt.Errorf("core: value is %s, not INTEGER", v.Kind)
	}
	return v.Integer, nil
}

// AsReal extracts a REAL value.
func AsReal(v Value) (float64, error) {
	if v.Kind != msgcodec.KindReal {
		return 0, fmt.Errorf("core: value is %s, not REAL", v.Kind)
	}
	return v.Real, nil
}

// AsBool extracts a LOGICAL value.
func AsBool(v Value) (bool, error) {
	if v.Kind != msgcodec.KindLogical {
		return false, fmt.Errorf("core: value is %s, not LOGICAL", v.Kind)
	}
	return v.Logical, nil
}

// AsStr extracts a CHARACTER value.
func AsStr(v Value) (string, error) {
	if v.Kind != msgcodec.KindCharacter {
		return "", fmt.Errorf("core: value is %s, not CHARACTER", v.Kind)
	}
	return v.Character, nil
}

// AsID extracts a TASKID value.
func AsID(v Value) (TaskID, error) {
	if v.Kind != msgcodec.KindTaskID {
		return NilTask, fmt.Errorf("core: value is %s, not TASKID", v.Kind)
	}
	return taskIDFromCodec(v.TaskID), nil
}

// AsInts extracts an INTEGER array value.  An array read from a message is
// the message's own storage: it is valid until the message is recycled
// (Task.RecycleAccept), which hands it to the next message to refill.
func AsInts(v Value) ([]int64, error) {
	if v.Kind != msgcodec.KindIntArray {
		return nil, fmt.Errorf("core: value is %s, not INTEGER array", v.Kind)
	}
	return v.IntArray, nil
}

// AsReals extracts a REAL array value.  Like AsInts's, an array read from a
// message is valid until the message is recycled.
func AsReals(v Value) ([]float64, error) {
	if v.Kind != msgcodec.KindRealArray {
		return nil, fmt.Errorf("core: value is %s, not REAL array", v.Kind)
	}
	return v.RealArray, nil
}

// AsWin extracts a WINDOW value.
func AsWin(v Value) (Window, error) {
	if v.Kind != msgcodec.KindWindow {
		return Window{}, fmt.Errorf("core: value is %s, not WINDOW", v.Kind)
	}
	w := v.Window
	return Window{
		Owner:   taskIDFromCodec(w.Owner),
		ArrayID: w.ArrayID,
		Region:  rect.New(int(w.Row1), int(w.Row2), int(w.Col1), int(w.Col2)),
	}, nil
}

// MustInt is AsInt for arguments known to be INTEGER; it panics otherwise.
// Handlers typically use the Must form after declaring the message signature.
func MustInt(v Value) int64 {
	x, err := AsInt(v)
	if err != nil {
		panic(err)
	}
	return x
}

// MustReal is AsReal that panics on kind mismatch.
func MustReal(v Value) float64 {
	x, err := AsReal(v)
	if err != nil {
		panic(err)
	}
	return x
}

// MustStr is AsStr that panics on kind mismatch.
func MustStr(v Value) string {
	x, err := AsStr(v)
	if err != nil {
		panic(err)
	}
	return x
}

// MustID is AsID that panics on kind mismatch.
func MustID(v Value) TaskID {
	x, err := AsID(v)
	if err != nil {
		panic(err)
	}
	return x
}

// MustReals is AsReals that panics on kind mismatch; the array it returns
// from a message is valid until the message is recycled.
func MustReals(v Value) []float64 {
	x, err := AsReals(v)
	if err != nil {
		panic(err)
	}
	return x
}

// MustWin is AsWin that panics on kind mismatch.
func MustWin(v Value) Window {
	x, err := AsWin(v)
	if err != nil {
		panic(err)
	}
	return x
}
