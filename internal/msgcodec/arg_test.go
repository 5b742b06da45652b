package msgcodec

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"unsafe"
)

// TestArgLayout pins the size the send and receive paths rest on: an Arg is
// six words, so one is copied in registers, never by runtime.duffcopy, and a
// pooled header's sixteen slots are 768 bytes.
func TestArgLayout(t *testing.T) {
	if n := unsafe.Sizeof(Arg{}); n > 48 {
		t.Errorf("Arg is %d bytes, want at most 48", n)
	}
}

// TestArgRoundTrip: for every kind, at the values at the edge of its field,
// the accessor hands back what the constructor was given, bit for bit, and
// the argument comes back identical through AppendEncode and DecodeInto over
// dirty storage — but for a nil array, which decodes empty and non-nil.  Then
// a slot that held an INTEGER array decodes a REAL array into the same
// storage, zero past the new length, while a list retained from it keeps its
// own.
func TestArgRoundTrip(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.Float64frombits(0x7ff8_dead_beef_0001)
	tids := []TaskIDValue{{}, {Cluster: -1, Slot: -2, Unique: -3}, {Cluster: math.MinInt32, Slot: math.MaxInt32, Unique: math.MinInt32}}
	wins := []WindowValue{{}, {Owner: tids[1], ArrayID: -4, Row1: -5, Row2: -6, Col1: -7, Col2: -8},
		{Owner: tids[2], ArrayID: math.MaxInt32, Row1: math.MinInt32, Row2: 0, Col1: 1, Col2: math.MaxInt32}}

	var args []Arg
	check := func(a Arg, ok bool, what string) {
		t.Helper()
		if !ok {
			t.Errorf("%s: the accessor does not hand back what %s was made from", what, a.Kind)
		}
		args = append(args, a)
	}
	for _, v := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
		a := Int(v)
		check(a, a.Integer() == v, "Int")
	}
	for _, v := range []float64{negZero, 0, nan, math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64} {
		a := Real(v)
		check(a, math.Float64bits(a.Real()) == math.Float64bits(v), "Real")
	}
	for _, v := range []bool{false, true} {
		a := Logical(v)
		check(a, a.Logical() == v, "Logical")
	}
	for _, v := range []string{"", "x", "héllo, 世界 🚀", string([]byte{0, 0xff, 0xfe})} {
		a := Str(v)
		check(a, a.Character() == v, "Str")
	}
	for _, v := range tids {
		a := TaskID(v)
		check(a, a.TaskID() == v, "TaskID")
	}
	for _, v := range wins {
		a := Window(v)
		check(a, a.Window() == v, "Window")
	}
	for _, v := range [][]int64{nil, {}, {math.MinInt64, -1, 0, math.MaxInt64}} {
		a := Ints(v)
		got := a.IntArray()
		check(a, slices.Equal(got, v) && (got == nil) == (v == nil) && unsafe.SliceData(got) == unsafe.SliceData(v), "Ints")
	}
	for _, v := range [][]float64{nil, {}, {negZero, nan, math.Inf(1)}} {
		a := Reals(v)
		check(a, slices.Equal(intsOf(a.RealArray), intsOf(v)) && (a.RealArray == nil) == (v == nil), "Reals")
	}

	// An argument given only its kind reads and encodes as that kind's zero.
	for _, zero := range []Arg{Int(0), Real(0), Logical(false), Str(""), TaskID(TaskIDValue{}), Window(WindowValue{}), Ints(nil), Reals(nil)} {
		bare := Arg{Kind: zero.Kind}
		got, err1 := Encode([]Arg{bare})
		want, err2 := Encode([]Arg{zero})
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) || !Equal(bare, zero) {
			t.Errorf("Arg{Kind: %s} encodes to %x (%v), want %x (%v)", zero.Kind, got, err1, want, err2)
		}
	}

	// Every kind reads as the zero value through every other kind's accessor.
	for _, a := range args {
		if a.Kind != KindInteger && a.Integer() != 0 || a.Kind != KindReal && a.Real() != 0 ||
			a.Kind != KindLogical && a.Logical() || a.Kind != KindCharacter && a.Character() != "" ||
			a.Kind != KindTaskID && a.TaskID() != (TaskIDValue{}) || a.Kind != KindWindow && a.Window() != (WindowValue{}) ||
			a.Kind != KindIntArray && a.IntArray() != nil {
			t.Errorf("%s argument reads through another kind's accessor", a.Kind)
		}
	}

	// One argument per list, decoded over a slot that held every other kind
	// in turn.
	dst := make([]Arg, 0, 2)
	for _, prev := range args {
		dst = CopyInto(dst, []Arg{prev, Str("tail")})
		for _, a := range args {
			want := []Arg{a}
			if (a.Kind == KindIntArray || a.Kind == KindRealArray) && a.RealArray == nil {
				want[0].RealArray = []float64{}
			}
			wire, err := AppendEncode(nil, []Arg{a})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := DecodeInto(dst, wire)
			if err != nil || !identical(got, want) || !Equal(got[0], a) {
				t.Fatalf("%s %+v over %s: decoded %+v, %v", a.Kind, a, prev.Kind, got, err)
			}
			if again, err := AppendEncode(nil, got); err != nil || !bytes.Equal(again, wire) {
				t.Fatalf("%s: the decoded argument re-encodes to %x, want %x", a.Kind, again, wire)
			}
			if slot, ok := zeroTail(got); !ok {
				t.Fatalf("%s over %s: slot %d reaches something past the list", a.Kind, prev.Kind, slot)
			}
			dst = got
		}
	}

	// An INTEGER array's storage carries the REAL array decoded over it.
	dst = CopyInto(dst, []Arg{Ints([]int64{1, 2, 3, 4}), Int(5)})
	store := unsafe.SliceData(dst[0].RealArray)
	kept := CopyInto(nil, dst)
	wire, err := Encode([]Arg{Reals([]float64{nan, negZero})})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeInto(dst, wire)
	if err != nil {
		t.Fatal(err)
	}
	r := got[0].RealArray
	if unsafe.SliceData(r) != store || len(r) != 2 || cap(r) != 4 {
		t.Errorf("the REAL array was decoded into %p (len %d, cap %d), want the INTEGER array's storage %p", unsafe.SliceData(r), len(r), cap(r), store)
	}
	if words := intsOf(r[:cap(r)]); !slices.Equal(words, []int64{int64(math.Float64bits(nan)), int64(math.Float64bits(negZero)), 0, 0}) {
		t.Errorf("the refilled storage holds the words %x, want the two REALs and zeros", words)
	}
	if !identical(kept, []Arg{Ints([]int64{1, 2, 3, 4}), Int(5)}) || unsafe.SliceData(kept[0].RealArray) == store {
		t.Errorf("the list retained before the decode reads %+v, or shares the slot's storage", kept)
	}
}
