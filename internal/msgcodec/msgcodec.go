// Package msgcodec encodes and decodes the argument lists carried by PISCES 2
// messages.  In the FLEX/32 implementation "Messages consist of a header and
// a list of packets containing the arguments" and live in a shared-memory
// heap "with explicit allocation/deallocation as messages are sent and
// accepted" (paper, Section 11).  This package defines the wire layout —
// a fixed-size header plus fixed-size packets — so that the run-time can
// charge the exact number of shared-memory bytes for every message and
// recover them when the message is accepted, which is what the Section 13
// storage measurements depend on.
//
// Supported argument types mirror the Pisces Fortran types: INTEGER, REAL
// (stored as float64, Fortran DOUBLE PRECISION), LOGICAL, CHARACTER strings,
// TASKID values, WINDOW values, and one-dimensional INTEGER and REAL arrays.
package msgcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// ArgKind identifies the type of one message argument.
type ArgKind uint8

// Argument kinds.
const (
	KindInteger ArgKind = iota + 1
	KindReal
	KindLogical
	KindCharacter
	KindTaskID
	KindWindow
	KindIntArray
	KindRealArray
)

// String returns the Pisces Fortran name of the kind.
func (k ArgKind) String() string {
	switch k {
	case KindInteger:
		return "INTEGER"
	case KindReal:
		return "REAL"
	case KindLogical:
		return "LOGICAL"
	case KindCharacter:
		return "CHARACTER"
	case KindTaskID:
		return "TASKID"
	case KindWindow:
		return "WINDOW"
	case KindIntArray:
		return "INTEGER-ARRAY"
	case KindRealArray:
		return "REAL-ARRAY"
	}
	return fmt.Sprintf("ArgKind(%d)", uint8(k))
}

// TaskIDValue is the codec-level representation of a TASKID: cluster number,
// slot number, and unique number (paper, Section 6).
type TaskIDValue struct {
	Cluster int32
	Slot    int32
	Unique  int32
}

// WindowValue is the codec-level representation of a WINDOW: "the taskid of
// the owner, the address of the array, and a descriptor for the subarray"
// (paper, Section 8).
type WindowValue struct {
	Owner   TaskIDValue
	ArrayID int32
	Row1    int32
	Row2    int32
	Col1    int32
	Col2    int32
}

// Layout constants.  The original system used fixed-size packets chained off
// a header; 32-byte packets with an 8-byte argument descriptor are a faithful
// model and keep the arithmetic simple.
const (
	// HeaderBytes is the fixed size of a message header in shared memory:
	// message type, sender taskid, destination taskid, argument count, and
	// queue linkage.
	HeaderBytes = 64
	// PacketBytes is the size of each argument packet.
	PacketBytes = 32
	// packetPayload is the usable payload of a packet after its descriptor.
	packetPayload = PacketBytes - 8
)

// ErrCorrupt is returned when decoding malformed bytes.
var ErrCorrupt = errors.New("msgcodec: corrupt message encoding")

// ErrTooManyArgs is returned by Encode when the argument list exceeds the
// wire format's uint16 count field.  Without the check the count would wrap
// silently and the buffer would decode to a truncated argument list.
var ErrTooManyArgs = errors.New("msgcodec: too many arguments for the wire format")

// MaxArgs is the largest argument count the wire format can carry.
const MaxArgs = math.MaxUint16

// Arg is one argument value, six words: the kind, with a TASKID's Unique in
// its padding, one word of scalar, one pointer and the array.  Which of them
// a kind uses is private to this file; the other kinds are read through the
// accessors (Integer, Real, Logical, Character, TaskID, Window, IntArray),
// which answer the zero value for an argument of another kind.  RealArray is
// a REAL array's elements, and an INTEGER array's words share it: the two
// element types are one size and hold no pointers, so an array is one
// allocation whichever kind it carries (words.go), and a slot that carried an
// INTEGER array refills the same storage with a REAL one.  An Arg passes in
// registers, and a copy of one is a few moves, not a runtime.duffcopy.
type Arg struct {
	Kind ArgKind
	// unique is a TASKID's Unique.
	unique int32
	// word is an INTEGER, a REAL's bits, a LOGICAL (0 or 1), a TASKID's
	// Cluster (high half) and Slot (low half), or a CHARACTER's length.
	word uint64
	// ptr is a CHARACTER's bytes (unsafe.StringData) or a WINDOW's
	// *WindowValue, which nothing writes once the Arg is made.
	ptr unsafe.Pointer
	// RealArray is a REAL array's elements, or an INTEGER array's words as
	// REALs (IntArray reads them back).
	RealArray []float64
}

// Int returns an INTEGER argument.
func Int(v int64) Arg { return Arg{Kind: KindInteger, word: uint64(v)} }

// Real returns a REAL argument.
func Real(v float64) Arg { return Arg{Kind: KindReal, word: math.Float64bits(v)} }

// Logical returns a LOGICAL argument.
func Logical(v bool) Arg {
	a := Arg{Kind: KindLogical}
	if v {
		a.word = 1
	}
	return a
}

// Str returns a CHARACTER argument.
func Str(v string) Arg {
	return Arg{Kind: KindCharacter, word: uint64(len(v)), ptr: unsafe.Pointer(unsafe.StringData(v))}
}

// TaskID returns a TASKID argument.
func TaskID(v TaskIDValue) Arg {
	return Arg{Kind: KindTaskID, unique: v.Unique, word: uint64(uint32(v.Cluster))<<32 | uint64(uint32(v.Slot))}
}

// Window returns a WINDOW argument.
func Window(v WindowValue) Arg { return Arg{Kind: KindWindow, ptr: unsafe.Pointer(&v)} }

// Ints returns an INTEGER array argument.  It shares v's storage, as Reals
// does.
func Ints(v []int64) Arg { return Arg{Kind: KindIntArray, RealArray: realsOf(v)} }

// Reals returns a REAL array argument.
func Reals(v []float64) Arg { return Arg{Kind: KindRealArray, RealArray: v} }

// Integer returns an INTEGER argument's value, 0 for another kind.
func (a Arg) Integer() int64 {
	if a.Kind != KindInteger {
		return 0
	}
	return int64(a.word)
}

// Real returns a REAL argument's value, 0 for another kind.
func (a Arg) Real() float64 {
	if a.Kind != KindReal {
		return 0
	}
	return math.Float64frombits(a.word)
}

// Logical returns a LOGICAL argument's value, false for another kind.
func (a Arg) Logical() bool { return a.Kind == KindLogical && a.word != 0 }

// Character returns a CHARACTER argument's value, "" for another kind.
func (a Arg) Character() string {
	if a.Kind != KindCharacter {
		return ""
	}
	return unsafe.String((*byte)(a.ptr), int(a.word))
}

// TaskID returns a TASKID argument's value, the zero taskid for another kind.
func (a Arg) TaskID() TaskIDValue {
	if a.Kind != KindTaskID {
		return TaskIDValue{}
	}
	return TaskIDValue{Cluster: int32(a.word >> 32), Slot: int32(uint32(a.word)), Unique: a.unique}
}

// Window returns a WINDOW argument's value, the zero window for another kind
// and for an Arg{Kind: KindWindow} made without Window.
func (a Arg) Window() WindowValue {
	if a.Kind != KindWindow || a.ptr == nil {
		return WindowValue{}
	}
	return *(*WindowValue)(a.ptr)
}

// IntArray returns an INTEGER array argument's elements, nil for another
// kind.  They are the argument's own storage, as RealArray is a REAL array's.
func (a Arg) IntArray() []int64 {
	if a.Kind != KindIntArray {
		return nil
	}
	return intsOf(a.RealArray)
}

// payloadBytes returns the number of payload bytes the argument needs.
func (a *Arg) payloadBytes() (int, error) {
	switch a.Kind {
	case KindInteger, KindReal:
		return 8, nil
	case KindLogical:
		return 1, nil
	case KindCharacter:
		return int(a.word), nil
	case KindTaskID:
		return 12, nil
	case KindWindow:
		return 12 + 4 + 16, nil
	case KindIntArray, KindRealArray:
		return 8 * len(a.RealArray), nil
	default:
		return 0, fmt.Errorf("msgcodec: unknown argument kind %d", a.Kind)
	}
}

// Packets returns the number of fixed-size packets the argument occupies.
func (a *Arg) Packets() (int, error) {
	n, err := a.payloadBytes()
	if err != nil {
		return 0, err
	}
	return packets(n), nil
}

// packets returns the number of packets n payload bytes occupy: at least one.
func packets(n int) int {
	if n == 0 {
		return 1
	}
	return (n + packetPayload - 1) / packetPayload
}

// EncodedSize returns the number of shared-memory bytes a message with the
// given arguments occupies: one header plus the packets of every argument.
// This is the quantity charged against the message heap when the message is
// sent and released when it is accepted.
func EncodedSize(args []Arg) (int, error) {
	total := HeaderBytes
	for i := range args {
		p, err := args[i].Packets()
		if err != nil {
			return 0, err
		}
		total += p * PacketBytes
	}
	return total, nil
}

// Encode serialises the argument list.  The layout is:
//
//	uint16 argument count
//	for each argument: uint8 kind, uint32 payload length, payload bytes
//
// Every integer in it is big-endian — the count, the lengths, a scalar
// INTEGER or REAL, the fields of a TASKID or WINDOW — except the elements of
// an INTEGER or REAL array, which are 8-byte little-endian words: that is the
// array's memory image on a little-endian host, so the array is encoded with
// one append and decoded with one copy (words.go).
//
// Encode is used both to move argument bytes through the simulated shared
// memory and to give messages a deterministic, testable wire form.
func Encode(args []Arg) ([]byte, error) {
	return AppendEncode(make([]byte, 0, 64), args)
}

// AppendEncode appends the wire encoding of args to dst and returns the
// extended slice.  It allocates nothing beyond dst's growth, so callers on
// the message hot path can encode straight into a pre-sized buffer (the
// run-time encodes into the sending cluster's shared-memory shard, whose
// packet-model size always bounds the wire size).
func AppendEncode(dst []byte, args []Arg) ([]byte, error) {
	if len(args) > MaxArgs {
		return nil, fmt.Errorf("%w: %d arguments, wire count field holds at most %d", ErrTooManyArgs, len(args), MaxArgs)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(args)))
	for i := range args {
		a := &args[i]
		n, err := a.payloadBytes()
		if err != nil {
			return nil, err
		}
		dst = append(dst, byte(a.Kind))
		dst = binary.BigEndian.AppendUint32(dst, uint32(n))
		dst = a.appendPayload(dst)
	}
	return dst, nil
}

// appendPayload appends the argument's payload bytes.  Unknown kinds are
// rejected by the payloadBytes call in AppendEncode before this runs.
func (a *Arg) appendPayload(dst []byte) []byte {
	switch a.Kind {
	case KindInteger, KindReal:
		return binary.BigEndian.AppendUint64(dst, a.word)
	case KindLogical:
		return append(dst, byte(a.word))
	case KindCharacter:
		return append(dst, a.Character()...)
	case KindTaskID:
		return AppendTaskID(dst, a.TaskID())
	case KindWindow:
		w := a.Window()
		dst = AppendTaskID(dst, w.Owner)
		dst = appendInt32(dst, w.ArrayID)
		dst = appendInt32(dst, w.Row1)
		dst = appendInt32(dst, w.Row2)
		dst = appendInt32(dst, w.Col1)
		return appendInt32(dst, w.Col2)
	case KindIntArray, KindRealArray:
		return appendWords(dst, wordBytes(a.RealArray))
	}
	return dst
}

// AppendTaskID appends the 12-byte taskid triple (Cursor.TaskID).
func AppendTaskID(b []byte, t TaskIDValue) []byte {
	b = appendInt32(b, t.Cluster)
	b = appendInt32(b, t.Slot)
	return appendInt32(b, t.Unique)
}

func appendInt32(b []byte, v int32) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(v))
}

// argHeaderBytes is the wire overhead of one argument: uint8 kind, uint32
// payload length.
const argHeaderBytes = 5

// Decode reverses Encode into a list of its own.
func Decode(data []byte) ([]Arg, error) {
	args, _, err := DecodeInto(nil, data)
	return args, err
}

// DecodeInto reverses Encode into storage the caller owns: the list fills
// dst[:count] when cap(dst) allows, and a list made for it otherwise.  The
// list's u16 count is held against the bytes that follow it — every argument
// has a 5-byte header — before anything is sized from it, so a forged count
// is an ErrCorrupt, not an allocation.  dst may be dirty: each slot the list
// takes is written whole, whatever it held, and the slots after the list are
// zeroed.  DecodeInto writes into dst's arrays: a slot whose array has the
// room an array argument needs is refilled in place, whichever of the two
// array kinds either is, zero past the new length (an array dst holds is
// taken to be one this package filled, zero past its own length), so a
// message's arrays are storage that carries one list after another, like the
// slots.  A slot that now holds a scalar keeps no array, and an empty array
// decodes non-nil, as in Decode.  A failed decode zeroes all of dst's
// capacity, so nothing of a half-decoded list — nor of the list dst held
// before — stays reachable from storage that is about to be used again.
//
// It also returns the list's packet-model size, EncodedSize of the decoded
// list, counted from the payload lengths the walk reads anyway, so a receiver
// that charges the message at delivery does not walk the list again.
func DecodeInto(dst []Arg, data []byte) ([]Arg, int, error) {
	args, size, err := decodeInto(dst, data)
	if err != nil {
		clear(dst[:cap(dst)])
	}
	return args, size, err
}

// decodeInto is DecodeInto up to what a failure leaves in dst.
func decodeInto(dst []Arg, data []byte) ([]Arg, int, error) {
	if len(data) < 2 {
		return nil, 0, fmt.Errorf("%w: short buffer", ErrCorrupt)
	}
	count := int(binary.BigEndian.Uint16(data[0:2]))
	if argHeaderBytes*count > len(data)-2 {
		return nil, 0, fmt.Errorf("%w: argument count %d exceeds its %d-byte list", ErrCorrupt, count, len(data))
	}
	args := listInto(dst, count)
	pos, size := 2, HeaderBytes
	for i := range args {
		if pos+argHeaderBytes > len(data) {
			return nil, 0, fmt.Errorf("%w: truncated argument %d header", ErrCorrupt, i)
		}
		kind := ArgKind(data[pos])
		n := int(binary.BigEndian.Uint32(data[pos+1 : pos+argHeaderBytes]))
		pos += argHeaderBytes
		if pos+n > len(data) {
			return nil, 0, fmt.Errorf("%w: truncated argument %d payload", ErrCorrupt, i)
		}
		if err := args[i].decodePayload(kind, data[pos:pos+n]); err != nil {
			return nil, 0, err
		}
		pos += n
		size += packets(n) * PacketBytes
	}
	if pos != len(data) {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-pos)
	}
	return args, size, nil
}

// CopyInto copies args into dst the way DecodeInto decodes a list into it:
// dst[:len(args)] when cap(dst) allows, a list made for it otherwise, the
// slots after the list zeroed, and every array copied — into the slot's own
// array when it has the kind and the room — so the list it returns shares no
// storage with args.
func CopyInto(dst, args []Arg) []Arg {
	out := listInto(dst, len(args))
	for i := range args {
		out[i].copyFrom(&args[i])
	}
	return out
}

// listInto is the list of n slots DecodeInto and CopyInto fill: dst[:n], with
// the slots after it zeroed, or a new list when dst has no room.
func listInto(dst []Arg, n int) []Arg {
	if n > cap(dst) {
		return make([]Arg, n)
	}
	clear(dst[n:cap(dst)])
	return dst[:n]
}

// refill returns an array of n elements for a slot whose array was spare:
// spare itself when it has the room, cleared from n to its old length, so the
// array is zero past n as it was past its old length, and a new array
// otherwise.  The result is never nil.
func refill(spare []float64, n int) []float64 {
	if spare == nil || cap(spare) < n {
		return make([]float64, n)
	}
	if n < len(spare) {
		clear(spare[n:])
	}
	return spare[:n]
}

// copyFrom writes src whole over the slot a, an array copied into a's own
// (refill).
func (a *Arg) copyFrom(src *Arg) {
	spare := a.RealArray
	*a = *src
	if src.Kind == KindIntArray || src.Kind == KindRealArray {
		a.RealArray = refill(spare, len(src.RealArray))
		copy(a.RealArray, src.RealArray)
	} else {
		a.RealArray = nil
	}
}

// decodePayload writes one argument's wire form whole over the slot a, whose
// array an array argument refills (DecodeInto).
func (a *Arg) decodePayload(kind ArgKind, payload []byte) error {
	spare := a.RealArray
	*a = Arg{Kind: kind}
	switch kind {
	case KindInteger, KindReal:
		if len(payload) != 8 {
			return fmt.Errorf("%w: %s payload %d bytes", ErrCorrupt, kind, len(payload))
		}
		a.word = binary.BigEndian.Uint64(payload)
	case KindLogical:
		if len(payload) != 1 {
			return fmt.Errorf("%w: LOGICAL payload %d bytes", ErrCorrupt, len(payload))
		}
		if payload[0] != 0 {
			a.word = 1
		}
	case KindCharacter:
		*a = Str(string(payload))
	case KindTaskID:
		t, err := decodeTaskID(payload)
		if err != nil {
			return err
		}
		*a = TaskID(t)
	case KindWindow:
		if len(payload) != 32 {
			return fmt.Errorf("%w: WINDOW payload %d bytes", ErrCorrupt, len(payload))
		}
		owner, err := decodeTaskID(payload[0:12])
		if err != nil {
			return err
		}
		*a = Window(WindowValue{
			Owner:   owner,
			ArrayID: int32(binary.BigEndian.Uint32(payload[12:16])),
			Row1:    int32(binary.BigEndian.Uint32(payload[16:20])),
			Row2:    int32(binary.BigEndian.Uint32(payload[20:24])),
			Col1:    int32(binary.BigEndian.Uint32(payload[24:28])),
			Col2:    int32(binary.BigEndian.Uint32(payload[28:32])),
		})
	case KindIntArray, KindRealArray:
		if len(payload)%8 != 0 {
			elem := "INTEGER"
			if kind == KindRealArray {
				elem = "REAL"
			}
			return fmt.Errorf("%w: %s array payload %d bytes", ErrCorrupt, elem, len(payload))
		}
		a.RealArray = refill(spare, len(payload)/8)
		putWords(wordBytes(a.RealArray), payload)
	default:
		return fmt.Errorf("%w: unknown argument kind %d", ErrCorrupt, kind)
	}
	return nil
}

func decodeTaskID(payload []byte) (TaskIDValue, error) {
	// Exactly 12 bytes, like the INTEGER/REAL/WINDOW checks: a top-level
	// TASKID argument with trailing garbage is corrupt, not "close enough".
	// (WINDOW decoding passes 12-byte sub-slices, so it is unaffected.)
	if len(payload) != 12 {
		return TaskIDValue{}, fmt.Errorf("%w: TASKID payload %d bytes, want 12", ErrCorrupt, len(payload))
	}
	return TaskIDValue{
		Cluster: int32(binary.BigEndian.Uint32(payload[0:4])),
		Slot:    int32(binary.BigEndian.Uint32(payload[4:8])),
		Unique:  int32(binary.BigEndian.Uint32(payload[8:12])),
	}, nil
}

// Equal reports whether two arguments have the same kind and value.  REALs
// compare as numbers, a NaN equal to any NaN, and an INTEGER array's words
// as integers.
func Equal(a, b Arg) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindInteger, KindLogical:
		return a.word == b.word
	case KindReal:
		return sameReal(a.Real(), b.Real())
	case KindCharacter:
		return a.Character() == b.Character()
	case KindTaskID:
		return a.TaskID() == b.TaskID()
	case KindWindow:
		return a.Window() == b.Window()
	case KindIntArray:
		return slices.Equal(a.IntArray(), b.IntArray())
	case KindRealArray:
		return slices.EqualFunc(a.RealArray, b.RealArray, sameReal)
	}
	return false
}

// sameReal is REAL equality with every NaN equal.
func sameReal(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
