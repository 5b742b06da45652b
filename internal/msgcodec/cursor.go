package msgcodec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire cursor: the one place a length-checked big-endian field is taken off
// a peer's bytes.  The node protocol frames, the topology, the cluster
// checkpoint sections and the obs snapshot/trace blobs are all positional
// big-endian layouts read through a Cursor and written with the Append*
// functions below.
//
// The error is sticky: the first read that runs past the end records an
// error wrapping ErrCorrupt, and every later read returns zero without
// touching the bytes, so a decoder reads its fields straight through and
// checks Err (or Done) once.  A count prefix goes through Count, which
// refuses a count the remaining bytes cannot hold BEFORE the caller sizes
// anything from it — a forged count is an ErrCorrupt, not an allocation.
//
// A Cursor is a plain value: declare it where it is used and it lives on
// the stack.

// MaxStr16 is the longest string AppendStr16 can carry; a longer one would
// wrap its u16 length prefix, so callers with unbounded input check first.
const MaxStr16 = math.MaxUint16

// Cursor reads fields off the front of a byte slice.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor returns a cursor over b.  Slices the cursor hands out (Bytes,
// Rest) alias b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

var errTruncated = fmt.Errorf("%w: truncated", ErrCorrupt)

// take consumes n bytes, or fails the cursor and returns nil.  The failure
// is a fixed error so that take — and every fixed-width read — inlines.
func (c *Cursor) take(n int) []byte {
	if uint(n) > uint(len(c.b)) {
		c.Fail(errTruncated)
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

// Fail records err as the cursor's error unless an earlier one is already
// held, and ends the input.  Decoders use it for failures the cursor cannot
// see itself (a version byte, a nested decode).
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.b = nil
}

// Err returns the first failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Done returns the first failure; unread trailing bytes are one.
func (c *Cursor) Done() error {
	if c.err == nil && len(c.b) != 0 {
		c.Fail(fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(c.b)))
	}
	return c.err
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if p := c.take(1); p != nil {
		return p[0]
	}
	return 0
}

// U16 reads a big-endian uint16.
func (c *Cursor) U16() uint16 {
	if p := c.take(2); p != nil {
		return binary.BigEndian.Uint16(p)
	}
	return 0
}

// U32 reads a big-endian uint32.
func (c *Cursor) U32() uint32 {
	if p := c.take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

// I32 reads a big-endian uint32 as a sign-extended int (node ids, cluster
// numbers and taskid fields travel as 32-bit two's complement).
func (c *Cursor) I32() int { return int(int32(c.U32())) }

// U64 reads a big-endian uint64.
func (c *Cursor) U64() uint64 {
	if p := c.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// I64 reads a big-endian int64.
func (c *Cursor) I64() int64 { return int64(c.U64()) }

// Bytes consumes the next n bytes (aliasing the input); pair it with Count
// for a length-prefixed blob: c.Bytes(c.Count(1)).
func (c *Cursor) Bytes(n int) []byte { return c.take(n) }

// Rest consumes everything left.
func (c *Cursor) Rest() []byte { return c.take(len(c.b)) }

// Str16 reads a string behind a u16 length.
func (c *Cursor) Str16() string { return string(c.take(int(c.U16()))) }

// Str32 reads a string behind a u32 length.
func (c *Cursor) Str32() string { return string(c.take(c.Count(1))) }

// TaskID reads the 12-byte taskid triple.
func (c *Cursor) TaskID() TaskIDValue {
	if p := c.take(12); p != nil {
		t, _ := decodeTaskID(p)
		return t
	}
	return TaskIDValue{}
}

// Count reads a u32 element count and fails unless that many elements of at
// least minBytes each fit in what is left, so the result is safe to size an
// allocation or bound a loop with.
func (c *Cursor) Count(minBytes int) int {
	n := c.U32()
	if uint64(n)*uint64(minBytes) > uint64(len(c.b)) {
		c.Fail(fmt.Errorf("%w: count %d needs %d bytes, %d left", ErrCorrupt, n, uint64(n)*uint64(minBytes), len(c.b)))
		return 0
	}
	return int(n)
}

// Args reads an argument list behind a u32 length (AppendArgs).  Decode holds
// the list's own u16 count against the blob before it sizes anything.
func (c *Cursor) Args() []Arg {
	blob := c.take(c.Count(1))
	if len(blob) == 0 {
		return nil
	}
	args, err := Decode(blob)
	if err != nil {
		c.Fail(err)
	}
	return args
}

// AppendU16 appends a big-endian uint16.
func AppendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// AppendU32 appends a big-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendI32 appends an int as 32-bit two's complement (Cursor.I32).
func AppendI32(b []byte, v int) []byte { return binary.BigEndian.AppendUint32(b, uint32(int32(v))) }

// AppendU64 appends a big-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendI64 appends a big-endian int64.
func AppendI64(b []byte, v int64) []byte { return binary.BigEndian.AppendUint64(b, uint64(v)) }

// AppendStr16 appends s behind a u16 length; len(s) must not exceed MaxStr16.
func AppendStr16(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint16(b, uint16(len(s))), s...)
}

// AppendStr32 appends s behind a u32 length.
func AppendStr32(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
}

// AppendBytes32 appends p behind a u32 length.
func AppendBytes32(b, p []byte) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(p))), p...)
}

// AppendArgs appends the encoding of args behind a u32 length (Cursor.Args).
func AppendArgs(b []byte, args []Arg) ([]byte, error) {
	at := len(b)
	b, err := AppendEncode(append(b, 0, 0, 0, 0), args)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b, nil
}
