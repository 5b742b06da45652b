package msgcodec

import (
	"bytes"
	"errors"
	"testing"
)

// TestCursorRoundTrip: every Append* is read back by its Cursor method, in
// sequence, and Done accepts exactly the bytes written.
func TestCursorRoundTrip(t *testing.T) {
	tid := TaskIDValue{Cluster: 2, Slot: -3, Unique: 17}
	args := []Arg{Int(42), Str("hi")}
	b := append([]byte(nil), 0xAB)
	b = AppendU16(b, 0xBEEF)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendI32(b, -7)
	b = AppendU64(b, 1<<63|5)
	b = AppendI64(b, -9)
	b = AppendStr16(b, "sixteen")
	b = AppendStr32(b, "thirty-two")
	b = AppendBytes32(b, []byte{1, 2, 3})
	b = AppendTaskID(b, tid)
	b, err := AppendArgs(b, args)
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, "rest"...)

	c := NewCursor(b)
	if c.U8() != 0xAB || c.U16() != 0xBEEF || c.U32() != 0xDEADBEEF || c.I32() != -7 || c.U64() != 1<<63|5 || c.I64() != -9 {
		t.Fatal("fixed-width fields did not read back")
	}
	if c.Str16() != "sixteen" || c.Str32() != "thirty-two" || !bytes.Equal(c.Bytes(c.Count(1)), []byte{1, 2, 3}) || c.TaskID() != tid {
		t.Fatal("strings, blob or taskid did not read back")
	}
	if got := c.Args(); len(got) != 2 || !Equal(got[0], args[0]) || !Equal(got[1], args[1]) {
		t.Fatalf("args read back as %+v", got)
	}
	if c.Err() != nil {
		t.Fatalf("mid-stream error: %v", c.Err())
	}
	if err := c.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Done with 4 unread bytes = %v, want ErrCorrupt", err)
	}
	c = NewCursor(b[len(b)-4:])
	if string(c.Rest()) != "rest" || c.Done() != nil {
		t.Fatalf("Rest/Done: %v", c.Done())
	}
}

// TestCursorStickyError: the first short read wins; every later read returns
// zero without touching bytes, and the error wraps ErrCorrupt.
func TestCursorStickyError(t *testing.T) {
	c := NewCursor([]byte{0, 0, 0, 1, 0xFF})
	if c.U32() != 1 {
		t.Fatal("first field misread")
	}
	if v := c.U64(); v != 0 || !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatalf("short U64 = %d, err %v", v, c.Err())
	}
	first := c.Err()
	if c.U8() != 0 || c.Str16() != "" || c.Str32() != "" || c.Bytes(1) != nil || c.Rest() != nil ||
		c.TaskID() != (TaskIDValue{}) || c.Count(1) != 0 || c.Args() != nil {
		t.Fatal("a read after the failure returned data")
	}
	c.Fail(errors.New("later"))
	if c.Err() != first || c.Done() != first {
		t.Fatalf("error did not stick: %v then %v", first, c.Done())
	}
}

// TestCursorCount: a count is refused unless count*minBytes fits in what is
// left — including counts whose product overflows 32 bits — and a refused
// count reads as zero, so a loop or make sized from it does nothing.
func TestCursorCount(t *testing.T) {
	body := bytes.Repeat([]byte{7}, 40)
	for _, tc := range []struct {
		count uint32
		min   int
		ok    bool
	}{
		{0, 20, true}, {2, 20, true}, {3, 20, false}, {40, 1, true}, {41, 1, false},
		{0x7FFFFFFF, 20, false}, {0xFFFFFFFF, 1 << 20, false},
	} {
		c := NewCursor(append(AppendU32(nil, tc.count), body...))
		n := c.Count(tc.min)
		if tc.ok && (n != int(tc.count) || c.Err() != nil) {
			t.Errorf("Count(%d) of %d over 40 bytes = %d, %v; want it accepted", tc.min, tc.count, n, c.Err())
		}
		if !tc.ok && (n != 0 || !errors.Is(c.Err(), ErrCorrupt)) {
			t.Errorf("Count(%d) of %d over 40 bytes = %d, %v; want 0 and ErrCorrupt", tc.min, tc.count, n, c.Err())
		}
	}
}

// TestCursorArgsForgedCount: Decode sizes its result from the argument
// list's u16 count; Args must hold that count against the list's bytes first.
func TestCursorArgsForgedCount(t *testing.T) {
	c := NewCursor(AppendBytes32(nil, []byte{0xFF, 0xFF}))
	if got := c.Args(); got != nil || !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatalf("forged argument count: %v, %v", got, c.Err())
	}
}
