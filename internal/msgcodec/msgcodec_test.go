package msgcodec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func sampleArgs() []Arg {
	return []Arg{
		Int(42),
		Int(-7),
		Real(3.14159),
		Real(math.Inf(1)),
		Logical(true),
		Logical(false),
		Str("hello, FLEX/32"),
		Str(""),
		TaskID(TaskIDValue{Cluster: 2, Slot: 5, Unique: 1234}),
		Window(WindowValue{
			Owner:   TaskIDValue{Cluster: 1, Slot: 1, Unique: 9},
			ArrayID: 3, Row1: 1, Row2: 100, Col1: 10, Col2: 20,
		}),
		Ints([]int64{1, -2, 3, 4, 5}),
		Reals([]float64{0.5, -0.25, 1e10}),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	args := sampleArgs()
	data, err := Encode(args)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(args) {
		t.Fatalf("decoded %d args, want %d", len(got), len(args))
	}
	for i := range args {
		if !Equal(args[i], got[i]) {
			t.Errorf("arg %d: got %+v, want %+v", i, got[i], args[i])
		}
	}
}

func TestEncodeEmptyArgList(t *testing.T) {
	data, err := Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d args from empty list", len(got))
	}
	size, err := EncodedSize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if size != HeaderBytes {
		t.Fatalf("empty message size = %d, want header only (%d)", size, HeaderBytes)
	}
}

func TestEncodedSizePacketArithmetic(t *testing.T) {
	cases := []struct {
		arg         Arg
		wantPackets int
	}{
		{Int(1), 1},
		{Real(2.5), 1},
		{Logical(true), 1},
		{Str("x"), 1},
		{Str("this string is longer than twenty-four bytes of payload"), 3},
		{TaskID(TaskIDValue{}), 1},
		{Window(WindowValue{}), 2},
		{Ints(make([]int64, 3)), 1},
		{Ints(make([]int64, 4)), 2},
		{Reals(make([]float64, 100)), 34},
		{Ints(nil), 1},
	}
	for i, c := range cases {
		p, err := c.arg.Packets()
		if err != nil {
			t.Fatal(err)
		}
		if p != c.wantPackets {
			t.Errorf("case %d (%s): packets = %d, want %d", i, c.arg.Kind, p, c.wantPackets)
		}
	}
	size, err := EncodedSize([]Arg{Int(1), Str("abc")})
	if err != nil {
		t.Fatal(err)
	}
	if size != HeaderBytes+2*PacketBytes {
		t.Fatalf("size = %d, want %d", size, HeaderBytes+2*PacketBytes)
	}
}

func TestEncodedSizeUnknownKind(t *testing.T) {
	if _, err := EncodedSize([]Arg{{Kind: ArgKind(99)}}); err == nil {
		t.Fatal("unknown kind accepted by EncodedSize")
	}
	if _, err := Encode([]Arg{{Kind: ArgKind(99)}}); err == nil {
		t.Fatal("unknown kind accepted by Encode")
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	good, err := Encode(sampleArgs())
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		{0},
		good[:5],
		good[:len(good)-3],
		append(append([]byte{}, good...), 0xFF),
		{0, 1, 99, 0, 0, 0, 1, 0}, // unknown kind
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("case %d: corrupt input decoded without error", i)
		}
	}
}

// TestDecodeRefusesForgedCountBeforeSizing: Decode sizes its result from the
// list's own u16 count, and a peer's msg frame reaches it unchecked
// (node.decodeData -> core.deliverInbound), so the count is held against the
// bytes that follow — 5 header bytes an argument — before anything is sized.
// The two-byte payload FF FF used to allocate 65,535 Args (9.4 MB) on the way
// to "truncated argument 0 header".
func TestDecodeRefusesForgedCountBeforeSizing(t *testing.T) {
	forged := [][]byte{
		{0xFF, 0xFF},
		{0xFF, 0xFF, byte(KindInteger), 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 1},
		{0, 2, byte(KindLogical), 0, 0, 0, 1, 1}, // count 2, one argument's bytes
	}
	// TotalAlloc is process-wide, and whatever else the process allocates
	// meanwhile (a finished test's goroutines, the race detector) counts too:
	// the bound is per call, over many calls, so a few KB of that is noise
	// while one forged count sized from would still be 1,000 times over.
	const calls = 1000
	for _, data := range forged {
		var before, after runtime.MemStats
		var err error
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			_, err = Decode(data)
		}
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("Decode(% x) = %v, want ErrCorrupt", data, err)
		}
		if grew := (after.TotalAlloc - before.TotalAlloc) / calls; grew >= 1024 {
			t.Errorf("Decode(% x) allocated %d bytes a call before refusing; want < 1 KiB", data, grew)
		}
	}
	// The check refuses nothing Encode produces: an empty list and a list of
	// empty strings are the tightest fits.
	for _, args := range [][]Arg{nil, {Str(""), Str(""), Str("")}} {
		wire, err := Encode(args)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := Decode(wire); err != nil || len(back) != len(args) {
			t.Errorf("Decode(Encode(%d args)) = %d args, %v", len(args), len(back), err)
		}
	}
}

// TestFailedDecodeLeavesNoResidue: DecodeInto's dst is storage that carries
// one list after another (core's pooled message header), so a slot is written
// whole whatever it held, and a decode that fails part-way leaves nothing of
// the list it was reading — nor of the one before — reachable from dst.
func TestFailedDecodeLeavesNoResidue(t *testing.T) {
	encode := func(args ...Arg) []byte {
		t.Helper()
		wire, err := Encode(args)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	a := []Arg{Str("list A"), Ints([]int64{1, 2, 3}), Reals([]float64{4, 5}), Str("A's tail")}
	dst := make([]Arg, 0, 6)
	got, _, err := DecodeInto(dst, encode(a...))
	if err != nil || !identical(got, a) {
		t.Fatalf("DecodeInto(A) = %+v, %v", got, err)
	}
	if &got[0] != &dst[:1][0] {
		t.Fatal("a list that fits dst was decoded somewhere else")
	}

	// A dirty slot is overwritten whole: a scalar over a CHARACTER, an array
	// over an array of the other type.
	b := []Arg{Int(7), Reals([]float64{8}), Ints([]int64{9})}
	wireB := encode(b...)
	got, _, err = DecodeInto(dst, wireB)
	if want, _ := Decode(wireB); err != nil || !identical(got, want) {
		t.Fatalf("DecodeInto(B) over A = %+v, %v; Decode(B) = %+v", got, err, want)
	}

	// The second argument's payload is cut short: the first is already in
	// dst when the decode fails.
	corrupt := encode(Str("the corrupt list"), Ints([]int64{10, 11}))
	corrupt = corrupt[:len(corrupt)-4]
	if got, _, err = DecodeInto(dst, corrupt); !errors.Is(err, ErrCorrupt) || got != nil {
		t.Fatalf("DecodeInto(truncated second argument) = %+v, %v, want ErrCorrupt", got, err)
	}
	for i, slot := range dst[:cap(dst)] {
		if !isZero(&slot) {
			t.Errorf("after the failed decode slot %d of dst still holds %+v", i, slot)
		}
	}

	wireC := encode(Logical(true), Str("C"))
	got, _, err = DecodeInto(dst, wireC)
	if want, _ := Decode(wireC); err != nil || !identical(got, want) {
		t.Fatalf("DecodeInto(C) after the failure = %+v, %v; Decode(C) = %+v", got, err, want)
	}
	for i, slot := range dst[:cap(dst)][len(got):] {
		if !isZero(&slot) {
			t.Errorf("slot %d behind C still reaches %+v", len(got)+i, slot)
		}
	}
}

// TestRefillKeepsArrayStorage: a slot's REAL or INTEGER array is storage that
// carries one list after another, like the slot, whether the list is decoded
// (DecodeInto) or copied (CopyInto).  A list whose array fits is written into
// the same backing array, whichever array kind either is; a shorter one leaves
// the array zero past its new length, so reslicing up to cap reaches nothing
// of the list before; a slot that now holds a scalar reaches no array; the
// slots after the list are zeroed; an empty array is non-nil; and a copied
// array shares no storage with the list it was copied from.
func TestRefillKeepsArrayStorage(t *testing.T) {
	fill := map[string]func(dst, args []Arg) []Arg{
		"DecodeInto": func(dst, args []Arg) []Arg {
			wire, err := Encode(args)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := DecodeInto(dst, wire)
			if err != nil {
				t.Fatal(err)
			}
			return got
		},
		"CopyInto": CopyInto,
	}
	for name, into := range fill {
		reals, ints := []float64{1, 2, 3, 4, 5}, []int64{6, 7, 8, 9}
		dst := into(make([]Arg, 0, 4), []Arg{Reals(reals), Ints(ints), Reals([]float64{10}), Str("tail")})
		realStore, intStore := &dst[0].RealArray[0], &dst[1].IntArray()[0]
		if name == "CopyInto" && (realStore == &reals[0] || intStore == &ints[0]) {
			t.Fatalf("%s: the list's arrays are the caller's", name)
		}

		// Shorter arrays of the same kinds, a scalar over the third slot, and
		// nothing in the fourth.
		got := into(dst, []Arg{Reals([]float64{11, 12}), Ints([]int64{13}), Int(14)})
		if &got[0].RealArray[0] != realStore || &got[1].IntArray()[0] != intStore {
			t.Errorf("%s: an array that fits was not refilled in place", name)
		}
		if r := got[0].RealArray; !slices.Equal(r, []float64{11, 12}) || !slices.Equal(r[:cap(r)], []float64{11, 12, 0, 0, 0}) {
			t.Errorf("%s: the refilled REAL array reads %v, up to cap %v", name, r, r[:cap(r)])
		}
		if i := got[1].IntArray(); !slices.Equal(i, []int64{13}) || !slices.Equal(i[:cap(i)], []int64{13, 0, 0, 0}) {
			t.Errorf("%s: the refilled INTEGER array reads %v, up to cap %v", name, i, i[:cap(i)])
		}
		if !identical(got[2:3], []Arg{Int(14)}) {
			t.Errorf("%s: the slot that became a scalar holds %+v", name, got[2])
		}
		if tail := got[:cap(got)][3]; !isZero(&tail) {
			t.Errorf("%s: the slot after the list holds %+v", name, tail)
		}

		// The other array kind over each array is refilled in the same
		// storage, zero past its new length.
		got = into(got, []Arg{Ints([]int64{15}), Reals([]float64{16})})
		if i := got[0].IntArray(); &i[0] != (*int64)(unsafe.Pointer(realStore)) || !slices.Equal(i[:cap(i)], []int64{15, 0, 0, 0, 0}) {
			t.Errorf("%s: an INTEGER array over a REAL one reads %v up to cap, at %p, want storage %p", name, i[:cap(i)], &i[0], realStore)
		}
		if r := got[1].RealArray; &r[0] != (*float64)(unsafe.Pointer(intStore)) || !slices.Equal(r[:cap(r)], []float64{16, 0, 0, 0}) {
			t.Errorf("%s: a REAL array over an INTEGER one reads %v up to cap, at %p, want storage %p", name, r[:cap(r)], &r[0], intStore)
		}

		// Then empty arrays.
		got = into(got, []Arg{Ints(nil), Reals(nil), Reals([]float64{})})
		for i, a := range got {
			if a.RealArray == nil || len(a.RealArray) != 0 {
				t.Errorf("%s: empty array %d reads %+v, want a non-nil empty array", name, i, a)
			}
		}
		if a := got[0].IntArray(); cap(a) > 0 && a[:cap(a)][0] != 0 {
			t.Errorf("%s: an emptied array still holds %v", name, a[:cap(a)])
		}
	}
}

func TestArgKindString(t *testing.T) {
	kinds := []ArgKind{KindInteger, KindReal, KindLogical, KindCharacter, KindTaskID, KindWindow, KindIntArray, KindRealArray}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if ArgKind(0).String() == "" || ArgKind(200).String() == "" {
		t.Fatal("unknown kinds should still produce a diagnostic name")
	}
}

func TestEqualDistinguishesValues(t *testing.T) {
	if Equal(Int(1), Int(2)) {
		t.Error("Equal(1,2)")
	}
	if Equal(Int(1), Real(1)) {
		t.Error("different kinds compared equal")
	}
	if !Equal(Real(math.NaN()), Real(math.NaN())) {
		t.Error("NaN payloads should compare equal for round-trip checks")
	}
	if Equal(Ints([]int64{1, 2}), Ints([]int64{1, 3})) {
		t.Error("different int arrays compared equal")
	}
	if Equal(Ints([]int64{1, 2}), Ints([]int64{1})) {
		t.Error("different length arrays compared equal")
	}
	if Equal(Reals([]float64{1}), Reals([]float64{2})) {
		t.Error("different real arrays compared equal")
	}
	if !Equal(Str("a"), Str("a")) || Equal(Str("a"), Str("b")) {
		t.Error("string equality wrong")
	}
	if Equal(Logical(true), Logical(false)) {
		t.Error("logical equality wrong")
	}
	w1 := Window(WindowValue{ArrayID: 1})
	w2 := Window(WindowValue{ArrayID: 2})
	if Equal(w1, w2) {
		t.Error("window equality wrong")
	}
	t1 := TaskID(TaskIDValue{Cluster: 1})
	t2 := TaskID(TaskIDValue{Cluster: 2})
	if Equal(t1, t2) {
		t.Error("taskid equality wrong")
	}
}

// Property: scalar arguments always round-trip through Encode/Decode.
func TestQuickScalarRoundTrip(t *testing.T) {
	f := func(i int64, r float64, l bool, s string, c, sl, u int32) bool {
		args := []Arg{
			Int(i), Real(r), Logical(l), Str(s),
			TaskID(TaskIDValue{Cluster: c, Slot: sl, Unique: u}),
		}
		data, err := Encode(args)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil || len(got) != len(args) {
			return false
		}
		for i := range args {
			if !Equal(args[i], got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: arrays round-trip and the encoded size grows monotonically with
// the number of array elements.
func TestQuickArrayRoundTripAndSize(t *testing.T) {
	f := func(ints []int64, reals []float64) bool {
		args := []Arg{Ints(ints), Reals(reals)}
		data, err := Encode(args)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil || !Equal(got[0], args[0]) || !Equal(got[1], args[1]) {
			return false
		}
		small, err1 := EncodedSize([]Arg{Ints(ints)})
		larger, err2 := EncodedSize([]Arg{Ints(append([]int64{0, 0, 0, 0}, ints...))})
		return err1 == nil && err2 == nil && larger > small
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEncodeDecode prices the codec on sampleArgs, every kind once, and
// on reals512, the one 512-REAL array of a 4 KiB bulk message, encoded into
// and decoded into reused storage the way a pooled message is.
func BenchmarkEncodeDecode(b *testing.B) {
	b.Run("sample", func(b *testing.B) {
		args := sampleArgs()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := Encode(args)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reals512", func(b *testing.B) {
		vals := make([]float64, 512)
		for i := range vals {
			vals[i] = float64(i) + 0.5
		}
		args := []Arg{Reals(vals)}
		var buf []byte
		var dst []Arg
		b.ReportAllocs()
		b.SetBytes(int64(8 * len(vals)))
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = AppendEncode(buf[:0], args); err != nil {
				b.Fatal(err)
			}
			if dst, _, err = DecodeInto(dst, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestArrayPayloadLayout pins an INTEGER or REAL array's payload: its
// elements as 8-byte little-endian words, everything around them big-endian.
// A payload walked in place out of a read buffer sits at any offset, and it
// decodes the same at each; and the word-at-a-time path a big-endian host
// takes writes and reads the same bytes as the one copy of this host.
func TestArrayPayloadLayout(t *testing.T) {
	const want = "0002" +
		"07" + "00000010" + "0100000000000000" + "feffffffffffffff" +
		"08" + "00000008" + "000000000000f83f"
	args := []Arg{Ints([]int64{1, -2}), Reals([]float64{1.5})}
	data, err := Encode(args)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("Encode = %s, want %s", got, want)
	}
	raw, _ := hex.DecodeString(want)
	back, err := Decode(raw)
	if err != nil || !identical(back, args) {
		t.Fatalf("Decode(%s) = %+v, %v; want %+v", want, back, err, args)
	}

	ints := make([]int64, 37)
	reals := make([]float64, 29)
	for i := range ints {
		ints[i] = int64(i-18) * 0x0102030405060708
	}
	for i := range reals {
		reals[i] = math.Ldexp(float64(i)-14.25, i)
	}
	reals[3], reals[4] = math.NaN(), math.Copysign(0, -1)
	big := []Arg{Int(7), Ints(ints), Str("odd"), Reals(reals), Ints([]int64{}), Logical(true)}
	enc, err := Encode(big)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < 8; off++ {
		buf := make([]byte, off+len(enc)+8)
		copy(buf[off:], enc)
		got, err := Decode(buf[off : off+len(enc)])
		if err != nil || !identical(got, big) {
			t.Fatalf("offset %d: Decode = %+v, %v; want %+v", off, got, err, big)
		}
	}
	checkPortableWords(t, big)
	checkPortableWords(t, args)
}

// checkPortableWords holds the word-at-a-time path to the one this host
// takes, for every array in args: appendWordsPortable writes the bytes
// appendWords does, each element little-endian, and putWordsPortable reads
// them back into the same memory image putWords does.
func checkPortableWords(t *testing.T, args []Arg) {
	t.Helper()
	for i := range args {
		var img, ref []byte
		switch a := &args[i]; a.Kind {
		case KindIntArray:
			img = wordBytes(a.RealArray)
			for _, v := range a.IntArray() {
				ref = binary.LittleEndian.AppendUint64(ref, uint64(v))
			}
		case KindRealArray:
			img = wordBytes(a.RealArray)
			for _, v := range a.RealArray {
				ref = binary.LittleEndian.AppendUint64(ref, math.Float64bits(v))
			}
		default:
			continue
		}
		fast, portable := appendWords(nil, img), appendWordsPortable(nil, img)
		if !bytes.Equal(fast, ref) || !bytes.Equal(portable, ref) {
			t.Fatalf("argument %d: appendWords %x, appendWordsPortable %x, want %x", i, fast, portable, ref)
		}
		viaCopy, viaLoop := make([]byte, len(img)), make([]byte, len(img))
		putWords(viaCopy, ref)
		putWordsPortable(viaLoop, ref)
		if !bytes.Equal(viaCopy, img) || !bytes.Equal(viaLoop, img) {
			t.Fatalf("argument %d: putWords %x, putWordsPortable %x, want the image %x", i, viaCopy, viaLoop, img)
		}
	}
}

// TestDecodeTaskIDTrailingGarbage: a top-level TASKID argument whose payload
// is longer than 12 bytes used to decode successfully with the tail silently
// ignored; it must be rejected like every other fixed-size kind.
func TestDecodeTaskIDTrailingGarbage(t *testing.T) {
	good, err := Encode([]Arg{TaskID(TaskIDValue{Cluster: 1, Slot: 2, Unique: 3})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(good); err != nil {
		t.Fatalf("well-formed TASKID rejected: %v", err)
	}
	// Grow the payload by 4 garbage bytes and patch the length field
	// (layout: uint16 count, uint8 kind, uint32 length, payload).
	bad := append(append([]byte{}, good...), 0xde, 0xad, 0xbe, 0xef)
	bad[3], bad[4], bad[5], bad[6] = 0, 0, 0, 16
	if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode with 16-byte TASKID payload = %v, want ErrCorrupt", err)
	}
	// A WINDOW payload embeds a 12-byte TASKID and must keep decoding.
	win, err := Encode([]Arg{Window(WindowValue{Owner: TaskIDValue{Cluster: 2, Slot: 1, Unique: 7}, ArrayID: 1})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(win); err != nil {
		t.Fatalf("WINDOW with embedded TASKID rejected: %v", err)
	}
}

// TestEncodeTooManyArgs: more than 65535 arguments used to wrap the uint16
// count field, producing a buffer that decoded to the wrong argument list.
func TestEncodeTooManyArgs(t *testing.T) {
	args := make([]Arg, MaxArgs+1)
	for i := range args {
		args[i] = Logical(true)
	}
	if _, err := Encode(args); !errors.Is(err, ErrTooManyArgs) {
		t.Fatalf("Encode(%d args) = %v, want ErrTooManyArgs", len(args), err)
	}
	if _, err := Encode(args[:MaxArgs]); err != nil {
		t.Fatalf("Encode(%d args) should fit the count field: %v", MaxArgs, err)
	}
}
