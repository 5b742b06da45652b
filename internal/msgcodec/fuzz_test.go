package msgcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"
)

// FuzzCodec is the wire-format round-trip target: for arbitrary bytes, Decode
// must never panic; whenever Decode succeeds, re-encoding the decoded
// arguments and decoding again must reproduce the same argument list
// (Decode∘Encode is the identity on everything Decode accepts).  And storage
// that has carried another list changes nothing: DecodeInto over a dirty dst
// fails with the same class of error as Decode or returns an identical list,
// of which nothing past its end reaches the dirty lists (zeroTail), and the
// packet-model size it returns is EncodedSize of that list (the
// receiver charges the message with it instead of walking the list again).
// Every array it decodes is moved the same by the word-at-a-time path of a
// big-endian host as by this host's one copy (checkPortableWords).
// Seeded from sampleArgs so the interesting kinds — TASKID, WINDOW, arrays —
// are all on the initial frontier.
func FuzzCodec(f *testing.F) {
	if seed, err := Encode(sampleArgs()); err == nil {
		f.Add(seed)
	}
	for _, a := range sampleArgs() {
		if one, err := Encode([]Arg{a}); err == nil {
			f.Add(one)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, byte(KindTaskID), 0, 0, 0, 16})
	f.Add([]byte{0xFF, 0xFF}) // a count the list cannot hold (TestDecodeRefusesForgedCountBeforeSizing)

	f.Fuzz(func(t *testing.T, data []byte) {
		args, err := Decode(data)
		// Four dirty slots: a shorter list decodes in place, a longer one
		// into a list made for it.  The first holds a long REAL array, which
		// a shorter REAL array refills.
		long := make([]float64, 64)
		for i := range long {
			long[i] = float64(i + 1)
		}
		dirty := append(make([]Arg, 0, 4), Reals(long), sampleArgs()[6], sampleArgs()[10], sampleArgs()[11])
		into, intoSize, errInto := DecodeInto(dirty, data)
		if errors.Is(err, ErrCorrupt) != errors.Is(errInto, ErrCorrupt) || (err == nil) != (errInto == nil) {
			t.Fatalf("Decode = %v, DecodeInto over a dirty dst = %v", err, errInto)
		}
		if err != nil {
			return // corrupt input rejected without panicking: fine
		}
		if !identical(into, args) {
			t.Fatalf("DecodeInto over a dirty dst = %+v, Decode = %+v", into, args)
		}
		if slot, ok := zeroTail(into); !ok {
			t.Fatalf("DecodeInto over a dirty dst left slot %d reaching %+v past the list", slot, into[:cap(into)][slot])
		}
		checkPortableWords(t, args)
		wire, err := Encode(args)
		if err != nil {
			t.Fatalf("Encode of decoded args failed: %v (args %+v)", err, args)
		}
		back, err := Decode(wire)
		if err != nil {
			t.Fatalf("Decode(Encode(x)) failed: %v", err)
		}
		if len(back) != len(args) {
			t.Fatalf("round trip changed argument count: %d -> %d", len(args), len(back))
		}
		for i := range args {
			if !Equal(args[i], back[i]) {
				t.Fatalf("argument %d changed across round trip: %+v -> %+v", i, args[i], back[i])
			}
		}
		if size, err := EncodedSize(args); err != nil || size < HeaderBytes || size != intoSize {
			t.Fatalf("EncodedSize of decodable args = (%d, %v); DecodeInto's size %d", size, err, intoSize)
		}
	})
}

// identical reports whether two lists agree in every field of every slot — not
// only what Kind selects, which is all Equal reads — with words and REALs held
// bit for bit, so a NaN is identical to itself, and an array's nil-ness held
// too.  The pointer field is held by what it points at: a CHARACTER's bytes,
// a WINDOW's fields, and nothing for every other kind.
func identical(a, b []Arg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Kind != y.Kind || x.unique != y.unique || x.word != y.word || !slices.Equal(intsOf(x.RealArray), intsOf(y.RealArray)) ||
			(x.RealArray == nil) != (y.RealArray == nil) {
			return false
		}
		switch {
		case x.Kind == KindCharacter:
			if x.Character() != y.Character() {
				return false
			}
		case x.Kind == KindWindow:
			if x.ptr == nil || y.ptr == nil || x.Window() != y.Window() {
				return false
			}
		case x.ptr != nil || y.ptr != nil:
			return false
		}
	}
	return true
}

// isZero reports whether a is Arg{}, every field of it.
func isZero(a *Arg) bool {
	return a.Kind == 0 && a.unique == 0 && a.word == 0 && a.ptr == nil && a.RealArray == nil
}

// zeroTail reports whether nothing past the list can be reached by
// reslicing up to cap: every array zero past its length and every slot after
// the list zero.  If not, it returns the first slot that reaches something.
func zeroTail(list []Arg) (int, bool) {
	for i := range list[:cap(list)] {
		a := &list[:cap(list)][i]
		if i >= len(list) && !isZero(a) {
			return i, false
		}
		for _, v := range intsOf(a.RealArray[len(a.RealArray):cap(a.RealArray)]) {
			if v != 0 {
				return i, false
			}
		}
	}
	return 0, true
}

// FuzzBatchCodec is the batch-framing round-trip target: NextFrame must
// never panic on arbitrary bytes, and any batch it splits completely must be
// reproduced byte-identically by re-framing the payloads with BeginFrame and
// EndFrame (the framing is canonical, so split∘append is the identity on
// everything NextFrame accepts).  The frames must also come back the same
// through the streaming reader — a batch IS the per-frame wire bytes.  And
// the receive path's scanner must agree with the streaming reader wherever
// the bytes are cut: a socket read stops anywhere (checkScanAgainstReader).
func FuzzBatchCodec(f *testing.F) {
	var seed []byte
	for _, p := range [][]byte{{}, {1}, []byte("frame"), bytes.Repeat([]byte{9}, 300)} {
		seed = appendFrame(f, seed, p)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add([]byte{0, 0, 0, 3, 'a'}) // prefix claims more than the batch holds

	f.Fuzz(func(t *testing.T, data []byte) {
		// Every cut of a short input, a thousand-odd evenly spaced ones of a
		// long one; the small maximum keeps the reference reader from
		// allocating megabytes for a frame that never arrives.
		for cut, step := 0, len(data)/1024+1; cut <= len(data); cut += step {
			checkScanAgainstReader(t, data[:cut], 1<<12)
		}
		checkScanAgainstReader(t, data, 0)

		var payloads [][]byte
		rest := data
		for {
			var p []byte
			var err error
			p, rest, err = NextFrame(rest, 0)
			if err == io.EOF {
				break
			}
			if err != nil {
				return // corrupt batch rejected without panicking: fine
			}
			payloads = append(payloads, p)
		}
		rebuilt := make([]byte, 0, len(data))
		for _, p := range payloads {
			rebuilt = appendFrame(t, rebuilt, p)
		}
		if !bytes.Equal(rebuilt, data) {
			t.Fatalf("split+append changed the batch: %d -> %d bytes", len(data), len(rebuilt))
		}
		r := bytes.NewReader(data)
		for i, want := range payloads {
			got, err := ReadFrame(r)
			if err != nil {
				t.Fatalf("ReadFrame %d of batch stream: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d differs between NextFrame and ReadFrame", i)
			}
		}
	})
}

// checkScanAgainstReader holds ScanFrames to the reference stream reader on
// one byte string: ReadFrame yields exactly the frames the scanner counted,
// in exactly the bytes it called whole, and then stops for the reason the
// scanner gave — a clean end (need 0), a stream that ends inside a frame
// (need = what that frame takes, more than is there) or a forbidden prefix
// (ErrCorrupt).  NextFrame splits the whole prefix without error.  max is
// the scanner's and NextFrame's bound (MaxFrameBytes when max <= 0); the
// reference loop applies a smaller one itself, before ReadFrame sizes a
// buffer from the prefix.
func checkScanAgainstReader(t *testing.T, p []byte, max int) {
	t.Helper()
	whole, frames, need, err := ScanFrames(p, max)
	if whole < 0 || whole > len(p) {
		t.Fatalf("ScanFrames(%d bytes): whole = %d", len(p), whole)
	}
	r := bytes.NewReader(p)
	got, read := 0, 0
	var rerr error
	for {
		if next := p[read:]; max > 0 && len(next) >= frameLenBytes && binary.BigEndian.Uint32(next) > uint32(max) {
			rerr = ErrCorrupt
			break
		}
		payload, e := ReadFrame(r)
		if e != nil {
			rerr = e
			break
		}
		got++
		read += frameLenBytes + len(payload)
	}
	if got != frames || read != whole {
		t.Fatalf("ScanFrames(%d bytes) = %d frames in %d bytes; ReadFrame read %d in %d", len(p), frames, whole, got, read)
	}
	tail := p[whole:]
	switch {
	case rerr == io.EOF:
		if err != nil || need != 0 || len(tail) != 0 {
			t.Fatalf("clean end: ScanFrames need %d, err %v, %d bytes after whole", need, err, len(tail))
		}
	case rerr == io.ErrUnexpectedEOF:
		want := frameLenBytes
		if len(tail) >= frameLenBytes {
			want += int(binary.BigEndian.Uint32(tail))
		}
		if err != nil || need != want || need <= len(tail) {
			t.Fatalf("stream ends inside a frame (%d bytes of it): ScanFrames need %d, err %v; want need %d", len(tail), need, err, want)
		}
	case errors.Is(rerr, ErrCorrupt):
		if !errors.Is(err, ErrCorrupt) || need != 0 {
			t.Fatalf("ReadFrame: %v; ScanFrames need %d, err %v, want ErrCorrupt", rerr, need, err)
		}
	default:
		t.Fatalf("ReadFrame: unexpected error %v", rerr)
	}
	rest := p[:whole]
	for i := 0; i < frames; i++ {
		var e error
		if _, rest, e = NextFrame(rest, max); e != nil {
			t.Fatalf("NextFrame %d of the %d-frame whole prefix: %v", i, frames, e)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes of the whole prefix left after its %d frames", len(rest), frames)
	}
}
