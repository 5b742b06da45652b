package msgcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, []byte("hello frames"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p, 0); err != nil {
			t.Fatalf("write %d bytes: %v", len(p), err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

// TestFrameSizeBoundary pins a writer's maximum exactly: a payload of max
// bytes is written and read back, max+1 is ErrCorrupt on write.
func TestFrameSizeBoundary(t *testing.T) {
	const max = 1024
	var buf bytes.Buffer
	atMax := make([]byte, max)
	if err := WriteFrame(&buf, atMax, max); err != nil {
		t.Fatalf("write at max: %v", err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("read at max: %v", err)
	}
	if len(got) != max {
		t.Fatalf("read %d bytes, want %d", len(got), max)
	}

	if err := WriteFrame(&buf, make([]byte, max+1), max); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("write over max: got %v, want ErrCorrupt", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized write left %d bytes in the stream", buf.Len())
	}
}

// TestFrameRejectsOversizedPrefixBeforeAllocating forges a length prefix
// claiming ~4 GiB with no payload behind it: the reader must fail with
// ErrCorrupt from the prefix alone (an allocation of that size would OOM
// long before io.ReadFull noticed the missing bytes).
func TestFrameRejectsOversizedPrefixBeforeAllocating(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 0xFFFF_FFF0)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}

	// One past the maximum is enough to trip it, too.
	binary.BigEndian.PutUint32(hdr[:], MaxFrameBytes+1)
	_, err = ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("prefix MaxFrameBytes+1: got %v, want ErrCorrupt", err)
	}
}

// TestFrameTruncatedPayload distinguishes a mid-frame stream end from a
// clean one.
func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("abcdef"), 0); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated payload: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// appendFrame appends one frame holding payload to batch through the
// sender's path, BeginFrame and EndFrame.
func appendFrame(tb testing.TB, batch, payload []byte) []byte {
	tb.Helper()
	batch, start := BeginFrame(batch)
	batch, err := EndFrame(append(batch, payload...), start, 0)
	if err != nil {
		tb.Fatalf("EndFrame of %d payload bytes: %v", len(payload), err)
	}
	return batch
}

// TestBatchFraming covers the batch helpers against the streaming reader:
// frames written with BeginFrame/EndFrame come back in order through both
// NextFrame and ReadFrame (a batch IS the stream bytes).
func TestBatchFraming(t *testing.T) {
	payloads := [][]byte{{}, {7}, []byte("batched frame"), bytes.Repeat([]byte{0xCD}, 1000)}
	var batch []byte
	var err error
	for _, p := range payloads {
		batch = appendFrame(t, batch, p)
	}

	rest := batch
	for i, want := range payloads {
		var got []byte
		got, rest, err = NextFrame(rest, 0)
		if err != nil {
			t.Fatalf("NextFrame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, _, err = NextFrame(rest, 0); err != io.EOF {
		t.Fatalf("end of batch: got %v, want io.EOF", err)
	}

	r := bytes.NewReader(batch)
	for i, want := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame %d from batch: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("streamed frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
}

// TestBatchBoundaryAtCapacity pins the boundary case the transport's writer
// hits when frames exactly fill the batch buffer: a batch built to precisely
// its capacity splits cleanly, with the last frame ending exactly at the
// buffer's end (no trailing bytes, no truncation error).
func TestBatchBoundaryAtCapacity(t *testing.T) {
	const capacity = 256
	batch := make([]byte, 0, capacity)
	var err error
	// Frames of payload size 28 occupy exactly 32 bytes each: 8 of them fill
	// the 256-byte buffer to the brim.
	payload := bytes.Repeat([]byte{0x5A}, 28)
	for len(batch) < capacity {
		batch = appendFrame(t, batch, payload)
	}
	if len(batch) != capacity || cap(batch) != capacity {
		t.Fatalf("batch is %d/%d bytes, want exactly %d (the append must not have grown the buffer)", len(batch), cap(batch), capacity)
	}
	n := 0
	for rest := batch; ; n++ {
		var got []byte
		got, rest, err = NextFrame(rest, 0)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("frame %d corrupted", n)
		}
	}
	if n != capacity/32 {
		t.Fatalf("split %d frames, want %d", n, capacity/32)
	}
}

// TestBatchOversizedFrame: EndFrame must reject a payload over the maximum
// and truncate the partial frame away so the batch stays well-formed, and
// NextFrame must reject an oversized prefix without touching the payload.
func TestBatchOversizedFrame(t *testing.T) {
	const max = 64
	batch := appendFrame(t, nil, []byte("ok"))
	good := len(batch)

	batch, start := BeginFrame(batch)
	batch = append(batch, make([]byte, max+1)...)
	batch, err := EndFrame(batch, start, max)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("EndFrame over max: got %v, want ErrCorrupt", err)
	}
	if len(batch) != good {
		t.Fatalf("EndFrame left %d bytes, want the batch truncated back to %d", len(batch), good)
	}

	// The surviving batch still splits cleanly.
	payload, rest, err := NextFrame(batch, max)
	if err != nil || string(payload) != "ok" || len(rest) != 0 {
		t.Fatalf("batch after rejected frames: payload %q rest %d err %v", payload, len(rest), err)
	}

	// An oversized prefix inside a batch is corruption, as is a batch that
	// ends mid-frame or mid-prefix.
	big := appendFrame(t, nil, make([]byte, max+1))
	if _, _, err := NextFrame(big, max); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized prefix: got %v, want ErrCorrupt", err)
	}
	if _, _, err := NextFrame(big[:len(big)-1], 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("batch ending mid-frame: got %v, want ErrCorrupt", err)
	}
	if _, _, err := NextFrame(big[:2], 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("batch ending mid-prefix: got %v, want ErrCorrupt", err)
	}
}

// TestScanFramesBoundaries walks the receive scanner over the places a socket
// read can stop: inside a length prefix, exactly on a frame's last byte, before
// a frame larger than the buffer has arrived, and across zero-length frames.
func TestScanFramesBoundaries(t *testing.T) {
	var stream []byte
	for _, p := range [][]byte{[]byte("abc"), {}, {}, bytes.Repeat([]byte{7}, 100)} {
		stream = appendFrame(t, stream, p)
	}
	ends := []int{7, 11, 15, len(stream)} // where each frame ends
	for cut := 0; cut <= len(stream); cut++ {
		whole, frames, need, err := ScanFrames(stream[:cut], 0)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantWhole, wantFrames := 0, 0
		for _, e := range ends {
			if e <= cut {
				wantWhole, wantFrames = e, wantFrames+1
			}
		}
		wantNeed := 0
		switch tail := cut - wantWhole; {
		case tail == 0:
		case tail < frameLenBytes:
			wantNeed = frameLenBytes // the prefix itself is split across two reads
		default:
			wantNeed = ends[wantFrames] - wantWhole
		}
		if whole != wantWhole || frames != wantFrames || need != wantNeed {
			t.Fatalf("cut %d: whole %d frames %d need %d, want %d %d %d", cut, whole, frames, need, wantWhole, wantFrames, wantNeed)
		}
		checkScanAgainstReader(t, stream[:cut], 0)
	}

	// A frame larger than the buffer: the prefix alone says how much room it
	// takes, long before the bytes are there.
	big := appendFrame(t, nil, make([]byte, 1<<20))
	if whole, frames, need, err := ScanFrames(big[:64<<10], 0); whole != 0 || frames != 0 || need != len(big) || err != nil {
		t.Fatalf("64 KiB of a 1 MiB frame: whole %d frames %d need %d err %v, want 0 0 %d nil", whole, frames, need, err, len(big))
	}
}

// TestScanFramesRejectsOversizedPrefix: a prefix one past the maximum is
// ErrCorrupt after the sound frames before it, and nothing is sized from it.
func TestScanFramesRejectsOversizedPrefix(t *testing.T) {
	stream := appendFrame(t, nil, []byte("ok"))
	stream = binary.BigEndian.AppendUint32(stream, MaxFrameBytes+1)
	whole, frames, need, err := ScanFrames(stream, 0)
	if !errors.Is(err, ErrCorrupt) || whole != 6 || frames != 1 || need != 0 {
		t.Fatalf("whole %d frames %d need %d err %v, want 6 1 0 ErrCorrupt", whole, frames, need, err)
	}
	if _, _, _, err := ScanFrames(binary.BigEndian.AppendUint32(nil, MaxFrameBytes), 0); err != nil {
		t.Fatalf("a prefix of exactly MaxFrameBytes: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		_, _, _, _ = ScanFrames(stream, 0)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 1024 {
		t.Fatalf("refusing the prefix allocated %d bytes a call: something was sized from it", per)
	}
}
