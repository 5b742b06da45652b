package msgcodec

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Stream framing for the distributed node transport (internal/node): each
// frame is a 4-byte big-endian length prefix followed by that many payload
// bytes.  The payload is a node-protocol frame whose message bodies are the
// same msgcodec encoding the in-process routers move between heap shards —
// the wire format of Section 11's header-plus-packets model, carried over a
// socket instead of the FLEX/32 shared-memory bus.
//
// The length prefix is validated against a maximum BEFORE any allocation:
// a corrupt or malicious peer that sends an absurd length must produce
// ErrCorrupt, not a multi-gigabyte allocation that OOMs the node.

// MaxFrameBytes is the default upper bound on one frame's payload.  It
// comfortably holds the largest message the codec itself can produce for
// sane argument lists (the per-message cost model is HeaderBytes plus
// 32-byte packets) while keeping a hostile length prefix from reserving
// unbounded memory.
const MaxFrameBytes = 8 << 20

// frameLenBytes is the size of the length prefix.
const frameLenBytes = 4

// WriteFrame writes one length-prefixed frame.  Payloads larger than max
// (MaxFrameBytes when max <= 0) are rejected with ErrCorrupt: a frame the
// peer is guaranteed to refuse must fail at the sender, where the bug is.
func WriteFrame(w io.Writer, payload []byte, max int) error {
	if max <= 0 {
		max = MaxFrameBytes
	}
	if len(payload) > max {
		return fmt.Errorf("%w: frame payload %d bytes exceeds maximum %d", ErrCorrupt, len(payload), max)
	}
	var hdr [frameLenBytes]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Batch framing.  A batch is simply the concatenation of length-prefixed
// frames in one contiguous buffer: the node transport's writer packs many
// frames into a single buffer and hands it to the kernel in one write, and
// the byte stream stays identical to per-frame writes — a receiver using
// ReadFrame cannot tell coalesced traffic from unbatched traffic.  The
// helpers below are the two halves of the batch path: BeginFrame/EndFrame
// let a sender encode a payload DIRECTLY into the batch buffer (no
// intermediate per-frame allocation — the payload bytes are copied exactly
// once, from their source into the batch); on the receiving side ScanFrames
// finds the batch — the whole frames — in whatever a socket read returned,
// and NextFrame splits it back into payloads in place.

// BeginFrame reserves a length prefix in the batch buffer and returns the
// extended buffer plus the payload start offset.  The caller appends the
// payload bytes and then calls EndFrame with the same offset to backfill the
// prefix.
func BeginFrame(batch []byte) ([]byte, int) {
	batch = append(batch, 0, 0, 0, 0)
	return batch, len(batch)
}

// EndFrame backfills the length prefix reserved by BeginFrame for the
// payload written at batch[payloadStart:].  A payload larger than max
// (MaxFrameBytes when max <= 0) is rejected with ErrCorrupt and the buffer
// is truncated back to the frame start, dropping the partial frame so the
// batch stays well-formed.
func EndFrame(batch []byte, payloadStart int, max int) ([]byte, error) {
	if max <= 0 {
		max = MaxFrameBytes
	}
	n := len(batch) - payloadStart
	if n < 0 || payloadStart < frameLenBytes {
		return batch, fmt.Errorf("%w: EndFrame offset %d outside batch of %d bytes", ErrCorrupt, payloadStart, len(batch))
	}
	if n > max {
		return batch[:payloadStart-frameLenBytes], fmt.Errorf("%w: frame payload %d bytes exceeds maximum %d", ErrCorrupt, n, max)
	}
	binary.BigEndian.PutUint32(batch[payloadStart-frameLenBytes:payloadStart], uint32(n))
	return batch, nil
}

// NextFrame splits the first length-prefixed frame off a batch buffer,
// returning its payload (aliasing batch) and the remaining bytes.  An empty
// batch returns io.EOF; a batch that ends mid-frame or carries an oversized
// prefix returns ErrCorrupt (truncation is corruption here — the batch was
// materialised in memory by a peer, not streamed).
func NextFrame(batch []byte, max int) (payload, rest []byte, err error) {
	if max <= 0 {
		max = MaxFrameBytes
	}
	if len(batch) == 0 {
		return nil, nil, io.EOF
	}
	if len(batch) < frameLenBytes {
		return nil, nil, fmt.Errorf("%w: batch ends inside a length prefix (%d bytes)", ErrCorrupt, len(batch))
	}
	n := binary.BigEndian.Uint32(batch)
	if n > uint32(max) {
		return nil, nil, fmt.Errorf("%w: frame length prefix %d exceeds maximum %d", ErrCorrupt, n, max)
	}
	if uint32(len(batch)-frameLenBytes) < n {
		return nil, nil, fmt.Errorf("%w: frame length prefix %d but only %d payload bytes in batch", ErrCorrupt, n, len(batch)-frameLenBytes)
	}
	return batch[frameLenBytes : frameLenBytes+int(n)], batch[frameLenBytes+int(n):], nil
}

// ScanFrames measures the whole frames at the front of a stream buffer — the
// bytes a receiver has read off a socket so far, which unlike a batch may
// stop anywhere.  It returns how many leading bytes are whole frames (whole;
// NextFrame splits buf[:whole] without error), how many frames that is, and
// the room the unfinished frame after them needs, prefix included: need is 0
// when buf ends on a frame boundary and frameLenBytes while the prefix itself
// is incomplete.  A prefix over max (MaxFrameBytes when max <= 0) is
// ErrCorrupt — whole and frames still describe the sound frames before it —
// so nothing is ever sized from a length the peer is not allowed to send.
func ScanFrames(buf []byte, max int) (whole, frames, need int, err error) {
	if max <= 0 {
		max = MaxFrameBytes
	}
	for {
		tail := buf[whole:]
		if len(tail) < frameLenBytes {
			if len(tail) > 0 {
				need = frameLenBytes
			}
			return whole, frames, need, nil
		}
		n := binary.BigEndian.Uint32(tail)
		if n > uint32(max) {
			return whole, frames, 0, fmt.Errorf("%w: frame length prefix %d exceeds maximum %d", ErrCorrupt, n, max)
		}
		if uint32(len(tail)-frameLenBytes) < n {
			return whole, frames, frameLenBytes + int(n), nil
		}
		whole += frameLenBytes + int(n)
		frames++
	}
}

// ReadFrame reads one length-prefixed frame into a new buffer.  A length
// prefix exceeding MaxFrameBytes is rejected with ErrCorrupt before any
// payload-sized allocation happens.  On a clean end of stream it returns
// io.EOF; a stream that ends mid-frame returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [frameLenBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: frame length prefix %d exceeds maximum %d", ErrCorrupt, n, MaxFrameBytes)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}
