package obs

import (
	"fmt"
	"time"

	"repro/internal/msgcodec"
)

// Trace wire format: the blob a follower node attaches to its drain ack so
// the coordinator can merge every node's spans into one Chrome trace with
// per-node process tracks.  Big-endian, versioned; span order is capture
// order, so the encoding of a deterministic run is byte-stable.
//
//	u8  version (traceWireVersion)
//	u32 nSpans { u16-len lane, u16-len name, i64 start, i64 dur, u64 edge, u8 phase }...
//	i64 dropped

const traceWireVersion = 2

// EncodeTrace serialises a process trace's spans (Pid and Name are the
// receiver's to assign; they do not travel).
func EncodeTrace(p ProcessTrace) []byte {
	b := msgcodec.AppendU32([]byte{traceWireVersion}, uint32(len(p.Spans)))
	for _, s := range p.Spans {
		b = msgcodec.AppendStr16(msgcodec.AppendStr16(b, s.Lane), s.Name)
		b = msgcodec.AppendI64(msgcodec.AppendI64(b, int64(s.Start)), int64(s.Dur))
		b = append(msgcodec.AppendU64(b, s.Edge), s.Phase)
	}
	return msgcodec.AppendI64(b, p.Dropped)
}

// DecodeTrace reverses EncodeTrace.  Every failure wraps msgcodec.ErrCorrupt.
func DecodeTrace(b []byte) (ProcessTrace, error) {
	var p ProcessTrace
	c := msgcodec.NewCursor(b)
	wireVersion(&c, "trace", traceWireVersion)
	for n := c.Count(2 + 2 + 8 + 8 + 8 + 1); n > 0; n-- {
		p.Spans = append(p.Spans, Span{Lane: c.Str16(), Name: c.Str16(), Start: time.Duration(c.I64()), Dur: time.Duration(c.I64()),
			Edge: c.U64(), Phase: c.U8()})
	}
	p.Dropped = c.I64()
	if err := c.Done(); err != nil {
		return ProcessTrace{}, fmt.Errorf("obs: trace blob: %w", err)
	}
	return p, nil
}
