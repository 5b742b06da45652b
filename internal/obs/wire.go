package obs

import (
	"fmt"

	"repro/internal/msgcodec"
)

// Snapshot wire format: the blob a follower node attaches to its drain acks
// so the coordinator can merge a cluster-wide view.  Big-endian, versioned,
// and emitted in sorted name order so the encoding of a deterministic run is
// byte-stable.
//
//	u8  version (snapWireVersion)
//	u32 nCounters { u16-len name, i64 value }...
//	u32 nGauges   { u16-len name, i64 value }...
//	u32 nHists    { u16-len name, u16-len unit,
//	                i64 zeros, i64 count, i64 sum, i64 max,
//	                u32 nBuckets { u8 index, i64 count }... }...

const snapWireVersion = 1

// Encode serialises the snapshot.
func (s *Snapshot) Encode() []byte {
	b := msgcodec.AppendU32([]byte{snapWireVersion}, uint32(len(s.Counters)))
	for _, c := range s.Counters {
		b = msgcodec.AppendI64(msgcodec.AppendStr16(b, c.Name), c.Value)
	}
	b = msgcodec.AppendU32(b, uint32(len(s.Gauges)))
	for _, g := range s.Gauges {
		b = msgcodec.AppendI64(msgcodec.AppendStr16(b, g.Name), g.Value)
	}
	b = msgcodec.AppendU32(b, uint32(len(s.Hists)))
	for _, h := range s.Hists {
		b = msgcodec.AppendStr16(msgcodec.AppendStr16(b, h.Name), h.Unit)
		for _, v := range [...]int64{h.Zeros, h.Count, h.Sum, h.Max} {
			b = msgcodec.AppendI64(b, v)
		}
		b = msgcodec.AppendU32(b, uint32(len(h.Buckets)))
		for _, bk := range h.Buckets {
			b = msgcodec.AppendI64(append(b, bk.Index), bk.Count)
		}
	}
	return b
}

// DecodeSnapshot reverses Encode.  Every failure wraps msgcodec.ErrCorrupt.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	c := msgcodec.NewCursor(b)
	wireVersion(&c, "snapshot", snapWireVersion)
	s := &Snapshot{}
	for n := c.Count(2 + 8); n > 0; n-- {
		s.Counters = append(s.Counters, CounterSnap{Name: c.Str16(), Value: c.I64()})
	}
	for n := c.Count(2 + 8); n > 0; n-- {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: c.Str16(), Value: c.I64()})
	}
	for n := c.Count(2 + 2 + 4*8 + 4); n > 0; n-- {
		h := HistSnap{Name: c.Str16(), Unit: c.Str16(), Zeros: c.I64(), Count: c.I64(), Sum: c.I64(), Max: c.I64()}
		for nb := c.Count(1 + 8); nb > 0; nb-- {
			h.Buckets = append(h.Buckets, BucketSnap{Index: c.U8(), Count: c.I64()})
		}
		s.Hists = append(s.Hists, h)
	}
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("obs: snapshot blob: %w", err)
	}
	return s, nil
}

// wireVersion reads a blob's leading version byte and fails the cursor on
// any other than want.
func wireVersion(c *msgcodec.Cursor, what string, want uint8) {
	if v := c.U8(); c.Err() == nil && v != want {
		c.Fail(fmt.Errorf("%w: %s wire version %d, want %d", msgcodec.ErrCorrupt, what, v, want))
	}
}
