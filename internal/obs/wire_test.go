package obs

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/msgcodec"
)

// Golden blobs: Snapshot.Encode and EncodeTrace of the values below as the
// hand-unrolled codecs of the commit before the wire cursor wrote them (wire
// version 1 each).
const (
	goldenSnapshot = "01000000020009636f72652e6d736773000000000000000c00126e6f64652e6372656469742e7374616c6c73ffffffffffffffff00000001000a686561702e696e75736500000000000010000000000100136e6f64652e62617463682e77726974652e6e7300026e73000000000000000100000000000000050000000000000384000000000000019000000002070000000000000002090000000000000002"
	goldenTrace    = "0100000001000d6e6f64652f312072783c2d6e30000772782070696e67000000000000138800000000000002bc00000002000000deadbeef01000773656e642f6331730000000000000bb8000000deadbeef01000f726f757465722f63323c2d776972656600000000000017700000000000000002"
)

func goldenSnapshotValue() *Snapshot {
	return &Snapshot{
		Counters: []CounterSnap{{Name: "core.msgs", Value: 12}, {Name: "node.credit.stalls", Value: -1}},
		Gauges:   []GaugeSnap{{Name: "heap.inuse", Value: 4096}},
		Hists: []HistSnap{{Name: "node.batch.write.ns", Unit: "ns", Zeros: 1, Count: 5, Sum: 900, Max: 400,
			Buckets: []BucketSnap{{Index: 7, Count: 2}, {Index: 9, Count: 2}}}},
	}
}

func goldenTraceValue() ProcessTrace {
	return ProcessTrace{
		Spans: []Span{{Lane: "node/1 rx<-n0", Name: "rx ping", Start: 5 * time.Microsecond, Dur: 700 * time.Nanosecond}},
		Flows: []Flow{
			{Edge: 0xdeadbeef01, Lane: "send/c1", Phase: FlowStart, TS: 3 * time.Microsecond},
			{Edge: 0xdeadbeef01, Lane: "router/c2<-wire", Phase: FlowEnd, TS: 6 * time.Microsecond},
		},
		Dropped: 2,
	}
}

// TestGoldenObsWire: both drain-ack blobs encode to the parent commit's
// bytes, decode back to the same values, and refuse every proper prefix and
// any trailing byte with an error wrapping msgcodec.ErrCorrupt.
func TestGoldenObsWire(t *testing.T) {
	blobs := []struct {
		name   string
		hex    string
		enc    []byte
		want   any
		decode func([]byte) (any, error)
	}{
		{"snapshot", goldenSnapshot, goldenSnapshotValue().Encode(), goldenSnapshotValue(),
			func(b []byte) (any, error) { return DecodeSnapshot(b) }},
		{"trace", goldenTrace, EncodeTrace(goldenTraceValue()), goldenTraceValue(),
			func(b []byte) (any, error) { return DecodeTrace(b) }},
	}
	for _, g := range blobs {
		raw, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.enc, raw) {
			t.Errorf("%s: encoding drifted:\ngot  %x\nwant %s", g.name, g.enc, g.hex)
		}
		if got, err := g.decode(raw); err != nil || !reflect.DeepEqual(got, g.want) {
			t.Errorf("%s: decoded %+v (%v), want %+v", g.name, got, err, g.want)
		}
		for n := 0; n < len(raw); n++ {
			if _, err := g.decode(raw[:n]); !errors.Is(err, msgcodec.ErrCorrupt) {
				t.Fatalf("%s: %d-byte prefix of %d: %v, want an ErrCorrupt", g.name, n, len(raw), err)
			}
		}
		if _, err := g.decode(append(raw, 0)); !errors.Is(err, msgcodec.ErrCorrupt) {
			t.Fatalf("%s: trailing byte: %v, want an ErrCorrupt", g.name, err)
		}
		raw[0] = 2
		if _, err := g.decode(raw); !errors.Is(err, msgcodec.ErrCorrupt) {
			t.Fatalf("%s: wire version 2: %v, want an ErrCorrupt", g.name, err)
		}
	}
}

// FuzzObsWire: a follower's stats and trace blobs arrive on a drain ack from
// another process; arbitrary bytes decode or fail with an ErrCorrupt, never
// panic, and whatever decodes re-encodes to the bytes it came from.
func FuzzObsWire(f *testing.F) {
	for _, s := range []string{goldenSnapshot, goldenTrace} {
		raw, err := hex.DecodeString(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := DecodeSnapshot(data); err == nil {
			if again := s.Encode(); !bytes.Equal(again, data) {
				t.Fatalf("snapshot re-encodes to %x, input %x", again, data)
			}
		} else if !errors.Is(err, msgcodec.ErrCorrupt) {
			t.Fatalf("snapshot: error %v does not wrap ErrCorrupt", err)
		}
		if p, err := DecodeTrace(data); err == nil {
			if again := EncodeTrace(p); !bytes.Equal(again, data) {
				t.Fatalf("trace re-encodes to %x, input %x", again, data)
			}
		} else if !errors.Is(err, msgcodec.ErrCorrupt) {
			t.Fatalf("trace: error %v does not wrap ErrCorrupt", err)
		}
	})
}
