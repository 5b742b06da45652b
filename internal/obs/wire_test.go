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

// Golden blobs of the values below: Snapshot.Encode as the hand-unrolled
// codec of the commit before the wire cursor wrote it (wire version 1), and
// EncodeTrace at wire version 2, where each flow travels on its span.
const (
	goldenSnapshot = "01000000020009636f72652e6d736773000000000000000c00126e6f64652e6372656469742e7374616c6c73ffffffffffffffff00000001000a686561702e696e75736500000000000010000000000100136e6f64652e62617463682e77726974652e6e7300026e73000000000000000100000000000000050000000000000384000000000000019000000002070000000000000002090000000000000002"
	goldenTrace    = "0200000003000773656e642f6331000973656e642070696e670000000000000bb80000000000000190000000deadbeef0173000d6e6f64652f312072783c2d6e30000772782070696e67000000000000138800000000000002bc000000000000000000000f726f757465722f63323c2d77697265000c64656c697665722070696e670000000000001770000000000000012c000000deadbeef01660000000000000002"
	// A version 1 trace blob: one span, then its flows as a second list.
	goldenTraceV1 = "0100000001000d6e6f64652f312072783c2d6e30000772782070696e67000000000000138800000000000002bc00000002000000deadbeef01000773656e642f6331730000000000000bb8000000deadbeef01000f726f757465722f63323c2d776972656600000000000017700000000000000002"
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
		Spans: []Span{
			{Lane: "send/c1", Name: "send ping", Start: 3 * time.Microsecond, Dur: 400 * time.Nanosecond, Edge: 0xdeadbeef01, Phase: FlowStart},
			{Lane: "node/1 rx<-n0", Name: "rx ping", Start: 5 * time.Microsecond, Dur: 700 * time.Nanosecond},
			{Lane: "router/c2<-wire", Name: "deliver ping", Start: 6 * time.Microsecond, Dur: 300 * time.Nanosecond, Edge: 0xdeadbeef01, Phase: FlowEnd},
		},
		Dropped: 2,
	}
}

// TestGoldenObsWire: both drain-ack blobs encode to the golden bytes, decode
// back to the same values, and refuse every proper prefix, any trailing byte
// and any other wire version with an error wrapping msgcodec.ErrCorrupt; so
// is a whole version 1 trace blob.
func TestGoldenObsWire(t *testing.T) {
	blobs := []struct {
		name   string
		hex    string
		enc    []byte
		want   any
		decode func([]byte) (any, error)
		others []byte // wire versions to refuse
	}{
		{"snapshot", goldenSnapshot, goldenSnapshotValue().Encode(), goldenSnapshotValue(),
			func(b []byte) (any, error) { return DecodeSnapshot(b) }, []byte{0, 2}},
		{"trace", goldenTrace, EncodeTrace(goldenTraceValue()), goldenTraceValue(),
			func(b []byte) (any, error) { return DecodeTrace(b) }, []byte{0, 1, 3}},
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
		for _, v := range g.others {
			raw[0] = v
			if _, err := g.decode(raw); !errors.Is(err, msgcodec.ErrCorrupt) {
				t.Fatalf("%s: wire version %d: %v, want an ErrCorrupt", g.name, v, err)
			}
		}
	}
	v1, err := hex.DecodeString(goldenTraceV1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTrace(v1); !errors.Is(err, msgcodec.ErrCorrupt) {
		t.Fatalf("version 1 trace blob: %v, want an ErrCorrupt", err)
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
