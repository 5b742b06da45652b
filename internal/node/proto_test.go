package node

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/msgcodec"
)

// goldenFrame is one row of goldenFrames: hex as the parent commit wrote it,
// enc today's encoder on the same inputs, want what today's decoder must read
// back.
type goldenFrame struct {
	name string
	hex  string
	enc  []byte
	want frame
}

// goldenFrames pins the node protocol byte for byte: one row per frame kind,
// hex captured from the hand-unrolled encoders of the commit before the wire
// cursor and the frame table (protocol version 5).  Version 6 re-captured
// three rows and nothing else: msg and bcast each lost the eight bytes of the
// u64 seq that followed the sender taskid, and hello's version field reads 6.
// Version 7 re-captured the hello row's version field and nothing else: it
// made array elements in a message body little-endian, and no row's body
// carries an array.  Version 8 re-captured the hello row's version field and
// the ckpt row, which carries a u64 log count between its epoch and its
// blob, and pinned two new rows: init-log, which took the restore-plan row's
// kind byte, and init-log-ack.  Version 10 re-captured the hello row's
// version field and the ckpt row, which carries a u32 count of (peer, count,
// gen) mark rows between its log count and its blob, and dropped the
// ckpt-ack row: kind 0x0b is retired.  Version 11 re-captured the hello
// row's version field and the drain-ack row, which lost the idle byte after
// its recv total.
func goldenFrames(t testing.TB) []goldenFrame {
	payload, err := msgcodec.Encode([]msgcodec.Arg{msgcodec.Int(42), msgcodec.Str("hi")})
	if err != nil {
		t.Fatal(err)
	}
	topo := mustPartition(t, []int{1, 2, 3}, 2)
	var fp [32]byte
	for i := range fp {
		fp[i] = byte(i)
	}
	dest := core.TaskID{Cluster: 2, Slot: 3, Unique: 17}
	sender := core.TaskID{Cluster: 1, Slot: 1, Unique: 9}
	h := hello{version: protoVersion, nodeID: 1, fingerprint: fp, topo: topo}
	msg := core.WireFrame{Kind: core.FrameMessage, Src: 1, Dst: 2, Dest: dest, Sender: sender,
		Type: "pisces.initiate", SendSeq: 11, ReplyID: 123, Edge: 0xdeadbeef01, Payload: payload}
	bcast := core.WireFrame{Kind: core.FrameBroadcast, Src: 2, Dst: 0, Sender: core.TaskID{Cluster: 2, Slot: 4, Unique: 5},
		Type: "ping", SendSeq: 12, Edge: 0x0102030405060708, Payload: payload}
	logged := core.LoggedInit{Cluster: 2, Parent: sender, Seq: 11, ID: dest}
	ack := drainAck{from: 1, epoch: 3, sent: 10, recv: 9, stats: []byte{1, 2, 3}, trace: []byte{4, 5}}
	marks := []mark{{peer: 0, count: 77, gen: 4}, {peer: 2, count: 9, gen: 1}}
	return []goldenFrame{
		{"hello", "010000000b00000001000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f0000000200000003000000010000000000000002000000000000000300000001",
			encodeHello(h), frame{kind: fHello, hello: h}},
		{"msg", "020000000100000002000000020000000300000011000000010000000100000009000000000000000b000000000000007b000000deadbeef01000f7069736365732e696e69746961746500020100000008000000000000002a04000000026869",
			encodeWireFrame(nil, &msg), frame{kind: fMsg, msg: &msg}},
		{"bcast", "030000000200000000000000020000000400000005000000000000000c0102030405060708000470696e6700020100000008000000000000002a04000000026869",
			encodeWireFrame(nil, &bcast), frame{kind: fBcast, msg: &bcast}},
		{"init-reply", "04000000000000007b000000020000000300000011",
			encodeInitReply(nil, 123, dest), frame{kind: fInitReply, replyID: 123, id: dest}},
		{"drain", "0500000003", encodeDrain(3), frame{kind: fDrain, count: 3}},
		{"drain-ack", "060000000100000003000000000000000a000000000000000900000003010203000000020405",
			encodeDrainAck(ack), frame{kind: fDrainAck, ack: ack}},
		{"shutdown", "07", []byte{fShutdown}, frame{kind: fShutdown}},
		{"credit", "0800000040", encodeCredit(64), frame{kind: fCredit, count: 64}},
		{"heartbeat", "09000000020000000000000003", encodeHeartbeat(2, 3), frame{kind: fHeartbeat, from: 2, count: 3}},
		{"ckpt", "0a00000001000000000000000500000000000000030000000200000000000000000000004d00000000000000040000000200000000000000090000000000000001090807",
			encodeCkpt(1, 5, 3, marks, []byte{9, 8, 7}), frame{kind: fCkpt, from: 1, epoch: 5, count: 3, marks: marks, blob: []byte{9, 8, 7}}},
		{"ckpt-mark", "0c00000001000000000000004d0000000000000004", encodeMark(1, marks[0]), frame{kind: fCkptMark, from: 1, count: 77, epoch: 4}},
		{"rebalance", "0d0000000200000001", encodeRebalance(fRebalance, 2, 1), frame{kind: fRebalance, dead: 2, buddy: 1}},
		{"rebalance-ready", "0e0000000200000001", encodeRebalance(fRebalanceReady, 2, 1), frame{kind: fRebalanceReady, dead: 2, buddy: 1}},
		{"init-log", "0f00000001000000000000000400000002000000010000000100000009000000000000000b000000020000000300000011",
			encodeInitLog(1, 4, logged), frame{kind: fInitLog, from: 1, count: 4, logged: logged}},
		{"init-log-ack", "10000000020000000000000004", encodeFromCount(fInitLogAck, 2, 4), frame{kind: fInitLogAck, from: 2, count: 4}},
	}
}

// assignedKinds returns the kind bytes frameTable has a row for.
func assignedKinds() []byte {
	var kinds []byte
	for k := 1; k < len(frameTable); k++ {
		if frameTable[k].decode != nil {
			kinds = append(kinds, byte(k))
		}
	}
	return kinds
}

// goldenTopology is Partition([1 2 3], 2).appendTo(nil) at the same commit.
const goldenTopology = "0000000200000003000000010000000000000002000000000000000300000001"

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenFrames is the byte-compatibility net under the codec rewrite:
// every kind has a golden row, named as its table row is; the encoders
// reproduce the parent commit's bytes and the decoders read the values back.
func TestGoldenFrames(t *testing.T) {
	rows := goldenFrames(t)
	if kinds := len(assignedKinds()); len(rows) != kinds {
		t.Fatalf("%d golden rows for %d frame kinds", len(rows), kinds)
	}
	for _, g := range rows {
		raw := unhex(t, g.hex)
		if name := frameTable[raw[0]].name; name != g.name {
			t.Errorf("golden row %q is kind 0x%02x, which the table calls %q", g.name, raw[0], name)
		}
		if !bytes.Equal(g.enc, raw) {
			t.Errorf("%s: encoder drifted from the golden bytes:\ngot  %x\nwant %s", g.name, g.enc, g.hex)
		}
		var got frame
		if _, err := decodeFrame(&got, raw); err != nil {
			t.Errorf("%s: decode: %v", g.name, err)
		} else if !reflect.DeepEqual(got, g.want) {
			t.Errorf("%s: decoded\n%+v\nwant\n%+v", g.name, got, g.want)
		}
	}
	topo := mustPartition(t, []int{1, 2, 3}, 2)
	if got := hex.EncodeToString(topo.appendTo(nil)); got != goldenTopology {
		t.Errorf("topology encoding drifted: %s, want %s", got, goldenTopology)
	}
	c := msgcodec.NewCursor(unhex(t, goldenTopology))
	if got := decodeTopology(&c); c.Done() != nil || !got.Equal(topo) {
		t.Errorf("golden topology decoded to %s (%v), want %s", got, c.Done(), topo)
	}
	// The fingerprint hashes the topology's wire form; its value for a fixed
	// input is part of the handshake's compatibility surface.
	const wantFP = "244d8ea85eaeff84868cfff29c3a9fda2329c3cb86d2dd347b509e30f984f64f"
	if fp := Fingerprint(config.Simple(3, 4), topo, "src"); hex.EncodeToString(fp[:]) != wantFP {
		t.Errorf("fingerprint drifted: %x, want %s", fp, wantFP)
	}
}

// TestWireFrameRoundTrip pins the frame layout: every header field and the
// payload survive encode/decode for both data kinds.
func TestWireFrameRoundTrip(t *testing.T) {
	for _, g := range goldenFrames(t)[1:3] {
		f := *g.want.msg
		var got frame
		if _, err := decodeFrame(&got, encodeWireFrame(nil, &f)); err != nil {
			t.Fatalf("%v: decode: %v", f.Kind, err)
		}
		if f.SendSeq == 0 || f.Edge == 0 {
			t.Fatalf("%s: SendSeq/Edge unset in the sample; the comparison would be vacuous", g.name)
		}
		if !reflect.DeepEqual(*got.msg, f) {
			t.Fatalf("frame mismatch:\ngot  %+v\nwant %+v", got.msg, f)
		}
	}
}

// TestProtoRejectsTruncation: every decoder must fail cleanly (no panic, no
// garbage) on every proper prefix of a valid frame — a peer can die
// mid-write — with an error wrapping msgcodec.ErrCorrupt.  fMsg, fBcast and
// fCkpt end in an opaque tail that is theirs to the last byte, so their
// prefixes are only required to fail while the fixed header is incomplete.
func TestProtoRejectsTruncation(t *testing.T) {
	for _, g := range goldenFrames(t) {
		raw := unhex(t, g.hex)
		opaqueTail := len(g.want.blob)
		if g.want.msg != nil {
			opaqueTail += len(g.want.msg.Payload)
		}
		for n := 0; n < len(raw)-opaqueTail; n++ {
			var m frame
			_, err := decodeFrame(&m, raw[:n])
			if err == nil {
				t.Fatalf("%s: %d-byte prefix of %d decoded", g.name, n, len(raw))
			}
			if !errors.Is(err, msgcodec.ErrCorrupt) {
				t.Fatalf("%s: %d-byte prefix: error %v does not wrap ErrCorrupt", g.name, n, err)
			}
		}
		if opaqueTail == 0 {
			var m frame
			if _, err := decodeFrame(&m, append(raw, 0)); !errors.Is(err, msgcodec.ErrCorrupt) {
				t.Fatalf("%s: a trailing byte decoded (%v)", g.name, err)
			}
		}
	}
	raw := unhex(t, goldenTopology)
	for n := 0; n < len(raw); n++ {
		c := msgcodec.NewCursor(raw[:n])
		decodeTopology(&c)
		if !errors.Is(c.Done(), msgcodec.ErrCorrupt) {
			t.Fatalf("%d-byte topology prefix decoded (%v)", n, c.Done())
		}
	}
	// A forged topology count must be rejected by comparing against the
	// bytes actually present, BEFORE sizing any allocation: the handshake
	// runs pre-authentication, so this is the same attack surface as an
	// oversized frame length prefix.
	c := msgcodec.NewCursor(msgcodec.AppendU32(msgcodec.AppendU32(nil, 2), 0xFFFF_FFF0))
	if decodeTopology(&c); !errors.Is(c.Err(), msgcodec.ErrCorrupt) {
		t.Fatal("forged topology count decoded")
	}
}

// TestMalformedFrameLogged: a frame of any kind that fails to decode leaves
// exactly one diagnostic naming the kind and the sending node, and reaches no
// handler (the bare Node below would crash in one).
func TestMalformedFrameLogged(t *testing.T) {
	for _, g := range goldenFrames(t) {
		raw := unhex(t, g.hex)
		bad := raw[:len(raw)-1]
		if len(raw) == 1 {
			bad = append(raw, 0) // bodiless: trailing bytes are the malformation
		}
		switch raw[0] {
		case fMsg, fBcast, fCkpt:
			bad = raw[:8] // inside the fixed header; the tail is opaque
		}
		var log bytes.Buffer
		n := &Node{opts: Options{NodeID: 1, Log: &log}}
		if err := n.newStage(2, true).take(bad); err == nil {
			t.Errorf("%s: truncated frame delivered", g.name)
		}
		want := fmt.Sprintf("node 1: malformed %s frame from node 2: ", g.name)
		if got := log.String(); !strings.HasPrefix(got, want) || strings.Count(got, "\n") != 1 {
			t.Errorf("%s: log %q, want one line starting %q", g.name, got, want)
		}
	}
	// A byte no row is assigned to reads as row 0, unknown: one past the
	// table, one far past it, and 0x0b, the retired ckpt-ack, inside it.
	for _, kind := range []byte{0x00, fckptAckRetired, fInitLogAck + 1, 0x7f} {
		var m frame
		if row, err := decodeFrame(&m, []byte{kind, 1, 2}); row.name != "unknown" || !errors.Is(err, msgcodec.ErrCorrupt) {
			t.Errorf("kind 0x%02x decodes as row %q with %v; want unknown and ErrCorrupt", kind, row.name, err)
		}
		var log bytes.Buffer
		n := &Node{opts: Options{NodeID: 1, Log: &log}}
		_ = n.newStage(2, true).take([]byte{kind, 1, 2})
		if want := "node 1: malformed unknown frame from node 2: "; !strings.HasPrefix(log.String(), want) {
			t.Errorf("kind 0x%02x: log %q, want prefix %q", kind, log.String(), want)
		}
	}
}

// fckptAckRetired is the kind byte of the ckpt-ack frame protocol version
// 10 retired; no frame kind may take it.
const fckptAckRetired = 0x0b

// TestReadmeFrameTable holds README's frame table and frameTable to each
// other: same kinds, same names, same credited/counted classification, same
// body layout.
func TestReadmeFrameTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(readme), "**Frame table**")
	if !ok {
		t.Fatal(`README.md has no "**Frame table**" section`)
	}
	rowRE := regexp.MustCompile("^\\| `0x([0-9a-f]{2})` \\| `([a-z-]+)` \\| (yes|no) \\| (yes|no) \\| (.*) \\|$")
	seen := make(map[byte]bool)
	inTable := false
	for _, line := range strings.Split(after, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		mm := rowRE.FindStringSubmatch(line)
		if mm == nil {
			continue // header and separator
		}
		kind := unhex(t, mm[1])[0]
		if int(kind) >= len(frameTable) || kind == 0 || frameTable[kind].decode == nil {
			t.Errorf("README lists frame 0x%02x, which frameTable does not have", kind)
			continue
		}
		seen[kind] = true
		row := frameTable[kind]
		layout := strings.Trim(mm[5], "`")
		if layout == "—" {
			layout = ""
		}
		yes := map[bool]string{true: "yes", false: "no"}
		if mm[2] != row.name || mm[3] != yes[row.credited] || mm[4] != yes[row.counted] || layout != row.layout {
			t.Errorf("README row 0x%02x = (%s, credited %s, counted %s, %q); frameTable has (%s, %s, %s, %q)",
				kind, mm[2], mm[3], mm[4], layout, row.name, yes[row.credited], yes[row.counted], row.layout)
		}
	}
	for _, kind := range assignedKinds() {
		if !seen[kind] {
			t.Errorf("frame 0x%02x (%s) has no row in README's frame table", kind, frameTable[kind].name)
		}
	}
}

// FuzzFrame drives arbitrary bytes through the decode half of every table
// row: a hostile peer's frame is an ErrCorrupt-wrapping error or a decoded
// frame, never a panic.
func FuzzFrame(f *testing.F) {
	for _, g := range goldenFrames(f) {
		f.Add(unhex(f, g.hex))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{fckptAckRetired, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m frame
		row, err := decodeFrame(&m, data)
		if row == nil {
			t.Fatal("decodeFrame returned no row")
		}
		if err != nil && !errors.Is(err, msgcodec.ErrCorrupt) {
			t.Fatalf("%s: error %v does not wrap ErrCorrupt", row.name, err)
		}
		if err == nil && (m.kind == fMsg || m.kind == fBcast) {
			if again := encodeWireFrame(nil, m.msg); !bytes.Equal(again, data) {
				t.Fatalf("%s: decoded frame re-encodes to %x, input %x", row.name, again, data)
			}
		}
	})
}

func mustPartition(t testing.TB, clusters []int, nodes int) Topology {
	t.Helper()
	topo, err := Partition(clusters, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestFingerprintSensitivity: any of configuration, topology, or program
// changing must change the handshake fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	cfgA := config.Simple(2, 4)
	cfgB := config.Simple(2, 5)
	topo2 := mustPartition(t, []int{1, 2}, 2)
	topo1 := mustPartition(t, []int{1, 2}, 1)
	base := Fingerprint(cfgA, topo2, "src")
	if Fingerprint(cfgB, topo2, "src") == base {
		t.Error("configuration change kept the fingerprint")
	}
	if Fingerprint(cfgA, topo1, "src") == base {
		t.Error("topology change kept the fingerprint")
	}
	if Fingerprint(cfgA, topo2, "other") == base {
		t.Error("program change kept the fingerprint")
	}
}
