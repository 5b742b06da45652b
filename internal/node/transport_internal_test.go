package node

import (
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// TestBroadcastPartialFailureKeepsDrainBalance pins the broadcast accounting
// fix: a broadcast over one dead and one live lane must still reach the live
// peer, must report the failure, and must count only the live lane's copy in
// the drain balance — the dead lane's copy is written off as lost, so the
// sent/recv books stay balanced and a later drain round can still converge.
// Send returns at batch handoff, so the dead lane's write error surfaces at
// the Flush barrier and is reported by every send after it.
func TestBroadcastPartialFailureKeepsDrainBalance(t *testing.T) {
	topo, err := Partition([]int{1, 2, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTransport(0, topo, obs.New(), wireConfig{}, backend.Default())
	defer tr.Close()

	live, liveFar := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, liveFar) }()
	tr.addPeer(1, live)

	dead, deadFar := net.Pipe()
	_ = dead.Close()
	_ = deadFar.Close()
	tr.addPeer(2, dead)

	f := &core.WireFrame{Kind: core.FrameBroadcast, Src: 1, Dst: 0, Type: "tick", Payload: []byte("x")}
	if err := tr.Send(f); err != nil {
		t.Fatalf("first broadcast: %v; want nil (both copies handed off, the dead lane fails at the write)", err)
	}
	tr.Flush()
	if sent, recv := tr.counts(); sent != 1 || recv != 0 {
		t.Fatalf("after partial broadcast failure: sent %d recv %d, want 1 0 (only the live lane's copy counted)", sent, recv)
	}

	// The failed lane keeps reporting, keeps forwarding to the live peer, and
	// stays out of the books: no phantom imbalance accumulates.
	if err := tr.Send(f); err == nil {
		t.Fatal("broadcast over a failed lane reported total success")
	}
	tr.Flush()
	if sent, _ := tr.counts(); sent != 2 {
		t.Fatalf("sent = %d after two partial broadcasts, want 2", sent)
	}
}

// TestSendRefusesOversizeType: the frame's type field has a u16 length, so a
// message type it cannot carry is refused before anything is enqueued — the
// credit window, the batch and the drain count are untouched — instead of
// wrapping the length and decoding as a short type followed by garbage.
func TestSendRefusesOversizeType(t *testing.T) {
	topo, err := Partition([]int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTransport(0, topo, obs.New(), wireConfig{}, backend.Default())
	defer tr.Close()
	near, far := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, far) }()
	tr.addPeer(1, near)
	p, _ := tr.peerFor(1)

	for _, kind := range []core.FrameKind{core.FrameMessage, core.FrameBroadcast} {
		f := &core.WireFrame{Kind: kind, Src: 1, Dst: 2, Type: strings.Repeat("T", msgcodec.MaxStr16+1), Payload: []byte{0, 0}}
		if kind == core.FrameBroadcast {
			f.Dst = 0
		}
		if err := tr.Send(f); err == nil {
			t.Fatalf("%v with a %d-byte type was accepted", kind, len(f.Type))
		}
	}
	p.mu.Lock()
	credits, queued := p.credits, len(p.batch)
	p.mu.Unlock()
	if sent, _ := tr.counts(); sent != 0 || credits != defaultCreditWindow || queued != 0 {
		t.Fatalf("refused sends left sent=%d credits=%d batch=%d bytes; want 0, %d, 0", sent, credits, queued, defaultCreditWindow)
	}
	// The longest type the field can carry still travels.
	if err := tr.Send(&core.WireFrame{Kind: core.FrameMessage, Src: 1, Dst: 2, Type: strings.Repeat("T", msgcodec.MaxStr16), Payload: []byte{0, 0}}); err != nil {
		t.Fatalf("type of exactly %d bytes refused: %v", msgcodec.MaxStr16, err)
	}
}
