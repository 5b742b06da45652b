package node

import (
	"math/rand"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
)

// lateNet is a fault network whose peer binds its listener late: Dial notes
// the virtual time of every attempt and, on the third refusal, calls bind.
type lateNet struct {
	*faultNet
	dials []time.Time
	bind  func()
}

func (l *lateNet) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	l.dials = append(l.dials, l.be.Now())
	conn, err := l.faultNet.Dial(addr, timeout)
	if err != nil && len(l.dials) == 3 {
		l.bind()
	}
	return conn, err
}

// bareNode is a Node with just enough set to dial or answer a handshake.
func bareNode(t *testing.T, id int, addrs []string, nw Network) *Node {
	t.Helper()
	cfg := config.Simple(2, 4)
	topo, err := Partition(cfg.ClusterNumbers(), len(addrs))
	if err != nil {
		t.Fatal(err)
	}
	return &Node{opts: Options{NodeID: id, Addrs: addrs, Net: nw}, topo: topo, fp: Fingerprint(cfg, topo, ""), be: nw.Backend()}
}

// TestDialFindsLateListener is pisces run -nodes 2 in small: node 0 dials
// before the follower it forked has bound its port, is refused, and must find
// the listener at the next short retry — not a fixed 50 ms later, which used
// to be most of node.procs.boot_ms.  The listener is late by attempts, not by
// the clock: the network binds it on the third refusal, and the waits
// dialPeer took are the gaps between its attempts on the virtual clock.
func TestDialFindsLateListener(t *testing.T) {
	s := sim.New(1)
	addrs := []string{"node0", "node1"}
	ln := &lateNet{faultNet: &faultNet{be: s, rng: rand.New(rand.NewSource(1)), lns: make(map[string]faultListener)}}
	dialer, follower := bareNode(t, 0, addrs, ln), bareNode(t, 1, addrs, ln)
	deadline := s.Now().Add(10 * time.Second)
	var answerErr error
	ln.bind = func() {
		// The follower comes up and answers one handshake.
		l, err := ln.Listen(addrs[1])
		if err != nil {
			answerErr = err
			return
		}
		s.Spawn("follower", func() {
			defer l.Close()
			conn, err := l.Accept()
			if err == nil {
				_, err = follower.handshakeAccept(conn, deadline)
			}
			answerErr = err
		})
	}
	var dialErr error
	done := s.NewGate()
	s.Spawn("dialer", func() {
		defer done.Open()
		var conn net.Conn
		if conn, dialErr = dialer.dialPeer(1, deadline); dialErr == nil {
			_ = conn.Close()
		}
	})
	done.Wait()
	if dialErr != nil || answerErr != nil {
		t.Fatalf("dial: %v; follower side: %v", dialErr, answerErr)
	}
	// Refused three times, connected on the fourth attempt, having waited
	// 1 + 2 + 4 = 7 ms in all — nowhere near the 50 ms cap.
	var gaps []time.Duration
	for i := 1; i < len(ln.dials); i++ {
		gaps = append(gaps, ln.dials[i].Sub(ln.dials[i-1]))
	}
	if want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}; !slices.Equal(gaps, want) {
		t.Errorf("dialPeer waited %v between attempts, want %v (the listener opened on the third refusal)", gaps, want)
	}

	// A deadline that has already passed is reported as that, not as a nil
	// cause behind %w.
	_, err := dialer.dialPeer(1, s.Now().Add(-time.Second))
	if err == nil || strings.Contains(err.Error(), "%!w") || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("dial past its deadline: %v; want a plain deadline error", err)
	}
}
