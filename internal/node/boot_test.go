package node

import (
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/config"
)

// bareNode is a Node with just enough set to dial or answer a handshake.
func bareNode(t *testing.T, id int, addrs []string) *Node {
	t.Helper()
	cfg := config.Simple(2, 4)
	topo, err := Partition(cfg.ClusterNumbers(), len(addrs))
	if err != nil {
		t.Fatal(err)
	}
	return &Node{opts: Options{NodeID: id, Addrs: addrs, Net: tcpNet{}}, topo: topo, fp: Fingerprint(cfg, topo, ""), be: backend.Default()}
}

// TestDialFindsLateListener is pisces run -nodes 2 in small: node 0 dials
// before the follower it forked has bound its port, is refused, and must find
// the listener at the next short retry — not a fixed 50 ms later, which used
// to be most of node.procs.boot_ms.  The listener is late by attempts, not by
// the clock: it opens inside the dialRefused hook on the third refusal, so
// the test reads the waits dialPeer asked for and never a stopwatch.
func TestDialFindsLateListener(t *testing.T) {
	// Reserve a port, then free it: an address that refuses connections.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{"unused", probe.Addr().String()}
	_ = probe.Close()
	dialer, follower := bareNode(t, 0, addrs), bareNode(t, 1, addrs)

	deadline := time.Now().Add(10 * time.Second)
	answered := make(chan error, 1)
	var waits []time.Duration
	dialer.dialRefused = func(wait time.Duration) {
		waits = append(waits, wait)
		if len(waits) != 3 {
			return
		}
		// The follower comes up, on a port of its own.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			answered <- err
			return
		}
		addrs[1] = ln.Addr().String()
		go func() {
			defer ln.Close()
			conn, err := ln.Accept()
			if err != nil {
				answered <- err
				return
			}
			defer conn.Close()
			_, err = follower.handshakeAccept(conn, deadline)
			answered <- err
		}()
	}
	conn, err := dialer.dialPeer(1, deadline)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := <-answered; err != nil {
		t.Fatalf("follower side: %v", err)
	}
	// Refused three times, connected on the fourth attempt, having asked for
	// 1 + 2 + 4 = 7 ms of waiting in all — nowhere near the 50 ms cap.
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if !slices.Equal(waits, want) {
		t.Errorf("dialPeer waited %v between attempts, want %v (the listener opened on the third refusal)", waits, want)
	}

	// A deadline that has already passed is reported as that, not as a nil
	// cause behind %w.
	_, err = dialer.dialPeer(1, time.Now().Add(-time.Second))
	if err == nil || strings.Contains(err.Error(), "%!w") || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("dial past its deadline: %v; want a plain deadline error", err)
	}
}
