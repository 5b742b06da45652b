package node

import (
	"net"
	"time"

	"repro/internal/backend"
)

// tcpNet is the network a node runs on when Options.Net is nil: loopback TCP
// on the goroutine backend.  It is the one place in the package that reaches
// the operating system's network; everything else listens, dials, spawns,
// waits and reads the clock through Options.Net.
type tcpNet struct{}

func (tcpNet) Backend() backend.Backend { return backend.Default() }

func (tcpNet) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

func (tcpNet) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	// Frames are small and latency-sensitive (a ping-pong style program
	// sends one frame per hop); Nagle coalescing would serialise the whole
	// message path on the ACK clock.
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return conn, nil
}
