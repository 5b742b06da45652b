package node

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/pfi"
	"repro/internal/sim"
)

// faultProfile shapes a fault network's delays.
type faultProfile struct {
	// base is the fixed latency added to every write.
	base time.Duration
	// jitter adds a uniformly distributed extra delay in [0, jitter).
	jitter time.Duration
	// dropRate is the per-attempt probability a write is lost on the wire
	// and sent again after retransmit, geometrically, capped at
	// maxRetransmits.  The last attempt always delivers: a write that
	// returned has happened on every schedule, so loss shows only as retry
	// latency.
	dropRate float64
	// retransmit is the delay each dropped attempt adds before the retry.
	retransmit time.Duration
	// batchWindow models sender-side coalescing below the node's own: every
	// write a connection accepts within one open window departs at its close
	// (then pays its own sampled delay).  Windows run on the backend clock.
	// Zero disables coalescing.
	batchWindow time.Duration
}

// defaultFaultProfile is every FaultMesh's network: delays that reorder
// connections on the virtual clock (where they cost nothing), with batch
// coalescing on.
var defaultFaultProfile = faultProfile{base: 2 * time.Millisecond, jitter: 8 * time.Millisecond, dropRate: 0.05, retransmit: 25 * time.Millisecond, batchWindow: 2 * time.Millisecond}

// maxRetransmits bounds the drop/retry loop per write: after this many
// losses the next attempt is forced through.
const maxRetransmits = 4

// MaxFaultDelay is the worst-case delivery delay of one write on a
// FaultMesh's network: its batch window, base latency and full jitter, and
// every retransmission.  A failure detector's suspicion timeout must exceed
// one heartbeat interval plus this bound, or an unlucky peer is declared
// dead.
const MaxFaultDelay = (2 + 2 + 8 + maxRetransmits*25) * time.Millisecond

// faultNet is a FaultMesh's network: in-memory connections on the mesh's
// simulator whose writes land after a delay the profile samples from the
// simulator's seed.  A connection direction is FIFO; directions reorder
// freely against each other, the schedule freedom a real mesh has.  One lock
// guards every listener and connection of the network.
type faultNet struct {
	be      backend.Backend
	profile faultProfile

	mu  sync.Mutex
	rng *rand.Rand
	lns map[string]faultListener
}

func (f *faultNet) Backend() backend.Backend { return f.be }

func (f *faultNet) Listen(addr string) (net.Listener, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, used := f.lns[addr]; used {
		return nil, fmt.Errorf("fault network: %s is in use", addr)
	}
	l := faultListener{newQueue[net.Conn](f.be, 16), faultAddr(addr)}
	f.lns[addr] = l
	return l, nil
}

// Dial connects to the listener at addr at once; the handshake's bytes pay
// the profile's delays like every other write.
func (f *faultNet) Dial(addr string, _ time.Duration) (net.Conn, error) {
	f.mu.Lock()
	l, ok := f.lns[addr]
	up, down := &stream{cond: f.be.NewCond(&f.mu)}, &stream{cond: f.be.NewCond(&f.mu)}
	f.mu.Unlock()
	if !ok || !l.put(&faultConn{net: f, in: up, out: down, addr: l.addr}) {
		return nil, fmt.Errorf("fault network: connection to %s refused", addr)
	}
	return &faultConn{net: f, in: down, out: up, addr: l.addr}, nil
}

// schedule queues a write made now on s — its bytes, or with eof the
// writer's close — to land after the open batch window's close and the
// sampled delay, and after every earlier write on s.  Its timer lands every
// queued write that is due, in order, so the stream lands in write order
// whatever order its timers fire in.  The callback only takes f.mu, which no
// task holds across a wait, so it never blocks.  Callers hold f.mu.
func (f *faultNet) schedule(s *stream, data []byte, eof bool) {
	p := f.profile
	delay := p.base
	if p.jitter > 0 {
		delay += time.Duration(f.rng.Int63n(int64(p.jitter)))
	}
	// Drop/retry loop, sampled now so the seed and the write order fix the
	// whole retry history.
	if p.dropRate > 0 {
		for tries := 0; tries < maxRetransmits && f.rng.Float64() < p.dropRate; tries++ {
			delay += p.retransmit
		}
	}
	now := f.be.Now()
	depart := now
	if p.batchWindow > 0 {
		if now.Before(s.window) {
			depart = s.window
		} else {
			depart = now.Add(p.batchWindow)
			s.window = depart
		}
	}
	// Landing times strictly monotone, so not even a timer tie reorders a
	// stream.
	due := depart.Add(delay)
	if !due.After(s.due) {
		due = s.due.Add(time.Nanosecond)
	}
	s.due = due
	s.inflight = append(s.inflight, landing{due, data, eof})
	f.be.AfterFunc(due.Sub(now), func() {
		f.mu.Lock()
		for now := f.be.Now(); len(s.inflight) > 0 && !s.inflight[0].due.After(now); s.inflight = s.inflight[1:] {
			if l := s.inflight[0]; !s.closed {
				s.buf, s.eof = append(s.buf, l.data...), s.eof || l.eof
			}
		}
		s.cond.Broadcast()
		f.mu.Unlock()
	})
}

// landing is one write on its way along a stream.
type landing struct {
	due  time.Time
	data []byte
	eof  bool
}

// stream is one direction of a connection: the bytes landed and not yet
// read, and its delay line's schedule.
type stream struct {
	cond   backend.Cond
	buf    []byte
	eof    bool      // the writer closed, and every byte written before landed
	closed bool      // the reader closed: nothing more lands
	due    time.Time // the last write's landing
	window time.Time // the open batch window's close

	inflight []landing // written, not landed, in write order
}

// faultConn is one end of an in-memory connection.
type faultConn struct {
	net     *faultNet
	in, out *stream
	addr    faultAddr
	closed  bool
}

func (c *faultConn) Read(b []byte) (int, error) {
	f := c.net
	f.mu.Lock()
	defer f.mu.Unlock()
	s := c.in
	for len(s.buf) == 0 && !s.eof && !s.closed {
		s.cond.Wait()
	}
	switch {
	case s.closed:
		return 0, net.ErrClosed
	case len(s.buf) == 0:
		return 0, io.EOF
	}
	n := copy(b, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}

// errBrokenPipe is a write toward an end that closed: the peer died.
var errBrokenPipe = errors.New("fault network: broken pipe")

// Write copies b into the delay line and returns at once.
func (c *faultConn) Write(b []byte) (int, error) {
	f := c.net
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case c.closed:
		return 0, net.ErrClosed
	case c.out.closed:
		return 0, errBrokenPipe
	}
	f.schedule(c.out, append([]byte(nil), b...), false)
	return len(b), nil
}

// Close drops what has landed for this end and ends the other end's stream
// once the bytes already written have landed there.
func (c *faultConn) Close() error {
	f := c.net
	f.mu.Lock()
	defer f.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.in.closed, c.in.buf = true, nil
	c.in.cond.Broadcast()
	f.schedule(c.out, nil, true)
	return nil
}

func (c *faultConn) LocalAddr() net.Addr              { return c.addr }
func (c *faultConn) RemoteAddr() net.Addr             { return c.addr }
func (c *faultConn) SetDeadline(time.Time) error      { return nil }
func (c *faultConn) SetReadDeadline(time.Time) error  { return nil }
func (c *faultConn) SetWriteDeadline(time.Time) error { return nil }

// faultListener queues the connections dialed to its address.
type faultListener struct {
	*queue[net.Conn]
	addr faultAddr
}

func (l faultListener) Accept() (net.Conn, error) {
	if c, ok := l.get(); ok {
		return c, nil
	}
	return nil, net.ErrClosed
}

func (l faultListener) Close() error {
	l.close()
	return nil
}

func (l faultListener) Addr() net.Addr { return l.addr }

// faultAddr is an address on a fault network.
type faultAddr string

func (faultAddr) Network() string  { return "fault" }
func (a faultAddr) String() string { return string(a) }

// FaultMesh is `pisces run -nodes N -sim`: N real Nodes in one process,
// node i hosting the clusters Partition gives it as Start does, joined by a
// fault network on one simulator.  Every byte between two nodes lands after
// a seeded delay, so the mesh runs on the virtual clock and replays from the
// seed — handshake, credits, drain, and with HA the heartbeats, detector,
// checkpoints, initiation log and rebalance included.  The mesh drives its
// nodes in tasks of the simulator, since node code waits on the backend and
// the simulator parks only tasks; the caller waits for them.
type FaultMesh struct {
	VMs []*core.VM

	be     backend.Backend
	nodes  []*Node
	served []backend.Gate // a follower's ServeUntilShutdown returned
	errs   []error        // and what it returned, by follower
}

// NewFaultMesh boots a mesh of nodes nodes for cfg on s, its network seeded
// with s.Seed().  opts(i) gives node i's options; the mesh sets NodeID,
// Addrs, Listener, Config and Net.  The nodes boot concurrently, as tasks,
// since each node's handshake waits for the others.  The same seed and
// schedule reproduce the same delays.
func NewFaultMesh(cfg *config.Configuration, s *sim.Scheduler, nodes int, opts func(node int) Options) (*FaultMesh, error) {
	return newFaultMesh(cfg, s, nodes, defaultFaultProfile, opts)
}

// newFaultMesh is NewFaultMesh on a network of profile p.
func newFaultMesh(cfg *config.Configuration, s *sim.Scheduler, nodes int, p faultProfile, opts func(node int) Options) (*FaultMesh, error) {
	f := &faultNet{be: s, profile: p, rng: rand.New(rand.NewSource(s.Seed())), lns: make(map[string]faultListener)}
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node%d", i)
	}
	m := &FaultMesh{be: s, nodes: make([]*Node, nodes)}
	errs := make([]error, nodes)
	booted := s.NewWaitGroup()
	for i := range addrs {
		o := opts(i)
		o.NodeID, o.Addrs, o.Config, o.Net = i, addrs, cfg, f
		if o.Listener, errs[i] = f.Listen(addrs[i]); errs[i] != nil {
			continue
		}
		booted.Add(1)
		s.Spawn(fmt.Sprintf("node %d boot", i), func() {
			defer booted.Done()
			m.nodes[i], errs[i] = Start(o)
		})
	}
	booted.Wait()
	if err := errors.Join(errs...); err != nil {
		m.do("mesh abort", func() {
			for _, n := range m.nodes {
				if n != nil {
					n.Terminate()
				}
			}
		})
		return nil, err
	}
	m.errs = make([]error, len(m.nodes))
	for i, n := range m.nodes {
		m.VMs = append(m.VMs, n.VM())
		if i > 0 {
			served := s.NewGate()
			m.served = append(m.served, served)
			s.Spawn(fmt.Sprintf("node %d serve", i), func() {
				m.errs[i] = n.ServeUntilShutdown()
				served.Open()
			})
		}
	}
	return m, nil
}

// do runs fn in a task of the mesh's backend and waits for it.
func (m *FaultMesh) do(name string, fn func()) {
	done := m.be.NewGate()
	m.be.Spawn(name, func() {
		fn()
		done.Open()
	})
	done.Wait()
}

// Run runs the program on the mesh: registered on every VM, MAIN started on
// node 0, the terminal's, and the mesh drained as node 0's Close drains it —
// rounds until every node is idle and the frame counts balance twice —
// before the program's error is read.  The mesh stays up for another Run.
func (m *FaultMesh) Run(prog *pfi.Program, opts pfi.Options) error {
	for _, vm := range m.VMs[1:] {
		prog.Register(vm)
	}
	err := prog.Run(m.VMs[0], opts)
	var drainErr error
	m.do("mesh drain", func() { drainErr = m.nodes[0].drainQuiesce(drainTimeout) })
	m.VMs[0].FlushUserOutput()
	if err == nil {
		err = prog.Err()
	}
	if err == nil {
		err = drainErr
	}
	return err
}

// Shutdown closes node 0, which drains the mesh and orders every follower
// down, and waits until every follower has closed.  It returns node 0's
// Close error joined with the ServeUntilShutdown error of every follower
// that was not killed.
func (m *FaultMesh) Shutdown() error {
	var err error
	m.do("mesh shutdown", func() {
		err = m.nodes[0].Close()
		for i, served := range m.served {
			served.Wait()
			if !m.nodes[i+1].tr.killed.Load() {
				err = errors.Join(err, m.errs[i+1])
			}
		}
	})
	return err
}

// Checkpoint is node i's checkpoint tick in HA mode, waited on until its
// buddy has stored the blob and every live peer's retention toward node i is
// released up to its mark.
func (m *FaultMesh) Checkpoint(i int) error {
	n := m.nodes[i]
	if n.det == nil {
		return fmt.Errorf("node %d: checkpoints need HA mode", i)
	}
	err := fmt.Errorf("node %d: no checkpoint was stored", i)
	m.do(fmt.Sprintf("node %d checkpoint", i), func() {
		buddy, epoch, marks := n.checkpointTick()
		if b := m.nodes[max(buddy, 0)]; epoch > 0 && b.await(-1, func() bool { return b.store.stored(i) >= epoch }) {
			err = nil
			for _, mk := range marks {
				if p := m.nodes[mk.peer]; mk.peer != i && !b.det.Dead(mk.peer) {
					p.await(-1, func() bool { return p.tr.marked(i, mk) })
				}
			}
		}
	})
	return err
}

// Kill is node i's death: its Terminate, then its VM's Shutdown, so the dead
// machine's heap can still be read.  In HA mode the survivors then hear the
// silence, the leader issues the verdict, the buddy adopts and restores the
// node's clusters and every survivor replays its retention toward it; Kill
// returns once each survivor has finished that rebalance (or shut down, as a
// follower does that loses node 0), with the number of frames they replayed.
func (m *FaultMesh) Kill(i int) (replayed int) {
	m.do(fmt.Sprintf("node %d kill", i), func() {
		dead := m.nodes[i]
		dead.Terminate()
		dead.vm.Shutdown()
		for j, n := range m.nodes {
			var r int
			if j != i && n.det != nil && n.await(-1, func() (done bool) { r, done = n.replayed[i]; return done }) {
				replayed += r
			}
		}
	})
	return replayed
}
