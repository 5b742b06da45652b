package node

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// The batch receive path under test is the real one: a node booted by Start
// whose lane from node 0 is read by its own readLoop and deliverLoop.  The
// test plays node 0.  It answers the handshake by hand, so it holds both raw
// connections: the lane it writes (a net.Pipe, where every Write is seen by
// the reader as exactly one Read — the chop points are the test's, not the
// kernel's) and the lane the node writes back on (loopback TCP), where the
// credit grants and drain acks arrive.

// pipeListener hands Start connections the test made.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// arrival is one message the sink task accepted.
type arrival struct {
	seq   int64
	typ   string
	reals int
}

// lane is node 1 under test plus the test's two ends of its mesh.
type lane struct {
	t    *testing.T
	n    *Node
	reg  *obs.Registry
	log  *syncBuffer
	out  net.Conn // test -> node 1: the lane under test
	sink core.TaskID
	got  chan arrival

	credits atomic.Int64  // sum of the grants node 1 sent back
	grants  chan int      // each grant, for a sender that paces itself on them
	acks    chan drainAck // drain acks node 1 sent back
	msgs    chan int64    // the first argument of each message node 1 sent node 0
}

func startLane(t *testing.T, mutate func(*Options)) *lane {
	t.Helper()
	l := &lane{t: t, reg: obs.New(), log: &syncBuffer{}, got: make(chan arrival, 4096), grants: make(chan int, 4096), acks: make(chan drainAck, 4), msgs: make(chan int64, 64)}
	l.reg.Enable(obs.Metrics)
	cfg := config.Simple(2, 4)
	topo, err := Partition(cfg.ClusterNumbers(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln0.Close()
	pl := &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	ready := make(chan core.TaskID, 1)
	opts := Options{
		NodeID: 1, Addrs: []string{ln0.Addr().String(), "pipe"}, Listener: pl,
		Config: cfg, Log: l.log, Metrics: l.reg,
		AcceptTimeout: 30 * time.Second, ConnectTimeout: 20 * time.Second,
		Register: func(vm *core.VM) {
			vm.Register("sink", func(task *core.Task) {
				ready <- task.ID()
				for {
					m, err := task.AcceptOne("datum", "other", "stop")
					if err != nil || m.Type == "stop" {
						return
					}
					l.got <- arrival{seq: core.MustInt(m.Arg(0)), typ: m.Type, reals: len(core.MustReals(m.Arg(1)))}
				}
			})
		},
	}
	if mutate != nil {
		mutate(&opts)
	}
	started := make(chan error, 1)
	go func() {
		var err error
		l.n, err = Start(opts)
		started <- err
	}()

	// Node 1 dials node 0 and says hello; node 0 answers.
	mine := encodeHello(hello{version: protoVersion, nodeID: 0, fingerprint: Fingerprint(cfg, topo, ""), topo: topo})
	in, err := ln0.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readHello(in); err != nil {
		t.Fatalf("node 1's hello: %v", err)
	}
	if err := msgcodec.WriteFrame(in, mine, 0); err != nil {
		t.Fatal(err)
	}
	// Node 0 "dials" node 1 over the pipe.
	near, far := net.Pipe()
	pl.conns <- far
	if err := msgcodec.WriteFrame(near, mine, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := readHello(near); err != nil {
		t.Fatalf("node 1's answer: %v", err)
	}
	l.out = near
	if err := <-started; err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		_ = l.n.Close()
		_ = near.Close()
		_ = in.Close()
	})

	// Everything node 1 sends back: grants and acks are kept, the rest
	// (heartbeats, checkpoints) only has to be drained.
	go func() {
		var m frame
		for {
			payload, err := msgcodec.ReadFrame(in)
			if err != nil {
				return
			}
			if _, err := decodeFrame(&m, payload); err != nil {
				continue
			}
			switch m.kind {
			case fCredit:
				l.credits.Add(int64(m.count))
				l.grants <- int(m.count)
			case fDrainAck:
				a := m.ack
				a.stats, a.trace = nil, nil
				l.acks <- a
			case fMsg:
				var first int64
				if args, err := msgcodec.Decode(m.msg.Payload); err == nil && len(args) > 0 {
					first = args[0].Integer()
				}
				l.msgs <- first
			}
		}
	}()

	if _, err := l.n.VM().Initiate("sink", core.OnCluster(2)); err != nil {
		t.Fatalf("initiate sink: %v", err)
	}
	select {
	case l.sink = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("sink did not start")
	}
	return l
}

// framed wraps one protocol payload in its length prefix.
func framed(payload []byte) []byte {
	b, start := msgcodec.BeginFrame(nil)
	b, err := msgcodec.EndFrame(append(b, payload...), start, 0)
	if err != nil {
		panic(err)
	}
	return b
}

// datum is one credited data frame for the sink: its sequence number and an
// array of the given length.
func (l *lane) datum(typ string, seq int64, reals int) []byte {
	args, err := msgcodec.Encode([]msgcodec.Arg{msgcodec.Int(seq), msgcodec.Reals(make([]float64, reals))})
	if err != nil {
		l.t.Fatal(err)
	}
	f := &core.WireFrame{Kind: core.FrameMessage, Src: 1, Dst: 2, Dest: l.sink, Sender: core.TaskID{Cluster: 1, Slot: 1, Unique: 7}, Type: typ, Payload: args}
	return framed(encodeWireFrame(nil, f))
}

// write sends b down the lane in pieces of at most piece bytes.
func (l *lane) write(b []byte, piece int) {
	l.t.Helper()
	for len(b) > 0 {
		n := min(piece, len(b))
		_ = l.out.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := l.out.Write(b[:n]); err != nil {
			l.t.Fatalf("writing the lane: %v", err)
		}
		b = b[n:]
	}
}

func (l *lane) arrivals(n int) []arrival {
	l.t.Helper()
	out := make([]arrival, 0, n)
	for len(out) < n {
		select {
		case a := <-l.got:
			out = append(out, a)
		case <-time.After(30 * time.Second):
			l.t.Fatalf("%d of %d messages arrived\nnode log:\n%s", len(out), n, l.log)
		}
	}
	return out
}

func (l *lane) rx() (frames, bytes int64) {
	return l.reg.Counter("node.rx.n0->n1.frames").Load(), l.reg.Counter("node.rx.n0->n1.bytes").Load()
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// bigReals makes a data frame larger than the read buffer.
const bigReals = (readBufBytes + 8<<10) / 8

// choppedStream is the frame sequence of the chopped-stream test: runs of two
// message types, zero-length frames, an uncredited heartbeat, a frame larger
// than the read buffer in the middle and small frames after it.
func (l *lane) choppedStream() (stream []byte, want []arrival, frames int) {
	add := func(b []byte) { stream, frames = append(stream, b...), frames+1 }
	data := func(typ string, reals int) {
		seq := int64(len(want))
		add(l.datum(typ, seq, reals))
		want = append(want, arrival{seq: seq, typ: typ, reals: reals})
	}
	for i := 0; i < 40; i++ {
		data("datum", 8)
	}
	add(framed(nil))
	add(framed(nil))
	for i := 0; i < 5; i++ {
		data("other", 3)
		data("datum", 0)
	}
	add(framed(encodeHeartbeat(0, 1)))
	data("datum", bigReals)
	for i := 0; i < 40; i++ {
		data("other", 8)
	}
	return stream, want, frames
}

// TestChoppedStreamDeliversTheSameFrames feeds the real readLoop/deliverLoop
// one frame sequence cut into 1-, 3-, 7-byte and 100 KiB pieces: whatever the
// reads look like, the same messages arrive in the same (per-sender FIFO)
// order, the node.rx.* counters read the same, and the credits granted sum
// to the credited frames delivered — when each grant goes out depends on
// timing, the total does not.
func TestChoppedStreamDeliversTheSameFrames(t *testing.T) {
	for _, piece := range []int{1 << 30, 1, 3, 7, 100 << 10} {
		t.Run(fmt.Sprintf("pieces-of-%d", piece), func(t *testing.T) {
			l := startLane(t, nil)
			stream, want, frames := l.choppedStream()
			l.write(stream, piece)
			got := l.arrivals(len(want))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("message %d arrived as %+v, want %+v", i, got[i], want[i])
				}
			}
			waitFor(t, "the credits for every delivered data frame", func() bool { return l.credits.Load() >= int64(len(want)) })
			if c := l.credits.Load(); c != int64(len(want)) {
				t.Fatalf("granted %d credits for %d credited frames", c, len(want))
			}
			if f, b := l.rx(); f != int64(frames) || b != int64(len(stream)) {
				t.Fatalf("node.rx counters: %d frames %d bytes, want %d frames %d bytes", f, b, frames, len(stream))
			}
			if log := l.log.String(); strings.Contains(log, "malformed") || strings.Contains(log, "reading from") {
				t.Fatalf("node log:\n%s", log)
			}
		})
	}
}

// TestWindowOfOneSenderProgresses is the receiver's half of a window-of-1
// mesh: a sender that may have one data frame in flight sends the next only
// after the grant for the last.  Each frame is far below creditGrantChunk, so
// progress depends on the grant that goes out when a hand-off is finished and
// the stage is empty — including for a frame larger than the read buffer,
// and for frames arriving 7 bytes at a time.
func TestWindowOfOneSenderProgresses(t *testing.T) {
	l := startLane(t, func(o *Options) { o.wire = wireConfig{CreditWindow: 1, BatchBytes: 256} })
	sizes := []int{8, 8, 0, bigReals, 8, 3, 8, 8}
	for i, reals := range sizes {
		l.write(l.datum("datum", int64(i), reals), 7)
		select {
		case g := <-l.grants:
			if g != 1 {
				t.Fatalf("frame %d: a grant of %d with one frame in flight", i, g)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("frame %d: no credit came back; a window-of-1 sender is stuck\nnode log:\n%s", i, l.log)
		}
	}
	for i, a := range l.arrivals(len(sizes)) {
		if a.seq != int64(i) || a.reals != sizes[i] {
			t.Fatalf("message %d arrived as %+v", i, a)
		}
	}
}

// TestStreamEndingInsideAFrameIsReported: the frames before the cut are
// delivered and the node log says the stream ended unexpectedly, as it did
// when frames were read one at a time.
func TestStreamEndingInsideAFrameIsReported(t *testing.T) {
	l := startLane(t, nil)
	whole, cut := l.datum("datum", 0, 8), l.datum("datum", 1, 8)
	l.write(append(whole, cut[:len(cut)-5]...), 1<<30)
	if a := l.arrivals(1); a[0].seq != 0 {
		t.Fatalf("arrived: %+v", a)
	}
	_ = l.out.Close()
	waitFor(t, "the unexpected-EOF report", func() bool { return strings.Contains(l.log.String(), "unexpected EOF") })
	if want := "node 1: reading from node 0: unexpected EOF\n"; !strings.Contains(l.log.String(), want) {
		t.Fatalf("node log:\n%swant %q", l.log, want)
	}
}

// TestOversizedPrefixEndsTheLane: a length prefix over MaxFrameBytes is
// ErrCorrupt in the node log — after the sound frames that arrived in the
// same read were delivered — and the reader never sizes a buffer from it.
func TestOversizedPrefixEndsTheLane(t *testing.T) {
	l := startLane(t, nil)
	stream := append(l.datum("datum", 0, 8), msgcodec.AppendU32(nil, msgcodec.MaxFrameBytes+1)...)
	l.write(stream, 1<<30)
	if a := l.arrivals(1); a[0].seq != 0 {
		t.Fatalf("arrived: %+v", a)
	}
	waitFor(t, "the corrupt-prefix report", func() bool { return strings.Contains(l.log.String(), "exceeds maximum") })
	// The lane is closed: the next write fails instead of filling a buffer.
	_ = l.out.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := l.out.Write(make([]byte, 16)); err == nil {
		t.Fatal("the lane kept reading after a forbidden length prefix")
	}
}

// holdDeliverStage sends the sink one datum and holds the lane's deliver
// stage on it, before its run reaches the VM (the beforeDeliver hook), until
// the returned release is called; the test's cleanup releases it too.
func (l *lane) holdDeliverStage() (release func()) {
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	l.t.Cleanup(release)
	l.n.beforeDeliver = func([]core.WireFrame) { <-gate }
	l.write(l.datum("datum", 0, 8), 1<<30)
	return release
}

// TestHeartbeatsHeardWhileDeliverStageHeld is the regression test for the
// depth of the deliver stage.  Node 1's stage is held for two virtual seconds
// on node 0's first data frame; meanwhile node 0's heartbeats arrive 25 ms
// apart, each its own small read and its own hand-off.  Node 1's reader must
// keep taking them — and so keep telling the detector node 0 is alive —
// although nothing is being delivered: a stage a few items deep fills within
// 100 ms, the reader blocks on it, and 250 ms later a live coordinator is
// declared dead.  The data frames sent meanwhile arrive, in order, once the
// stage is released.
func TestHeartbeatsHeardWhileDeliverStageHeld(t *testing.T) {
	const sent = 9
	var got []int64
	register := func(vm *core.VM) {
		vm.Register("sink", func(task *core.Task) {
			for len(got) < sent {
				m, err := task.AcceptOne("datum")
				if err != nil {
					return
				}
				got = append(got, core.MustInt(m.Arg(0)))
			}
		})
	}
	s, mesh := simMesh(t, 1, config.Simple(2, 2), &bytes.Buffer{}, wireConfig{}, register)
	n1 := mesh.nodes[1]
	if after := suspicionBeats * n1.opts.HeartbeatInterval; n1.opts.HeartbeatInterval != 25*time.Millisecond || after != 250*time.Millisecond {
		t.Fatalf("heartbeats every %v, suspicion after %v; the test needs 25ms and 250ms", n1.opts.HeartbeatInterval, after)
	}
	release := s.NewGate()
	var heldAt time.Time
	n1.beforeDeliver = func(run []core.WireFrame) {
		if heldAt.IsZero() && run[0].Type == "datum" {
			heldAt = s.Now()
			release.Wait()
		}
	}
	var held time.Duration
	early := 0
	done := s.NewGate()
	s.Spawn("drive", func() {
		defer done.Open()
		sink, err := mesh.VMs[0].Initiate("sink", core.OnCluster(2))
		if err != nil {
			t.Error(err)
			return
		}
		// One datum every ten heartbeats, the stage held from the first.
		for i := int64(0); i < sent; i++ {
			if err := mesh.VMs[0].SendFromUser(sink, "datum", core.Int(i)); err != nil {
				t.Error(err)
				return
			}
			sleep(s, 250*time.Millisecond)
		}
		held, early = s.Now().Sub(heldAt), len(got)
		release.Open()
		if !pollFor(s, func() bool { return len(got) == sent }) {
			t.Errorf("%d of %d data arrived after the release", len(got), sent)
		}
	})
	done.Wait()
	dead := n1.det.Dead(0) || n1.shuttingDown()
	if err := mesh.Shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if dead {
		t.Fatalf("node 0 was declared dead while its heartbeats were arriving (stage held %v)", held)
	}
	if heldAt.IsZero() || held < 2*time.Second || early > 0 {
		t.Fatalf("the stage was held %v from its first datum and delivered %d data meanwhile; want at least 2s and none", held, early)
	}
	for i, seq := range got {
		if seq != int64(i) {
			t.Fatalf("datum %d arrived in place %d", seq, i)
		}
	}
}

// TestHeldStagePinsBoundedReadBuffers states the memory bound of the deep
// stage: with the deliver stage held and a peer writing as fast as the lane
// takes it, the reader stops once stageDepth hand-offs are queued, and since
// a hand-off pins at most the one read buffer it ends, no more than
// stageDepth+3 buffers' worth of bytes (queued, being walked, waiting to be
// queued, being filled) has left the socket.
func TestHeldStagePinsBoundedReadBuffers(t *testing.T) {
	l := startLane(t, nil)
	release := l.holdDeliverStage()
	// 64 KiB of zero-length frames a write: the worst case, every read
	// filling a buffer.
	chunk := make([]byte, readBufBytes)
	taken := 0
	for {
		_ = l.out.SetWriteDeadline(time.Now().Add(300 * time.Millisecond))
		n, err := l.out.Write(chunk)
		taken += n
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("writing the lane: %v", err)
			}
			break // the reader stopped taking bytes
		}
		if taken > 4*stageDepth*readBufBytes {
			t.Fatalf("the lane took %d bytes with the deliver stage held: the stage does not push back", taken)
		}
	}
	release()
	if limit := (stageDepth + 3) * readBufBytes; taken > limit {
		t.Fatalf("the lane took %d bytes with the deliver stage held, over the bound of %d", taken, limit)
	}
	if taken < stageDepth/2*readBufBytes {
		t.Fatalf("the lane took only %d bytes: the test did not fill the stage", taken)
	}
	if a := l.arrivals(1); a[0].seq != 0 {
		t.Fatalf("arrived: %+v", a)
	}
}

// TestJumboReadBufferIsNotRecycled: a frame that cannot fit the nominal read
// buffer gets one of its own size, and that buffer is collected once its
// frame is delivered — only nominal buffers go round again, the rule the
// writer has for its batch buffers.  One 1 MiB frame, then small ones.
func TestJumboReadBufferIsNotRecycled(t *testing.T) {
	var stream []byte
	payloads := [][]byte{bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 1<<20)}
	for i := 0; i < 3000; i++ {
		payloads = append(payloads, bytes.Repeat([]byte{byte(3 + i%200)}, 90+i%50))
	}
	for _, p := range payloads {
		stream = append(stream, framed(p)...)
	}
	r := newLaneReader(bytes.NewReader(stream))
	var jumbo []byte
	next := 0
	for {
		run, _, err := r.read()
		// What deliverLoop does with a hand-off: walk it, then recycle.
		for rest := run.frames; len(rest) > 0; next++ {
			var p []byte
			if p, rest, err = msgcodec.NextFrame(rest, 0); err != nil || !bytes.Equal(p, payloads[next]) {
				t.Fatalf("frame %d: wrong bytes (err %v)", next, err)
			}
		}
		if run.retired != nil {
			if len(run.retired) > readBufBytes {
				if jumbo != nil || len(run.retired) != 1<<20+len(framed(nil)) {
					t.Fatalf("retired a second outsize buffer, of %d bytes", len(run.retired))
				}
				jumbo = run.retired
			}
			r.recycle(run.retired)
		}
		if jumbo != nil && (len(r.buf) != readBufBytes || &r.buf[0] == &jumbo[0]) {
			t.Fatalf("after the 1 MiB frame the reader fills a %d-byte buffer", len(r.buf))
		}
		for _, spare := range r.free {
			if len(spare) != readBufBytes {
				t.Fatalf("a %d-byte buffer was kept for reuse", len(spare))
			}
		}
		if err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
	}
	if next != len(payloads) || jumbo == nil {
		t.Fatalf("walked %d of %d frames; jumbo buffer seen: %v", next, len(payloads), jumbo != nil)
	}
}

// TestDrainAnswerLeavesTheDeliverStage: answering a drain round must not hold
// the lane the drain frame came on.  A task on node 1 sends node 0 four
// messages through a window of one, each after the credit grant for the last;
// node 0's drain frame arrives with the grant for the first right behind it.
// The node is not idle, so the answer waits for its tasks — and, made on the
// deliver stage, would keep the grant and so the task waiting as long.  Once
// the sink stops too, the node is idle and answers.
func TestDrainAnswerLeavesTheDeliverStage(t *testing.T) {
	to := core.TaskID{Cluster: 1, Slot: 1, Unique: 7}
	l := startLane(t, func(o *Options) {
		o.wire = wireConfig{CreditWindow: 1}
		sink := o.Register
		o.Register = func(vm *core.VM) {
			sink(vm)
			vm.Register("pusher", func(task *core.Task) {
				for i := int64(0); i < 4; i++ {
					if err := task.Send(to, "datum", core.Int(i)); err != nil {
						return
					}
				}
			})
		}
	})
	if _, err := l.n.VM().Initiate("pusher", core.OnCluster(2)); err != nil {
		t.Fatal(err)
	}
	next := func(want int64) {
		t.Helper()
		select {
		case got := <-l.msgs:
			if got != want {
				t.Fatalf("message %d arrived in place %d", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("message %d did not arrive\nnode log:\n%s", want, l.log)
		}
	}
	next(0)
	t0 := time.Now()
	l.write(append(framed(encodeDrain(1)), framed(encodeCredit(1))...), 1<<30)
	for i := int64(1); i < 4; i++ {
		next(i)
		l.write(framed(encodeCredit(1)), 1<<30)
	}
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("three messages through a window of one took %v during a drain round", took)
	}
	if err := l.n.VM().SendFromUser(l.sink, "stop"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-l.acks:
	case <-time.After(10 * time.Second):
		t.Fatalf("no drain ack\nnode log:\n%s", l.log)
	}
}
