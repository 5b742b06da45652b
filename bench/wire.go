package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/obs"
)

// fanShape is one windowed fan-in: two producers send msgs messages of one
// REAL array to one collector, a flush after every window, and wait for the
// collector's credit before the next window.
type fanShape struct {
	msgs   int // per trial, both producers together
	reals  int // array length: 8 reals = 64 B payload, 512 = 4 KiB
	window int
}

const producers = 2

var (
	wireFaninShape = fanShape{msgs: 102_400, reals: 8, window: 128}
	wireBulkShape  = fanShape{msgs: 30_720, reals: 512, window: 16}
	// pfShape is the fan-in of programs/fanin.pf, whose DATUM carries 8
	// scalar REALs; the Go ladder rungs run it with an 8-REAL array.
	pfShape = fanShape{msgs: pfMsgs, reals: 8, window: pfWindow}
)

func (s fanShape) scaled(scale float64) fanShape {
	s.msgs = max(int(float64(s.msgs)*scale)/(producers*s.window), 1) * producers * s.window
	return s
}

const trialTimeout = 60 * time.Second

// fanin holds the tasktypes of one fan-in and the channels they report on.
// The same tasktypes run on every rung of the ladder: across the node wire,
// across two clusters of one VM, and inside one cluster.
type fanin struct {
	shape     fanShape
	ready     chan core.TaskID
	collected chan collected
	rounds    chan []float64 // one slice of window round-trips (ms) per producer
	rtts      chan []float64 // the pinger's single-message round trips (us)
	errs      chan error
}

type collected struct {
	got      int
	checksum float64
}

func newFanin(shape fanShape) *fanin {
	return &fanin{
		shape:     shape,
		ready:     make(chan core.TaskID, 1),
		collected: make(chan collected, 1),
		rounds:    make(chan []float64, producers),
		rtts:      make(chan []float64, 1),
		errs:      make(chan error, producers+1),
	}
}

// register installs collector(total, flushes) and producer(to, count, base),
// and the echo and pinger(to, rounds) pair of the round-trip rung.
func (f *fanin) register(vm *core.VM) {
	vm.Register("echo", func(t *core.Task) {
		f.ready <- t.ID()
		for {
			m, err := t.AcceptOne("ping", "stop")
			if err != nil {
				f.errs <- fmt.Errorf("echo: %w", err)
				return
			}
			if m.Type == "stop" {
				return
			}
			if err := t.SendSender("pong"); err != nil {
				f.errs <- fmt.Errorf("echo: %w", err)
				return
			}
		}
	})
	vm.Register("pinger", func(t *core.Task) {
		to := core.MustID(t.Arg(0))
		rounds := int(core.MustInt(t.Arg(1)))
		rtts := make([]float64, 0, rounds)
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			err := t.Send(to, "ping")
			if err == nil {
				_, err = t.AcceptOne("pong")
			}
			if err != nil {
				f.errs <- fmt.Errorf("pinger: %w", err)
				return
			}
			rtts = append(rtts, float64(time.Since(t0))/float64(time.Microsecond))
		}
		if err := t.Send(to, "stop"); err != nil {
			f.errs <- fmt.Errorf("pinger: %w", err)
			return
		}
		f.rtts <- rtts
	})
	types := []core.TypeCount{{Type: "datum"}, {Type: "flush"}}
	drain := []core.TypeCount{{Type: "datum", Count: core.All}, {Type: "flush", Count: core.All}}
	vm.Register("collector", func(t *core.Task) {
		total := int(core.MustInt(t.Arg(0)))
		flushes := int(core.MustInt(t.Arg(1)))
		f.ready <- t.ID()
		var c collected
		answered := 0
		handle := func(res *core.AcceptResult) error {
			for _, m := range res.Accepted {
				switch m.Type {
				case "datum":
					p := core.MustReals(m.Arg(0))
					c.got++
					c.checksum += p[0] + p[len(p)-1]
				case "flush":
					answered++
					if err := t.Send(m.Sender, "credit"); err != nil {
						return err
					}
				}
			}
			t.RecycleAccept(res)
			return nil
		}
		// Every flush is answered before the collector leaves, or a producer
		// would sit in its credit wait until the ACCEPT timeout.
		for c.got < total || answered < flushes {
			// Block for one message, then take whatever else has arrived: an
			// ALL-only ACCEPT never waits.
			for _, spec := range []core.AcceptSpec{{Total: 1, Types: types, Delay: core.Forever}, {Types: drain}} {
				res, err := t.Accept(spec)
				if err == nil {
					err = handle(res)
				}
				if err != nil {
					f.errs <- fmt.Errorf("collector: %w", err)
					return
				}
			}
		}
		f.collected <- c
	})
	vm.Register("producer", func(t *core.Task) {
		to := core.MustID(t.Arg(0))
		count := int(core.MustInt(t.Arg(1)))
		base := core.MustReal(t.Arg(2))
		payload := make([]float64, f.shape.reals)
		for i := range payload {
			payload[i] = base + float64(i)
		}
		rounds := make([]float64, 0, count/f.shape.window+1)
		for sent := 0; sent < count; {
			n := min(f.shape.window, count-sent)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := t.Send(to, "datum", core.Reals(payload)); err != nil {
					f.errs <- fmt.Errorf("producer: %w", err)
					return
				}
			}
			sent += n
			err := t.Send(to, "flush")
			if err == nil {
				_, err = t.AcceptOne("credit")
			}
			if err != nil {
				f.errs <- fmt.Errorf("producer flush: %w", err)
				return
			}
			rounds = append(rounds, float64(time.Since(t0))/float64(time.Millisecond))
		}
		f.rounds <- rounds
	})
}

// fanTrial is what one fan-in trial measured.
type fanTrial struct {
	wall     time.Duration
	cpu      time.Duration
	roundsMS []float64 // ascending
	mallocs  uint64
	bytes    uint64
}

// trial runs one fan-in of msgs messages: the collector on cluster cc of
// collectorVM, the producers on cluster pc of producerVM.  bases are the seeded payload bases,
// one per producer.  It verifies the delivered count and checksum.
func (f *fanin) trial(collectorVM, producerVM *core.VM, cc, pc, msgs int, bases [producers]int) (fanTrial, error) {
	per := msgs / producers
	flushes := producers * ((per + f.shape.window - 1) / f.shape.window)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id, err := collectorVM.Initiate("collector", core.OnCluster(cc), core.Int(int64(msgs)), core.Int(int64(flushes)))
	if err != nil {
		return fanTrial{}, fmt.Errorf("initiate collector: %w", err)
	}
	timeout := time.After(trialTimeout)
	select {
	case <-f.ready:
	case <-timeout:
		return fanTrial{}, fmt.Errorf("collector did not start")
	}
	cpu0, t0 := selfCPU(), time.Now()
	for p := 0; p < producers; p++ {
		if _, err := producerVM.Initiate("producer", core.OnCluster(pc), core.ID(id), core.Int(int64(per)), core.Real(float64(bases[p]))); err != nil {
			return fanTrial{}, fmt.Errorf("initiate producer %d: %w", p, err)
		}
	}
	var c collected
	select {
	case c = <-f.collected:
	case err := <-f.errs:
		return fanTrial{}, err
	case <-timeout:
		return fanTrial{}, fmt.Errorf("fan-in did not finish within %v", trialTimeout)
	}
	out := fanTrial{wall: time.Since(t0), cpu: selfCPU() - cpu0}
	for p := 0; p < producers; p++ {
		select {
		case r := <-f.rounds:
			out.roundsMS = append(out.roundsMS, r...)
		case err := <-f.errs:
			return fanTrial{}, err
		case <-timeout:
			return fanTrial{}, fmt.Errorf("producers did not finish within %v", trialTimeout)
		}
	}
	producerVM.WaitIdle()
	collectorVM.WaitIdle()
	runtime.ReadMemStats(&after)
	out.mallocs, out.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	sort.Float64s(out.roundsMS)

	want := 0.0
	for _, b := range bases {
		want += float64(per) * float64(2*b+f.shape.reals-1)
	}
	if c.got != msgs || c.checksum != want {
		return out, fmt.Errorf("collector got %d messages checksum %v, want %d checksum %v", c.got, c.checksum, msgs, want)
	}
	return out, nil
}

// payloadBases draws the seeded payload values: small integers, so every
// checksum is exact in float64.
func payloadBases(rng *rand.Rand) [producers]int {
	var b [producers]int
	for i := range b {
		b[i] = 1 + rng.Intn(1000)
	}
	return b
}

// mesh is two node.Start nodes in the harness process over loopback TCP:
// node 0 hosts cluster 1 (the collector), node 1 cluster 2 (the producers).
type mesh struct {
	nodes        [2]*node.Node
	regs         [2]*obs.Registry
	log          *lockedBuffer
	followerDone chan struct{}
}

// lockedBuffer is the node log: both nodes write it concurrently.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func startMesh(register func(*core.VM)) (*mesh, error) {
	m := &mesh{log: &lockedBuffer{}, followerDone: make(chan struct{})}
	cfg := config.Simple(2, 4)
	var listeners [2]net.Listener
	addrs := make([]string, 2)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	var errs [2]error
	var wg sync.WaitGroup
	for i := range m.nodes {
		m.regs[i] = obs.New()
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.nodes[i], errs[i] = node.Start(node.Options{
				NodeID: i, Addrs: addrs, Listener: listeners[i],
				Config: cfg, Register: register, Log: m.log, Metrics: m.regs[i],
				AcceptTimeout: 30 * time.Second, ConnectTimeout: 20 * time.Second,
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, n := range m.nodes {
				if n != nil {
					_ = n.Close()
				}
			}
			return nil, fmt.Errorf("node.Start: %w", err)
		}
	}
	go func() {
		defer close(m.followerDone)
		_ = m.nodes[1].ServeUntilShutdown()
	}()
	return m, nil
}

// close drains and stops the mesh and reports dropped traffic or a mesh
// that did not quiesce.
func (m *mesh) close() error {
	err := m.nodes[0].Close()
	<-m.followerDone
	if s := m.log.String(); err == nil && strings.Contains(s, "dropping") {
		err = fmt.Errorf("transport dropped traffic:\n%s", s)
	}
	return err
}

// pingPong sends one message at a time from cluster pc of producerVM to an
// echo on cluster cc of collectorVM and back, and returns the ascending round
// trips in microseconds.
func (f *fanin) pingPong(collectorVM, producerVM *core.VM, cc, pc, rounds int) ([]float64, error) {
	id, err := collectorVM.Initiate("echo", core.OnCluster(cc))
	if err != nil {
		return nil, fmt.Errorf("initiate echo: %w", err)
	}
	timeout := time.After(trialTimeout)
	select {
	case <-f.ready:
	case <-timeout:
		return nil, fmt.Errorf("echo did not start")
	}
	if _, err := producerVM.Initiate("pinger", core.OnCluster(pc), core.ID(id), core.Int(int64(rounds))); err != nil {
		return nil, fmt.Errorf("initiate pinger: %w", err)
	}
	select {
	case rtts := <-f.rtts:
		producerVM.WaitIdle()
		collectorVM.WaitIdle()
		sort.Float64s(rtts)
		return rtts, nil
	case err := <-f.errs:
		return nil, err
	case <-timeout:
		return nil, fmt.Errorf("ping-pong did not finish within %v", trialTimeout)
	}
}

// wireSetUp starts a mesh with the fan-in registered and runs one warm-up
// trial at a tenth of the trial size.
func wireSetUp(shape fanShape, bases [producers]int) (*mesh, *fanin, error) {
	f := newFanin(shape)
	m, err := startMesh(f.register)
	if err != nil {
		return nil, nil, err
	}
	if _, err := f.wireTrial(m, shape.scaled(0.1).msgs, bases); err != nil {
		_ = m.close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return m, f, nil
}

// wireTrial runs one fan-in across the mesh: collector on node 0, producers
// on node 1.
func (f *fanin) wireTrial(m *mesh, msgs int, bases [producers]int) (fanTrial, error) {
	return f.trial(m.nodes[0].VM(), m.nodes[1].VM(), 1, 2, msgs, bases)
}

// wireTrialsPerMesh is how many trials run on one mesh before the next
// mesh is started.
const wireTrialsPerMesh = 2

// runWire measures a wire workload: a fresh mesh for every few fixed-count
// trials, until the run's seconds are used.
func runWire(e *env, shape fanShape) (*result, error) {
	shape = shape.scaled(e.scale)
	rng := rand.New(rand.NewSource(e.seed))
	r := e.newResult()
	s := series{}
	// The nodes live in the harness process, whose high-water mark would
	// otherwise still hold an earlier workload's peak (-workload all).
	// Resetting it can fail on a locked-down /proc; the mark then stands.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	err := e.measure(s, wireTrialsPerMesh, func() (instance, error) {
		m, f, err := wireSetUp(shape, payloadBases(rng))
		if err != nil {
			return instance{}, err
		}
		broken := false
		return instance{
			trial: func() error {
				r.Attempted += int64(shape.msgs)
				tr, err := f.wireTrial(m, shape.msgs, payloadBases(rng))
				if err != nil {
					r.fail(int64(shape.msgs), "%v", err)
					broken = true
					return errBroken
				}
				s.add("ops_per_s", float64(shape.msgs)/tr.wall.Seconds())
				s.add("cpu_us_per_op", float64(tr.cpu)/float64(time.Microsecond)/float64(shape.msgs))
				return nil
			},
			close: func() error {
				err := m.close()
				if err != nil && !broken {
					// Dropped traffic or a mesh that did not quiesce, after
					// trials that looked right: count it against them.
					r.fail(int64(wireTrialsPerMesh*shape.msgs), "%v", err)
				}
				return nil
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	s.add("peak_rss_mb", float64(vmHWMKB(os.Getpid()))/1024)
	s.intoEndToEnd(r)
	return r, nil
}
