package node

import (
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mmos"
	"repro/internal/obs"
	"repro/internal/pfi"
)

// FaultProfile shapes the injected network behaviour.
type FaultProfile struct {
	// Base is the fixed latency added to every frame.
	Base time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// DropRate is the per-attempt probability a frame is lost on the wire
	// and sent again after Retransmit, geometrically, capped at
	// maxRetransmits.  The last attempt always delivers: a send that
	// returned has happened on every schedule, so loss shows only as retry
	// latency.
	DropRate float64
	// Retransmit is the delay each dropped attempt adds before the retry.
	Retransmit time.Duration
	// BatchWindow models the TCP transport's sender-side coalescing: every
	// frame a lane accepts within one open window departs at its close (then
	// pays its own sampled delay), as a batch leaves in one write.  Windows
	// run on the backend clock.  Zero disables coalescing.
	BatchWindow time.Duration
}

// DefaultFaultProfile returns delays that reorder lanes on the virtual clock
// (where they cost nothing), with batch coalescing on.
func DefaultFaultProfile() FaultProfile {
	return FaultProfile{Base: 2 * time.Millisecond, Jitter: 8 * time.Millisecond, DropRate: 0.05, Retransmit: 25 * time.Millisecond, BatchWindow: 2 * time.Millisecond}
}

// maxRetransmits bounds the drop/retry loop per frame: after this many
// losses the next attempt is forced through.
const maxRetransmits = 4

// MaxDelay returns the worst-case delivery delay of one frame under the
// profile.  A failure detector's suspicion timeout must exceed one heartbeat
// interval plus this bound, or an unlucky peer is declared dead.
func (p FaultProfile) MaxDelay() time.Duration {
	return p.BatchWindow + p.Base + p.Jitter + maxRetransmits*p.Retransmit
}

// laneKey identifies one FIFO delay line: messages keep per-(src,dst) order,
// reply frames travel on a per-destination reply lane.
type laneKey struct {
	src, dst int
	reply    bool
}

// FaultMesh is the production hosting shape on a deterministic
// fault/latency network in one process: one VM per configured cluster, VM i
// hosting the i-th cluster in ascending order under NodeID i through an end
// of its own, its core.Options.Remote — what `pisces run -nodes N` makes with
// one cluster per node.  Every frame is delivered (core.VM.DeliverWire) after
// a seeded delay on the VMs' backend, so under -sim the network runs on the
// virtual clock and replays from the seed.  A lane is FIFO; lanes reorder
// freely against each other, the schedule freedom a real mesh has.
//
// In HA mode each end keeps what a node keeps — a retention toward each
// other end, the count of what landed from each, a buddyStore for the end
// before it — and Checkpoint and Kill drive them as a node's checkpoint and
// death do.
type FaultMesh struct {
	VMs []*core.VM

	profile FaultProfile
	ha      bool

	mu          sync.Mutex
	rng         *rand.Rand
	ends        []*end
	be          backend.Backend
	lanes       map[laneKey]time.Time
	batches     map[laneKey]time.Time
	outstanding int
	idleWaits   []backend.Gate
	delivered   int64
}

// end is one VM's attachment to the mesh.  In HA mode out[j] is its
// retention toward end j, in[j] what landed from end j, and logged its
// initiation log's count.  All but store are guarded by net.mu.
type end struct {
	net    *FaultMesh
	id     int
	vm     *core.VM
	dead   bool
	out    []retention
	in     []landed
	logged uint64
	store  *buddyStore
}

// landed counts the frames landed from one source end: n is the longest
// prefix of its numbering landed in full — what a checkpoint releases —
// ahead the numbers past it that landed early, off another lane.
type landed struct {
	n     uint64
	ahead map[uint64]bool
}

func (l *landed) land(idx uint64) {
	if idx != l.n+1 {
		if l.ahead == nil {
			l.ahead = make(map[uint64]bool)
		}
		l.ahead[idx] = true
		return
	}
	for l.n++; l.ahead[l.n+1]; l.n++ {
		delete(l.ahead, l.n+1)
	}
}

// NewFaultMesh boots the mesh for cfg on a fault network seeded with seed.
// opts(i) gives VM i's options; the mesh sets Hosted, Remote and NodeID, and
// runs HA mode when VM 0's ask for it.  The VMs share VM 0's registry (or a
// new disabled one), trace sinks and switches, so one trace, snapshot and
// flight recorder cover the mesh.  The same seed and VM schedule reproduce
// the same delays.
func NewFaultMesh(cfg *config.Configuration, seed int64, p FaultProfile, opts func(node int) core.Options) (*FaultMesh, error) {
	m := &FaultMesh{
		profile: p, rng: rand.New(rand.NewSource(seed)),
		lanes: make(map[laneKey]time.Time), batches: make(map[laneKey]time.Time),
	}
	clusters := cfg.ClusterNumbers()
	var reg *obs.Registry
	for i, n := range clusters {
		o := opts(i)
		if i == 0 {
			if o.Metrics == nil {
				o.Metrics = obs.New()
			}
			reg, m.ha = o.Metrics, o.HA
		} else {
			o.Metrics, o.TraceSinks = reg, nil
		}
		e := &end{net: m, id: i, out: make([]retention, len(clusters)), in: make([]landed, len(clusters)), store: newBuddyStore(len(clusters))}
		o.Hosted, o.Remote, o.NodeID = []int{n}, e, i
		vm, err := core.NewVM(cfg, o)
		if err != nil {
			m.Shutdown()
			return nil, err
		}
		m.mu.Lock()
		e.vm, m.be = vm, vm.Backend()
		m.ends = append(m.ends, e)
		m.mu.Unlock()
		m.VMs = append(m.VMs, vm)
	}
	return m, nil
}

// Run runs the program on the mesh: registered on every VM, MAIN started on
// VM 0, the terminal's, and the mesh drained — every VM waited for and the
// network flushed until a pass delivers nothing, since frames between VMs
// may start more work — before the program's error is read.
func (m *FaultMesh) Run(prog *pfi.Program, opts pfi.Options) error {
	for _, vm := range m.VMs[1:] {
		prog.Register(vm)
	}
	err := prog.Run(m.VMs[0], opts)
	for idle := false; !idle; {
		before := m.deliveries()
		for i := len(m.VMs) - 1; i >= 0; i-- {
			m.VMs[i].WaitIdle()
		}
		m.ends[0].Flush() // end 0, the terminal's, never fails
		idle = m.deliveries() == before
	}
	m.VMs[0].FlushUserOutput()
	if err == nil {
		err = prog.Err()
	}
	return err
}

// Shutdown shuts every VM down, the last booted first.
func (m *FaultMesh) Shutdown() {
	for i := len(m.VMs) - 1; i >= 0; i-- {
		m.VMs[i].Shutdown()
	}
}

// Checkpoint is one checkpoint of end node — a node's checkpointTick, its
// buddy's storeCheckpoint and its broadcastMarks in one step: count what
// landed from each end, cut, store the blob and log count with the buddy,
// and release each end's retention toward node up to the counts.
func (m *FaultMesh) Checkpoint(node int) error {
	e := m.ends[node]
	m.mu.Lock()
	marks := make([]uint64, len(e.in))
	for i := range e.in {
		marks[i] = e.in[i].n
	}
	covered, buddy := e.logged, m.nextLiveLocked(node)
	m.mu.Unlock()
	if buddy < 0 {
		return nil
	}
	blob, err := e.vm.Checkpoint(e.vm.HostedClusters()...)
	if err != nil {
		return err
	}
	m.ends[buddy].store.store(node, covered, blob)
	m.mu.Lock()
	for i, count := range marks {
		m.ends[i].out[node].release(count)
	}
	m.mu.Unlock()
	return nil
}

// Kill is the death of end node and its recovery, as on a mesh: the end
// fails — nothing it sends leaves, nothing lands on it — and its VM stops;
// the next live end adopts its clusters, restores them from what it holds as
// their buddy (no checkpoint: they restart empty), and takes each live end's
// retention toward the dead one.  Returns the number of frames replayed.
// End 0 hosts the terminal and is not recoverable.
func (m *FaultMesh) Kill(node int) (int, error) {
	adopter := m.stop(node)
	if adopter == nil {
		return 0, nil
	}
	return m.restore(adopter, node)
}

// stop fails end node, stops its VM and has the next live end, which it
// returns, adopt its clusters.
func (m *FaultMesh) stop(node int) *end {
	m.mu.Lock()
	m.ends[node].dead = true
	a := m.nextLiveLocked(node)
	m.mu.Unlock()
	dead := m.ends[node].vm
	dead.Shutdown()
	if a < 0 {
		return nil
	}
	m.ends[a].vm.AdoptClusters(dead.HostedClusters()...)
	return m.ends[a]
}

// restore rebuilds the dead end's clusters on the adopter and replays each
// live end's retention toward the dead end into it, past the delay line.
func (m *FaultMesh) restore(adopter *end, dead int) (int, error) {
	if err := adopter.vm.Restore(adopter.store.held(dead)); err != nil {
		return 0, err
	}
	clusters, total := m.ends[dead].vm.HostedClusters(), 0
	for _, e := range m.ends {
		m.mu.Lock()
		var frames [][]byte
		if !e.dead {
			frames = e.out[dead].take()
		}
		m.mu.Unlock()
		n, _ := replay(frames, clusters, func(payload []byte) error {
			adopter.take(payload)
			return nil
		})
		total += n
	}
	return total, nil
}

// nextLiveLocked is nextLive over the mesh's ends.  Callers hold m.mu.
func (m *FaultMesh) nextLiveLocked(after int) int {
	return nextLive(after, len(m.ends), func(id int) bool { return m.ends[id].dead })
}

// deliveries counts the frames the network has delivered.
func (m *FaultMesh) deliveries() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delivered
}

// ownerLocked returns the end a frame for the cluster goes to: the live end
// hosting it or, between a death and the adoption, the dead one, whose
// retention keeps the frame for the adopter.  Callers hold m.mu.
func (m *FaultMesh) ownerLocked(cluster int) (owner *end) {
	for _, e := range m.ends {
		if (owner == nil || owner.dead) && slices.Contains(e.vm.HostedClusters(), cluster) {
			owner = e
		}
	}
	return owner
}

// Send delays the frame on its lane and delivers it to the VM hosting its
// destination — a broadcast to every other VM, each fanning it out to the
// tasks it hosts.  The frame goes back to the sender's pool when Send
// returns; the delay line keeps its wire encoding.
func (e *end) Send(f *core.WireFrame) error {
	if err := checkWireType(e.id, f); err != nil {
		return err
	}
	return e.send(laneKey{src: f.Src, dst: f.Dst}, f.Kind == core.FrameBroadcast && f.Dst == 0, f.Dst, encodeWireFrame(nil, f))
}

// SendReply delays an initiate reply on the destination's reply lane.
func (e *end) SendReply(dst int, replyID uint64, id core.TaskID) error {
	return e.send(laneKey{dst: dst, reply: true}, false, dst, encodeInitReply(nil, replyID, id))
}

// hop is an end a frame goes to, and its number in the retention toward it.
type hop struct {
	to  *end
	idx uint64
}

// send routes one encoded frame — to every other end when everyone, else to
// the end hosting cluster dst — keeps it in the retention toward each in HA
// mode, and when its seeded delay on the lane has passed hands it to those
// still alive.  A failed end sends nothing, and a retention whose backlog
// went to an adopter takes nothing more: the adopter's own lane carries it.
func (e *end) send(key laneKey, everyone bool, dst int, payload []byte) error {
	m := e.net
	m.mu.Lock()
	if e.dead {
		m.mu.Unlock()
		return nil
	}
	var hops []hop
	add := func(o *end) {
		if r := &e.out[o.id]; !r.replayed {
			h := hop{to: o}
			if m.ha {
				h.idx = r.keep(payload)
			}
			hops = append(hops, h)
		}
	}
	if everyone {
		for _, o := range m.ends {
			if o != e {
				add(o)
			}
		}
	} else if o := m.ownerLocked(dst); o != nil {
		add(o)
	}
	delay := m.profile.Base
	if m.profile.Jitter > 0 {
		delay += time.Duration(m.rng.Int63n(int64(m.profile.Jitter)))
	}
	// Drop/retry loop, sampled now so the seed and the send order fix the
	// whole retry history.
	if m.profile.DropRate > 0 {
		for tries := 0; tries < maxRetransmits && m.rng.Float64() < m.profile.DropRate; tries++ {
			delay += m.profile.Retransmit
		}
	}
	now := m.be.Now()
	// Batch coalescing: a lane's frames share the open window's departure
	// time; the first frame past its close opens the next window.
	depart := now
	if w := m.profile.BatchWindow; w > 0 {
		if dl, ok := m.batches[key]; ok && now.Before(dl) {
			depart = dl
		} else {
			depart = now.Add(w)
			m.batches[key] = depart
		}
	}
	due := depart.Add(delay)
	// Per-lane FIFO: due times strictly monotone, so not even a timer tie
	// reorders a lane.
	if last, ok := m.lanes[key]; ok && !due.After(last) {
		due = last.Add(time.Nanosecond)
	}
	m.lanes[key] = due
	m.outstanding++
	be := m.be
	m.mu.Unlock()

	be.AfterFunc(due.Sub(now), func() {
		for _, h := range hops {
			if h.to.isDead() {
				continue
			}
			h.to.take(payload)
			if m.ha {
				m.mu.Lock()
				h.to.in[e.id].land(h.idx)
				m.mu.Unlock()
			}
		}
		m.mu.Lock()
		m.outstanding--
		m.delivered++
		var wake []backend.Gate
		if m.outstanding == 0 {
			wake, m.idleWaits = m.idleWaits, nil
		}
		m.mu.Unlock()
		for _, g := range wake {
			g.Open()
		}
	})
	return nil
}

// take decodes a frame that reached the end and hands it to the VM.
func (e *end) take(payload []byte) {
	var m frame
	if _, err := decodeFrame(&m, payload); err != nil {
		return
	}
	if m.kind == fInitReply {
		e.vm.DeliverWireReply(m.replyID, m.id)
		return
	}
	_ = e.vm.DeliverWire(&m.msg)
}

func (e *end) isDead() bool {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	return e.dead
}

// LogInit hands an initiation the end's VM started to the end's buddy before
// the child runs, as a node's transport does, without waiting.  End 0 is not
// recoverable and keeps no log.
func (e *end) LogInit(_ *mmos.Proc, l core.LoggedInit) {
	m := e.net
	m.mu.Lock()
	defer m.mu.Unlock()
	if b := m.nextLiveLocked(e.id); m.ha && !e.dead && e.id != 0 && b >= 0 {
		e.logged++
		m.ends[b].store.hold(e.id, e.logged, l)
	}
}

// Flush blocks until every frame accepted before the call has been
// delivered; under -sim the wait pumps the scheduler, so the virtual clock
// advances to the pending due times.  A failed end holds nothing: its Flush
// returns at once.
func (e *end) Flush() {
	m := e.net
	m.mu.Lock()
	if e.dead || m.outstanding == 0 {
		m.mu.Unlock()
		return
	}
	g := m.be.NewGate()
	m.idleWaits = append(m.idleWaits, g)
	m.mu.Unlock()
	g.Wait()
}

// Close drains the delay line.
func (e *end) Close() error {
	e.Flush()
	return nil
}
