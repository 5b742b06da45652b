package node

import (
	"cmp"
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
	// DropRate is the per-attempt probability a frame is "lost on the wire".
	// A lost attempt is really dropped — it never delivers — and the link's
	// retry loop sends the frame again after Retransmit, so one frame can be
	// dropped several times in a row (geometrically, capped at
	// maxRetransmits so a hostile PRNG cannot stall a lane unboundedly).
	// The LAST attempt always delivers: the run-time's send semantics (a
	// send that returned has happened) must hold on every schedule, so loss
	// is visible only as retry latency.
	DropRate float64
	// Retransmit is the delay each dropped attempt adds before the retry.
	Retransmit time.Duration
	// BatchWindow models the TCP transport's sender-side frame coalescing:
	// every frame a lane accepts within one open window departs together at
	// the window's close (then pays its own sampled delay on top), the way a
	// real batch leaves in one write syscall.  Windows are tracked on the
	// backend clock, so under -sim batching is virtual-time deterministic
	// like every other fault.  Zero disables coalescing (frames depart as
	// they are sent).
	BatchWindow time.Duration
}

// DefaultFaultProfile returns delays large enough to reorder traffic between
// lanes under the sim backend's virtual clock without slowing wall-clock
// test runs (virtual time costs nothing), with batch coalescing enabled so
// the conformance sweep exercises the batched wire path's timing.
func DefaultFaultProfile() FaultProfile {
	return FaultProfile{Base: 2 * time.Millisecond, Jitter: 8 * time.Millisecond, DropRate: 0.05, Retransmit: 25 * time.Millisecond, BatchWindow: 2 * time.Millisecond}
}

// maxRetransmits bounds the drop/retry loop per frame: after this many
// losses the next attempt is forced through.
const maxRetransmits = 4

// MaxDelay returns the worst-case delivery delay of a single frame under the
// profile: full batch window, base latency, maximum jitter, and every
// retransmit slot consumed.  The failure detector's suspicion timeout must
// exceed one heartbeat interval plus this bound or a merely unlucky peer
// gets declared dead.
func (p FaultProfile) MaxDelay() time.Duration {
	return p.BatchWindow + p.Base + p.Jitter + maxRetransmits*p.Retransmit
}

// laneKey identifies one FIFO delay line: messages keep per-(src,dst) order,
// reply frames travel on a per-destination reply lane.
type laneKey struct {
	src, dst int
	reply    bool
}

// FaultTransport is a deterministic fault/latency-injecting network between
// the VMs of one process: every frame is delivered (core.VM.DeliverWire)
// after a seeded delay, scheduled on the VMs' backend so that under -sim the
// whole network runs on the virtual clock and replays byte-identically from
// the seed.  Ordering stays per-lane FIFO — due times within a lane are
// forced monotone, modelling a link that delays but never reorders one
// sender's traffic — while different lanes reorder freely against each
// other, which is exactly the schedule freedom a real multi-node mesh has
// and a single-process run never exercises.
//
// Each VM attaches through an end of its own, its core.Options.Remote; a
// frame is handed to the live VM that hosts its destination cluster when it
// is delivered.  FaultMesh boots the VMs in the production hosting shape.
type FaultTransport struct {
	profile FaultProfile

	mu          sync.Mutex
	rng         *rand.Rand
	ends        []*end
	be          backend.Backend
	lanes       map[laneKey]time.Time
	batches     map[laneKey]time.Time
	outstanding int
	idleWaits   []backend.Gate
	delivered   int64

	// retained holds, per destination cluster, copies of every message frame
	// delivered to it (or lost with its dead host) since the cluster's last
	// MarkEpoch, and inits the initiations its task controller logged since
	// (LogInit).  A kill/restore harness checkpoints a cluster, calls
	// MarkEpoch, and on failure passes LoggedInits to the adopter's Restore
	// and hands the frames over with ReplayRetained — the senders have moved
	// on and will never resend the frames themselves, and the ids the dead
	// controller assigned died with it.
	// Retention only runs for clusters that have had MarkEpoch called, so
	// fault-only runs pay nothing.
	retained map[int][]*core.WireFrame
	inits    map[int][]core.LoggedInit
	// inflight holds, by send order, the message frames on their way to a
	// cluster with retention armed.  A frame still on its way when the VM
	// hosting its cluster dies is handed to the adopter by ReplayRetained,
	// ahead of anything its sender sends the adopter from then on — as a
	// node's transport replays what a dead peer never acknowledged before it
	// routes anew — and is not delivered again when it lands.
	inflight map[*core.WireFrame]uint64
	sent     uint64
}

// end is one VM's attachment to a FaultTransport: the VM's
// core.Options.Remote, bound to it once the VM is booted.  dead is guarded by
// net.mu.
type end struct {
	net  *FaultTransport
	vm   *core.VM
	dead bool
}

// FaultMesh is the production hosting shape on one fault network: one VM per
// configured cluster, VM i hosting the i-th cluster in ascending order under
// NodeID i through its own end — the partition `pisces run -nodes N` makes
// with one cluster per node.  Every cross-cluster message crosses the
// network, and a message between clusters is what it is on a real mesh: a
// send to a task that is gone is dropped by its receiver, not refused at the
// sender.
type FaultMesh struct {
	*FaultTransport
	VMs []*core.VM
}

// NewFaultMesh boots the mesh for cfg on a fault network seeded with seed.
// opts(i) gives VM i's options; the mesh sets their Hosted, Remote and
// NodeID.  The VMs share one registry — VM 0's Metrics, or a new disabled one
// — and with it VM 0's trace sinks and the trace switches, so one trace, one
// metric snapshot and one flight recorder cover the whole mesh.  The same
// seed and the same VM schedule reproduce the same delays.
func NewFaultMesh(cfg *config.Configuration, seed int64, p FaultProfile, opts func(node int) core.Options) (*FaultMesh, error) {
	m := &FaultMesh{FaultTransport: &FaultTransport{
		profile: p, rng: rand.New(rand.NewSource(seed)),
		lanes: make(map[laneKey]time.Time), batches: make(map[laneKey]time.Time),
	}}
	var reg *obs.Registry
	for i, n := range cfg.ClusterNumbers() {
		o := opts(i)
		if i == 0 {
			if o.Metrics == nil {
				o.Metrics = obs.New()
			}
			reg = o.Metrics
		} else {
			o.Metrics, o.TraceSinks = reg, nil
		}
		e := &end{net: m.FaultTransport}
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
// VM 0, the terminal's, and the whole mesh drained before the program's error
// is read.  MAIN's VM going idle is not the mesh going idle: another VM's
// tasks may still be running, and the frames between them may start more
// work on either; each VM is waited for and the network flushed, until a pass
// delivers nothing.
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
		m.Flush()
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

// Fail is the death of VM node as its peers see it: from now on every frame
// and reply it sends is dropped, no frame is delivered to it, and Flush on
// its end returns at once.  Frames lost to it are still retained for the
// clusters it hosted, so a survivor that adopts them can ReplayRetained.
func (m *FaultMesh) Fail(node int) {
	m.mu.Lock()
	m.ends[node].dead = true
	m.mu.Unlock()
}

// deliveries counts the frames the network has delivered.
func (n *FaultTransport) deliveries() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered
}

// hostsLocked returns the live end whose VM hosts the cluster, nil when none
// does.  Callers hold n.mu.
func (n *FaultTransport) hostsLocked(cluster int) *end {
	for _, e := range n.ends {
		if !e.dead && slices.Contains(e.vm.HostedClusters(), cluster) {
			return e
		}
	}
	return nil
}

// schedule computes the frame's due time on its lane and arranges fn to run
// then.  Callers hold no locks.
func (n *FaultTransport) schedule(key laneKey, fn func()) error {
	n.mu.Lock()
	delay := n.profile.Base
	if n.profile.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.profile.Jitter)))
	}
	// Drop/retry loop: each attempt is lost with DropRate, pays Retransmit,
	// and tries again; the attempt after maxRetransmits losses always gets
	// through.  Sampled at schedule time so the whole retry history is fixed
	// by the seed and the send order.
	if n.profile.DropRate > 0 {
		for tries := 0; tries < maxRetransmits && n.rng.Float64() < n.profile.DropRate; tries++ {
			delay += n.profile.Retransmit
		}
	}
	now := n.be.Now()
	// Batch coalescing: a lane's frames share the open batch window's
	// departure time, then each pays its sampled wire delay from there.  The
	// first frame past the close opens the next window.
	depart := now
	if w := n.profile.BatchWindow; w > 0 {
		if dl, ok := n.batches[key]; ok && now.Before(dl) {
			depart = dl
		} else {
			depart = now.Add(w)
			n.batches[key] = depart
		}
	}
	due := depart.Add(delay)
	// Per-lane FIFO: a frame never fires before its predecessor on the same
	// lane.  The extra nanosecond keeps due times strictly monotone so timer
	// ties cannot reorder a lane even in principle.
	if last, ok := n.lanes[key]; ok && !due.After(last) {
		due = last.Add(time.Nanosecond)
	}
	n.lanes[key] = due
	n.outstanding++
	be := n.be
	n.mu.Unlock()

	be.AfterFunc(due.Sub(now), func() {
		fn()
		n.mu.Lock()
		n.outstanding--
		n.delivered++
		var wake []backend.Gate
		if n.outstanding == 0 {
			wake, n.idleWaits = n.idleWaits, nil
		}
		n.mu.Unlock()
		for _, g := range wake {
			g.Open()
		}
	})
	return nil
}

// Send delays the frame on its lane and delivers it with DeliverWire to the
// VM hosting its destination then — a broadcast to every other VM, each
// fanning it out to the tasks it hosts.
func (e *end) Send(f *core.WireFrame) error {
	if e.isDead() {
		return nil
	}
	n := e.net
	// The frame and its payload buffer go back to the sender's pool when Send
	// returns: the delayed frame needs its own copy.
	g := *f
	g.Payload = append([]byte(nil), f.Payload...)
	n.mu.Lock()
	_, tracked := n.retained[g.Dst]
	if tracked = tracked && g.Kind == core.FrameMessage; tracked {
		n.sent++
		n.inflight[&g] = n.sent
	}
	n.mu.Unlock()
	return n.schedule(laneKey{src: f.Src, dst: f.Dst}, func() {
		n.mu.Lock()
		if _, flying := n.inflight[&g]; tracked && !flying {
			n.mu.Unlock() // ReplayRetained delivered it
			return
		}
		delete(n.inflight, &g)
		var to []*end
		if g.Kind == core.FrameBroadcast {
			for _, o := range n.ends {
				if o != e {
					to = append(to, o)
				}
			}
		} else if h := n.hostsLocked(g.Dst); h != nil {
			to = []*end{h}
		}
		n.mu.Unlock()
		for _, o := range to {
			if !o.isDead() {
				_ = o.vm.DeliverWire(&g)
			}
		}
		n.retain(&g, to)
	})
}

func (e *end) isDead() bool {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	return e.dead
}

// retain records a delivered frame for possible ReplayRetained, when its
// destination cluster has retention armed.  A broadcast is kept once for
// every armed cluster a VM it went to hosts, narrowed to that cluster, so its
// replay reaches only the tasks the cluster's restore lost.
func (n *FaultTransport) retain(f *core.WireFrame, to []*end) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if f.Kind != core.FrameBroadcast || f.Dst != 0 {
		if frames, ok := n.retained[f.Dst]; ok {
			n.retained[f.Dst] = append(frames, f)
		}
		return
	}
	for _, o := range to {
		for _, c := range o.vm.HostedClusters() {
			if frames, ok := n.retained[c]; ok {
				g := *f
				g.Dst = c
				n.retained[c] = append(frames, &g)
			}
		}
	}
}

// LogInit keeps an initiation the end's VM started on a cluster with
// retention armed, for the Restore of the VM that adopts the cluster.  The
// network takes it before the child runs, so no effect of the child can reach
// a survivor ahead of its id; it never waits.
func (e *end) LogInit(_ *mmos.Proc, l core.LoggedInit) {
	n := e.net
	n.mu.Lock()
	if _, ok := n.retained[l.Cluster]; ok && !e.dead {
		n.inits[l.Cluster] = append(n.inits[l.Cluster], l)
	}
	n.mu.Unlock()
}

// LoggedInits returns the initiations logged for the cluster since its last
// MarkEpoch: what the adopter's Restore plans.
func (n *FaultTransport) LoggedInits(cluster int) []core.LoggedInit {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Clone(n.inits[cluster])
}

// MarkEpoch arms (or re-arms) retention for a destination cluster: frames
// delivered to it from now on are kept until the next MarkEpoch.  A recovery
// harness calls it immediately after every Checkpoint of that cluster, so
// the retained traffic is exactly the post-checkpoint delta a restore needs
// re-delivered.
func (n *FaultTransport) MarkEpoch(cluster int) {
	n.mu.Lock()
	if n.retained == nil {
		n.retained = make(map[int][]*core.WireFrame)
		n.inits = make(map[int][]core.LoggedInit)
		n.inflight = make(map[*core.WireFrame]uint64)
	}
	n.retained[cluster] = nil
	n.inits[cluster] = nil
	n.mu.Unlock()
}

// ReplayRetained hands the cluster's post-checkpoint frames to the VM hosting
// it now: every frame delivered to the cluster since the last MarkEpoch is
// re-injected in original delivery order, bypassing the delay line (the
// frames already paid their delays once), and after them every frame still
// on its way to the cluster, in send order.  Called after core.Restore; the
// restored tasks' duplicate-suppression floors admit each frame at most once.
// Returns the number of frames re-injected.
func (n *FaultTransport) ReplayRetained(cluster int) int {
	n.mu.Lock()
	h := n.hostsLocked(cluster)
	if h == nil {
		n.mu.Unlock()
		return 0
	}
	frames := n.retained[cluster]
	var late []*core.WireFrame
	for f := range n.inflight {
		if f.Dst == cluster {
			late = append(late, f)
		}
	}
	slices.SortFunc(late, func(a, b *core.WireFrame) int { return cmp.Compare(n.inflight[a], n.inflight[b]) })
	for _, f := range late {
		delete(n.inflight, f)
	}
	n.mu.Unlock()
	for _, f := range frames {
		g := *f
		_ = h.vm.DeliverWire(&g)
	}
	for _, f := range late {
		_ = h.vm.DeliverWire(f)
		n.retain(f, nil)
	}
	return len(frames) + len(late)
}

// SendReply delays an initiate reply on the destination's reply lane.
func (e *end) SendReply(dst int, replyID uint64, id core.TaskID) error {
	if e.isDead() {
		return nil
	}
	n := e.net
	return n.schedule(laneKey{dst: dst, reply: true}, func() {
		n.mu.Lock()
		h := n.hostsLocked(dst)
		n.mu.Unlock()
		if h != nil && !h.isDead() {
			h.vm.DeliverWireReply(replyID, id)
		}
	})
}

// Flush blocks until every frame accepted before the call has been
// delivered.  Under -sim the wait pumps the scheduler, so the virtual clock
// advances to the pending due times and the delay line empties
// deterministically.
func (n *FaultTransport) Flush() {
	n.mu.Lock()
	if n.outstanding == 0 {
		n.mu.Unlock()
		return
	}
	g := n.be.NewGate()
	n.idleWaits = append(n.idleWaits, g)
	n.mu.Unlock()
	g.Wait()
}

// Flush is the network's Flush, but a failed end holds nothing: its Flush
// returns at once.
func (e *end) Flush() {
	if !e.isDead() {
		e.net.Flush()
	}
}

// Close drains the delay line.
func (e *end) Close() error {
	e.Flush()
	return nil
}
