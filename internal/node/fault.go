package node

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
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
	// is visible only as retry latency and in Stats().
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

// FaultTransport is a deterministic fault/latency-injecting core.Transport:
// every frame is re-injected into the local VM (core.VM.DeliverWire) after a
// seeded delay, scheduled on the VM's backend so that under -sim the whole
// "network" runs on the virtual clock and replays byte-identically from the
// seed.  Ordering stays per-lane FIFO — due times within a lane are forced
// monotone, modelling a link that delays but never reorders one sender's
// traffic — while different lanes reorder freely against each other, which
// is exactly the schedule freedom a real multi-node mesh has and a
// single-process run never exercises.
//
// Used with core.Options{Remote: ft, InterceptWire: true} on a VM hosting
// every cluster: all cross-cluster traffic then pays simulated network
// delay.  Bind must be called with the VM before tasks run.
type FaultTransport struct {
	profile FaultProfile

	mu          sync.Mutex
	rng         *rand.Rand
	vm          *core.VM
	be          backend.Backend
	lanes       map[laneKey]time.Time
	batches     map[laneKey]time.Time
	outstanding int
	idleWaits   []backend.Gate
	delivered   int64
	faults      int64

	// retained holds, per destination cluster, copies of every message frame
	// delivered since the cluster's last MarkEpoch.  A kill/restore harness
	// checkpoints a cluster, calls MarkEpoch, and on failure re-injects the
	// retained post-checkpoint traffic with ReplayRetained — the senders have
	// moved on and will never resend it themselves.  Retention only runs for
	// clusters that have had MarkEpoch called, so fault-only runs pay
	// nothing.  byReply indexes the retained initiate-request frames by
	// ReplyID, so the reply crossing back through SendReply can annotate the
	// request with the taskid it was answered with (initID): replaying the
	// request then re-creates the task under the same id.
	retained map[int][]*retainedFrame
	byReply  map[uint64]*retainedFrame
}

// retainedFrame is one delivered frame kept for post-restore re-delivery.
type retainedFrame struct {
	f      *core.WireFrame
	initID core.TaskID // id assigned to a ReplyID frame, once observed
}

// NewFaultTransport builds a fault transport with its own seeded PRNG.  The
// same seed and the same VM schedule reproduce the same delays.
func NewFaultTransport(seed int64, p FaultProfile) *FaultTransport {
	return &FaultTransport{profile: p, rng: rand.New(rand.NewSource(seed)), lanes: make(map[laneKey]time.Time), batches: make(map[laneKey]time.Time)}
}

// Bind attaches the transport to the VM it delays traffic for.
func (ft *FaultTransport) Bind(vm *core.VM) {
	ft.mu.Lock()
	ft.vm = vm
	ft.be = vm.Backend()
	ft.mu.Unlock()
}

// Stats reports how many frames were delivered and how many paid a
// retransmission fault.
func (ft *FaultTransport) Stats() (delivered, faults int64) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.delivered, ft.faults
}

// schedule computes the frame's due time on its lane and arranges fn to run
// then.  Callers hold no locks.
func (ft *FaultTransport) schedule(key laneKey, fn func()) error {
	ft.mu.Lock()
	if ft.vm == nil {
		ft.mu.Unlock()
		return fmt.Errorf("node: fault transport used before Bind")
	}
	delay := ft.profile.Base
	if ft.profile.Jitter > 0 {
		delay += time.Duration(ft.rng.Int63n(int64(ft.profile.Jitter)))
	}
	// Drop/retry loop: each attempt is lost with DropRate, pays Retransmit,
	// and tries again; the attempt after maxRetransmits losses always gets
	// through.  Sampled at schedule time so the whole retry history is fixed
	// by the seed and the send order.
	if ft.profile.DropRate > 0 {
		for tries := 0; tries < maxRetransmits && ft.rng.Float64() < ft.profile.DropRate; tries++ {
			delay += ft.profile.Retransmit
			ft.faults++
		}
	}
	now := ft.be.Now()
	// Batch coalescing: a lane's frames share the open batch window's
	// departure time, then each pays its sampled wire delay from there.  The
	// first frame past the close opens the next window.
	depart := now
	if w := ft.profile.BatchWindow; w > 0 {
		if dl, ok := ft.batches[key]; ok && now.Before(dl) {
			depart = dl
		} else {
			depart = now.Add(w)
			ft.batches[key] = depart
		}
	}
	due := depart.Add(delay)
	// Per-lane FIFO: a frame never fires before its predecessor on the same
	// lane.  The extra nanosecond keeps due times strictly monotone so timer
	// ties cannot reorder a lane even in principle.
	if last, ok := ft.lanes[key]; ok && !due.After(last) {
		due = last.Add(time.Nanosecond)
	}
	ft.lanes[key] = due
	ft.outstanding++
	be := ft.be
	ft.mu.Unlock()

	be.AfterFunc(due.Sub(now), func() {
		fn()
		ft.mu.Lock()
		ft.outstanding--
		ft.delivered++
		var wake []backend.Gate
		if ft.outstanding == 0 {
			wake, ft.idleWaits = ft.idleWaits, nil
		}
		ft.mu.Unlock()
		for _, g := range wake {
			g.Open()
		}
	})
	return nil
}

// Send delays the frame on its lane and re-injects it with DeliverWire.
func (ft *FaultTransport) Send(f *core.WireFrame) error {
	// The frame and its payload buffer go back to the sender's pool when Send
	// returns: the delayed frame needs its own copy.
	g := *f
	g.Payload = append([]byte(nil), f.Payload...)
	vm := ft.vm
	return ft.schedule(laneKey{src: f.Src, dst: f.Dst}, func() {
		_ = vm.DeliverWire(&g)
		ft.retain(&g)
	})
}

// retain records a delivered frame for possible ReplayRetained, when its
// destination cluster has retention armed.
func (ft *FaultTransport) retain(f *core.WireFrame) {
	ft.mu.Lock()
	if ft.retained != nil {
		if frames, ok := ft.retained[f.Dst]; ok {
			rf := &retainedFrame{f: f}
			ft.retained[f.Dst] = append(frames, rf)
			if f.ReplyID != 0 {
				if ft.byReply == nil {
					ft.byReply = make(map[uint64]*retainedFrame)
				}
				ft.byReply[f.ReplyID] = rf
			}
		}
	}
	ft.mu.Unlock()
}

// MarkEpoch arms (or re-arms) retention for a destination cluster: frames
// delivered to it from now on are kept until the next MarkEpoch.  A recovery
// harness calls it immediately after every Checkpoint of that cluster, so
// the retained traffic is exactly the post-checkpoint delta a restore needs
// re-delivered.
func (ft *FaultTransport) MarkEpoch(cluster int) {
	ft.mu.Lock()
	if ft.retained == nil {
		ft.retained = make(map[int][]*retainedFrame)
	}
	for id, rf := range ft.byReply {
		if rf.f.Dst == cluster {
			delete(ft.byReply, id)
		}
	}
	ft.retained[cluster] = nil
	ft.mu.Unlock()
}

// ReplayRetained re-injects every frame delivered to the cluster since its
// last MarkEpoch, in original delivery order, bypassing the delay line (the
// frames already paid their delays once).  Called after core.Restore; the
// restored tasks' duplicate-suppression floors admit each frame at most
// once, and initiate requests whose reply was observed re-create their task
// under the recorded id (PlanRestoredInit).  Returns the number of frames
// re-injected.
func (ft *FaultTransport) ReplayRetained(cluster int) int {
	ft.mu.Lock()
	frames := ft.retained[cluster]
	vm := ft.vm
	ft.mu.Unlock()
	for _, rf := range frames {
		if rf.f.ReplyID != 0 && rf.initID != core.NilTask {
			_ = vm.PlanRestoredInit(rf.f.Dst, rf.f.Sender, rf.f.SendSeq, rf.initID)
		}
		g := *rf.f
		_ = vm.DeliverWire(&g)
	}
	return len(frames)
}

// KillAt schedules fn on the transport's backend clock — under -sim, at an
// exact virtual time, making a fault-injection schedule (kill node, restore
// from checkpoint) as reproducible as the delays.  Bind must have been
// called.
func (ft *FaultTransport) KillAt(d time.Duration, fn func()) error {
	ft.mu.Lock()
	be := ft.be
	ft.mu.Unlock()
	if be == nil {
		return fmt.Errorf("node: KillAt before Bind")
	}
	be.AfterFunc(d, fn)
	return nil
}

// SendReply delays an initiate reply on the destination's reply lane.  When
// the request frame this reply answers is retained, the assigned id is
// recorded on it so a replay can re-create the task under the same id.
func (ft *FaultTransport) SendReply(dst int, replyID uint64, id core.TaskID) error {
	ft.mu.Lock()
	if rf, ok := ft.byReply[replyID]; ok {
		rf.initID = id
	}
	ft.mu.Unlock()
	vm := ft.vm
	return ft.schedule(laneKey{dst: dst, reply: true}, func() {
		vm.DeliverWireReply(replyID, id)
	})
}

// Flush blocks until every frame accepted before the call has been
// delivered.  Under -sim the wait pumps the scheduler, so the virtual clock
// advances to the pending due times and the delay line empties
// deterministically.
func (ft *FaultTransport) Flush() {
	ft.mu.Lock()
	if ft.outstanding == 0 || ft.be == nil {
		ft.mu.Unlock()
		return
	}
	g := ft.be.NewGate()
	ft.idleWaits = append(ft.idleWaits, g)
	ft.mu.Unlock()
	g.Wait()
}

// Close drains the delay line.
func (ft *FaultTransport) Close() error {
	ft.Flush()
	return nil
}
