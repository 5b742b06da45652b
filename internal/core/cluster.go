package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/flex"
	"repro/internal/memory"
	"repro/internal/mmos"
	"repro/internal/obs"
)

// slotState is what occupies one slot of a cluster.
type slotState struct {
	rec *taskRec // nil when the slot is free
}

// taskRec is the run-time's record of one task (user task or controller).
// The proc pointer and the kill flag are atomics: every run-time entry point
// a task makes (Charge, Send, Accept, ...) reads both, so mutexing them
// would put two lock round trips on the message hot path.
type taskRec struct {
	id           TaskID
	tasktype     string
	parent       TaskID
	cluster      *clusterRT
	slot         int
	queue        *inQueue
	wake         backend.Event // pulsed on message arrival and on kill
	done         backend.Gate  // opened when the task has terminated
	isController bool
	localBytes   int
	// common is the SHARED COMMON region the task's blocks and LOCKs hold,
	// given back when it terminates.
	common atomic.Int64

	proc   atomic.Pointer[mmos.Proc]
	killed atomic.Bool

	// HA-mode state (zero-cost otherwise; see ha.go).  initArgs retains the
	// INITIATE argument list so a checkpoint can respawn the task; haSeq
	// numbers the task's outbound sends for duplicate suppression.
	initArgs []Value
	haSeq    atomic.Uint64
}

// newTaskRecParts builds the wake event, queue, and done gate a task record
// shares.
func newTaskRecParts(b backend.Backend) (backend.Event, *inQueue, backend.Gate) {
	wake := b.NewEvent()
	return wake, newInQueue(wake), b.NewGate()
}

func (r *taskRec) setProc(p *mmos.Proc) { r.proc.Store(p) }

func (r *taskRec) getProc() *mmos.Proc { return r.proc.Load() }

// kill marks the task killed and wakes it if it is blocked in an ACCEPT.
// The wake event has one-deep memory, so a kill delivered while the task is
// running is seen at its next checkKilled or ACCEPT wait.
func (r *taskRec) kill() {
	if !r.killed.Swap(true) {
		r.wake.Pulse()
	}
}

func (r *taskRec) isKilled() bool { return r.killed.Load() }

// pendingInit is an initiation request waiting for a free slot: "If no slots
// are available in the cluster, the task controller will hold the initiate
// request until another task terminates" (Section 6).
type pendingInit struct {
	tasktype string
	parent   TaskID
	args     []Value
	reply    *initReply
	// key identifies the request for HA duplicate suppression: a replayed
	// parent re-issues its INITIATEs with the same send sequence numbers, and
	// the controller must answer with the already-assigned child id instead of
	// starting a second task.  key.seq 0 means unsequenced (non-HA, or an
	// execution-environment request), never deduplicated.
	key initKey
	// forced, when non-nil, is the planned record this request starts: a
	// recovery replay re-creates a post-checkpoint task under the id its
	// first life was assigned (the id the parent already holds), in its slot
	// and with the in-queue that has held its messages since the plan.  Set
	// from the cluster's directed map.
	forced *taskRec
}

// clusterRT is the run-time structure of one virtual-machine cluster.
type clusterRT struct {
	vm  *VM
	cfg config.Cluster

	primary     *flex.PE
	secondaries []*flex.PE

	// heap is this cluster's shard of the shared-memory message heap.
	// Intra-cluster message traffic allocates and frees exclusively on it, so
	// senders in different clusters never contend on one allocator lock.
	heap *memory.Allocator

	controllerID TaskID
	terminal     bool // hosts the user and file controllers

	mu      sync.Mutex
	slots   []slotState // index 0 .. reserved-1: controllers; then user slots
	userLo  int         // index of the first user slot
	pending []pendingInit
	// initMap (HA mode only) maps initiation-request keys to the child task
	// they produced, so replayed INITIATEs are answered, not re-run.
	initMap map[initKey]TaskID
	// directed (HA recovery only) maps initiation-request keys to the planned
	// record of the task the request was answered with before a failure: a
	// task created AFTER the last checkpoint is not in the restored state,
	// but its controller logged the initiation (initLogger) and Restore plans
	// its re-creation here, so the parent's stored id stays valid (see
	// planLocked).
	directed map[initKey]*taskRec
	// frozen parks new task starts in pending: set while Restore respawns the
	// checkpointed tasks, so they get their own slots before any request
	// competes for them.
	frozen bool
}

func newClusterRT(vm *VM, cfg config.Cluster, terminal bool) (*clusterRT, error) {
	primary := vm.machine.PE(cfg.PrimaryPE)
	if primary == nil {
		return nil, fmt.Errorf("%w: cluster %d primary PE %d", ErrNoSuchCluster, cfg.Number, cfg.PrimaryPE)
	}
	rt := &clusterRT{vm: vm, cfg: cfg, primary: primary, terminal: terminal}
	for _, pe := range cfg.SecondaryPEs {
		p := vm.machine.PE(pe)
		if p == nil {
			return nil, fmt.Errorf("core: cluster %d secondary PE %d does not exist", cfg.Number, pe)
		}
		rt.secondaries = append(rt.secondaries, p)
	}
	rt.userLo = reservedSlots(terminal)
	rt.slots = make([]slotState, rt.userLo+cfg.Slots)
	if vm.ha {
		rt.initMap = make(map[initKey]TaskID)
	}
	return rt, nil
}

// forceSize returns the number of members a FORCESPLIT in this cluster
// produces.
func (c *clusterRT) forceSize() int { return 1 + len(c.secondaries) }

// freeSlots returns the number of user slots currently unoccupied.
func (c *clusterRT) freeSlots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := c.userLo; i < len(c.slots); i++ {
		if c.slots[i].rec == nil {
			n++
		}
	}
	return n
}

// occupiedSlots returns the records occupying slots, keyed by slot index.
func (c *clusterRT) occupiedSlots() map[int]*taskRec {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]*taskRec)
	for i, s := range c.slots {
		if s.rec != nil {
			out[i] = s.rec
		}
	}
	return out
}

// pendingCount returns the number of initiate requests waiting for a slot.
func (c *clusterRT) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// placeController installs a controller task record in a reserved slot and
// returns the slot index used.
func (c *clusterRT) placeController(rec *taskRec) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < c.userLo; i++ {
		if c.slots[i].rec == nil {
			c.slots[i].rec = rec
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: cluster %d has no free controller slot", c.cfg.Number)
}

// request handles one initiation request for the process by: start the task
// at once if a user slot is free, else queue it until a task terminates.
func (c *clusterRT) request(req pendingInit, by *mmos.Proc) error {
	c.mu.Lock()
	if c.initMap != nil && req.key.seq != 0 {
		if id, ok := c.initMap[req.key]; ok {
			running := id.Slot >= 0 && id.Slot < len(c.slots) &&
				c.slots[id.Slot].rec != nil && c.slots[id.Slot].rec.id == id
			if _, gone := c.vm.exitRecord(id); running || !gone {
				// A replayed duplicate of an INITIATE the controller already
				// served, where the child is still alive — or exited long
				// enough ago that its exit record is gone and its effects
				// predate every restorable checkpoint: answer with the
				// assigned id instead of starting a second task.
				reply := req.reply
				c.mu.Unlock()
				reply.deliver(id)
				return nil
			}
			// The child exited recently (after the last surviving checkpoint
			// cut), so a recovery may have lost its effects: re-create it
			// under its original identity.  Its re-executed sends carry the
			// first life's sequence numbers, so receivers that already got
			// them drop the duplicates, and a receiver that has exited since
			// answers from its exit record (haSendSuppressed).
			c.planLocked(req.key, id)
		}
		for i := range c.pending {
			if c.pending[i].key == req.key {
				// Duplicate of a request still waiting for a slot (the original
				// came from a checkpoint, carrying no live reply): adopt the
				// replayed requester's reply.  A fire-and-forget original that
				// is live here came with a hold of its own, as did the
				// duplicate; one request keeps one.
				old := c.pending[i].reply
				c.pending[i].reply = req.reply
				c.mu.Unlock()
				if old == c.vm.hold {
					old.deliver(NilTask)
				}
				return nil
			}
		}
	}
	slot := -1
	if p := c.directed[req.key]; p != nil {
		// A planned re-creation: the task must come back under its original
		// id, so it can only start in its original slot.  If a restored task
		// still occupies that slot (it did at the checkpoint and has not
		// replayed its exit yet), the request waits in pending.
		if !c.frozen && c.slotOpenLocked(p) {
			delete(c.directed, req.key)
			req.forced, slot = p, p.slot
		}
	} else if !c.frozen {
		slot = c.findFreeUserSlotLocked()
	}
	if slot < 0 {
		c.pending = append(c.pending, req)
		c.mu.Unlock()
		return nil
	}
	// Reserve the slot before releasing the lock; startTask fills it in.
	c.slots[slot].rec = reservedMarker
	c.mu.Unlock()
	return c.startTask(by, slot, req)
}

// reservedMarker occupies a slot between reservation and task start.
var reservedMarker = &taskRec{}

// planLocked plans the re-creation of the task that answered the request key
// before a failure, under its id: from now on the id names a record without a
// task.  The record owns the id's in-queue, so a message sent to the task
// before it is re-created waits there — a send neither fails with
// ErrNoSuchTask nor is dropped — and the id's slot as soon as that is free,
// so no other task takes it.  The request's start takes both over
// (startTask).  Caller holds c.mu.
func (c *clusterRT) planLocked(key initKey, id TaskID) {
	if _, ok := c.directed[key]; ok {
		return
	}
	vm := c.vm
	p := &taskRec{id: id, cluster: c, slot: id.Slot}
	p.wake, p.queue, p.done = newTaskRecParts(vm.backend)
	p.queue.ha = newTaskHA(true)
	vm.registerTask(p)
	if c.directed == nil {
		c.directed = make(map[initKey]*taskRec)
	}
	c.directed[key] = p
	if c.slotOpenLocked(p) {
		c.slots[p.slot].rec = p
	}
}

// slotOpenLocked reports whether the planned record p's slot can take its
// task: it is a user slot, and free or already p's.  Caller holds c.mu.
func (c *clusterRT) slotOpenLocked(p *taskRec) bool {
	return p.slot >= c.userLo && p.slot < len(c.slots) && (c.slots[p.slot].rec == nil || c.slots[p.slot].rec == p)
}

// plannedForLocked returns the planned record waiting for the slot, nil when
// none is.  Of two plans for one slot the task created first in its first
// life, the lower unique id, gets it: it held the slot first then, too.
// Caller holds c.mu.
func (c *clusterRT) plannedForLocked(slot int) *taskRec {
	var first *taskRec
	for _, p := range c.directed {
		if p.slot == slot && (first == nil || p.id.Unique < first.id.Unique) {
			first = p
		}
	}
	return first
}

// takePendingLocked removes and returns the first pending request that can
// start now, together with its reserved slot (nil, -1 when nothing can).
// Directed requests (planned re-creations, see Restore) can only
// take their recorded slot, so one whose slot is still occupied is skipped
// without blocking others; undirected requests start strictly in FIFO order.
// Caller holds c.mu.
func (c *clusterRT) takePendingLocked() (*pendingInit, int) {
	if c.frozen {
		return nil, -1
	}
	noFree := false
	for i := 0; i < len(c.pending); i++ {
		req := c.pending[i]
		slot := -1
		if p := c.directed[req.key]; p != nil {
			if !c.slotOpenLocked(p) {
				continue
			}
			delete(c.directed, req.key)
			req.forced = p
			slot = p.slot
		}
		if slot < 0 {
			if noFree {
				continue
			}
			slot = c.findFreeUserSlotLocked()
			if slot < 0 {
				noFree = true
				continue
			}
		}
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		c.slots[slot].rec = reservedMarker
		return &req, slot
	}
	return nil, -1
}

func (c *clusterRT) findFreeUserSlotLocked() int {
	for i := c.userLo; i < len(c.slots); i++ {
		if c.slots[i].rec == nil {
			return i
		}
	}
	return -1
}

// startTask spawns the task's process in the given (already reserved) slot;
// by, the starting process or nil, leaves its PE while initLogger waits.
func (c *clusterRT) startTask(by *mmos.Proc, slot int, req pendingInit) error {
	vm := c.vm
	if vm.terminated() {
		// No task will start any more, so no exit will come to take the
		// requests parked behind this one either: refuse them with it.
		c.mu.Lock()
		c.slots[slot].rec = nil
		parked := c.pending
		c.pending = nil
		c.mu.Unlock()
		req.reply.deliver(NilTask)
		for i := range parked {
			parked[i].reply.deliver(NilTask)
		}
		return ErrVMTerminated
	}
	tt, ok := vm.taskType(req.tasktype)
	if !ok {
		c.clearSlot(slot)
		req.reply.deliver(NilTask)
		return fmt.Errorf("%w: %q", ErrUnknownTaskType, req.tasktype)
	}
	// Only user tasks pass through here (controllers boot via
	// startController), so the tenant's MaxTasks quota gates exactly the
	// spawns it should.  Directed re-creations are exempt: a recovery
	// re-spawn continues a life that was already admitted.  The refusal is
	// delivered before the violation is recorded so a waiting initiator
	// gets its answer before the fail-stop kill sweep reaches it.
	if req.forced == nil {
		if le := vm.taskLimitExceeded(); le != nil {
			c.clearSlot(slot)
			req.reply.deliver(NilTask)
			vm.recordLimit(le)
			return le
		}
	}
	rec := &taskRec{
		tasktype:   tt.Name,
		parent:     req.parent,
		cluster:    c,
		slot:       slot,
		localBytes: tt.LocalBytes,
	}
	if p := req.forced; p != nil {
		// The planned record's in-queue holds what was sent to the task
		// since the plan, and its id is the one the task must have.
		rec.id, rec.wake, rec.queue, rec.done = p.id, p.wake, p.queue, p.done
		rec.killed.Store(p.isKilled())
	} else {
		rec.id = TaskID{Cluster: c.cfg.Number, Slot: slot, Unique: vm.nextUnique()}
		rec.wake, rec.queue, rec.done = newTaskRecParts(vm.backend)
		if vm.ha {
			rec.queue.ha = newTaskHA(true)
		}
	}
	id := rec.id
	if vm.ha {
		rec.initArgs = req.args
	}
	c.mu.Lock()
	c.slots[slot].rec = rec
	// Record the initiation before the reply can be delivered, so a replayed
	// duplicate of this request arriving later is answered from the map.
	keyed := c.initMap != nil && req.key.seq != 0
	if keyed {
		c.initMap[req.key] = id
	}
	c.mu.Unlock()
	if l, ok := vm.remote.(initLogger); ok && keyed {
		if !l.LogInit(by, LoggedInit{Cluster: c.cfg.Number, Parent: req.key.parent, Seq: req.key.seq, ID: id}) {
			c.undoStart(slot, req)
			return ErrVMTerminated
		}
	}
	vm.registerTask(rec)
	vm.userTasks.Add(1)
	// A directed re-creation continues a task already counted.
	if req.forced == nil {
		if vm.opts.Limits.MaxTasks > 0 {
			vm.initiated.Add(1)
		}
		if vm.metricsOn() {
			vm.om.metrics().initiates.Inc()
		}
	}

	body := func(p *mmos.Proc) {
		rec.setProc(p)
		p.Charge(costTaskInit)
		vm.emit(&obs.Event{Kind: obs.TaskInit, Task: obs.TaskRef(id), Peer: obs.TaskRef(req.parent), Type: tt.Name}, c.primary)
		req.reply.deliver(id)
		defer vm.finishTask(rec)
		tt.Body(newTask(vm, rec, req.args))
	}
	_, err := vm.kernel.Spawn(c.primary, tt.Name+"/"+id.String(), tt.LocalBytes, body)
	if err != nil {
		// Could not create the process (local memory exhausted): undo.
		vm.unregisterTask(id)
		vm.userTasks.Done()
		c.undoStart(slot, req)
		return fmt.Errorf("core: starting task %s: %w", tt.Name, err)
	}
	return nil
}

// undoStart frees the slot of a start that did not happen, forgets its
// initiation and answers the request with no task.
func (c *clusterRT) undoStart(slot int, req pendingInit) {
	c.mu.Lock()
	c.slots[slot].rec = nil
	if c.initMap != nil && req.key.seq != 0 {
		delete(c.initMap, req.key)
	}
	c.mu.Unlock()
	req.reply.deliver(NilTask)
}

func (c *clusterRT) clearSlot(slot int) {
	c.mu.Lock()
	c.slots[slot].rec = nil
	c.mu.Unlock()
}

// finishTask is the common termination path for user tasks: it recovers from
// kill panics and user panics, recovers queued message storage, frees the
// slot, and starts a pending initiation if one is waiting.
func (vm *VM) finishTask(rec *taskRec) {
	c := rec.cluster

	r := recover()
	info := "normal"
	switch r.(type) {
	case nil:
	case killSentinel:
		info = "killed"
	default:
		info = fmt.Sprintf("panic: %v", r)
		vm.userPrintf("task %s (%s) failed: %v\n", rec.id, rec.tasktype, r)
	}

	if p := rec.getProc(); p != nil {
		p.Charge(costTaskTerm)
	}
	vm.emit(&obs.Event{Kind: obs.TaskTerm, Task: obs.TaskRef(rec.id), Type: info}, c.primary)

	// Recover shared-memory storage of unaccepted messages, of any arrays
	// the task still owns, and of its SHARED COMMON blocks and LOCKs.
	for _, m := range rec.queue.close() {
		vm.dropMessage(m)
	}
	vm.arrays.dropOwner(rec.id, vm)
	vm.machine.Shared().FreeCommon(int(rec.common.Load()))

	vm.unregisterTask(rec.id)

	if h := rec.queue.ha; h != nil {
		// Keep what the task admitted: a recovery replay may re-execute a
		// send to it, and only the floors tell a delivered message from one
		// that never arrived.  The queue is closed, so they no longer move.
		vm.recordExit(rec.id, h.floors)
	}
	if vm.metricsOn() {
		vm.om.metrics().completes.Inc()
	}
	rec.done.Open()

	// Free the slot and start a pending request if one is waiting.  In the
	// FLEX implementation the task controller performed this bookkeeping; the
	// slot table lives in shared memory, so the terminating task's run-time
	// updates it directly here and the controller remains responsible only
	// for fielding new INITIATE requests.
	c.mu.Lock()
	c.slots[rec.slot].rec = c.plannedForLocked(rec.slot)
	next, nextSlot := c.takePendingLocked()
	c.mu.Unlock()
	if next != nil {
		if err := c.startTask(rec.getProc(), nextSlot, *next); err != nil {
			vm.userPrintf("pisces: deferred initiate of %s failed: %v\n", next.tasktype, err)
		}
	}

	vm.userTasks.Done()
}

// userPrintf writes a line to the user terminal output, if configured.  It
// is the single funnel for all user-visible terminal traffic, which makes it
// the enforcement point for the tenant's OutputBytes quota: once the cap is
// crossed the write (and every later one) is dropped, the violation recorded.
func (vm *VM) userPrintf(format string, args ...any) {
	if vm.opts.UserOutput == nil {
		return
	}
	s := fmt.Sprintf(format, args...)
	if !vm.chargeOutput(len(s)) {
		return
	}
	fmt.Fprint(vm.opts.UserOutput, s)
}

// systemPrintf writes to the user terminal without charging the tenant's
// output quota — the "your run was terminated" notice must reach a tenant
// whose violation was the output cap itself.
func (vm *VM) systemPrintf(format string, args ...any) {
	if vm.opts.UserOutput != nil {
		fmt.Fprintf(vm.opts.UserOutput, format, args...)
	}
}
