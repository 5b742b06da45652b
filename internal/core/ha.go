package core

import (
	"fmt"
	"sort"

	"repro/internal/mmos"
	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// Fault tolerance (HA mode).
//
// Pisces tasks are deterministic message-driven state machines: a task's
// behaviour is fully determined by its INITIATE arguments plus the ordered
// sequence of messages each of its ACCEPT statements consumed.  HA mode
// exploits that: instead of checkpointing task stacks (impossible for Go
// goroutines), the run-time checkpoints what it would take to REPLAY a task —
// its init args, a per-ACCEPT consumption log, and the messages still waiting
// in its in-queue.  Recovery respawns the task from its init args and feeds
// each ACCEPT the same messages its log recorded; the re-execution regenerates
// the task's sends, which the rest of the machine suppresses as duplicates.
//
// Duplicate suppression is receiver-side: in HA mode every task stamps its
// outbound messages with a per-task send sequence number, and every in-queue
// keeps a per-sender floor of the highest sequence number it has admitted.
// Floors only advance, so any re-delivery — a replayed sender regenerating
// its sends, a transport re-sending retained frames after a recovery — is
// dropped at admission.  A receiver that has exited keeps answering for what
// it admitted: its VM keeps the task's floors for two generations
// (recordExit, AgeExitRecords), and a re-executed send to it succeeds silently when they
// show it was admitted, and fails as any send to a gone task when not.  The
// record lives with the receiver, so the buddy that restores the sender
// knows it without ever having seen the sender's first life.  A replayed
// INITIATE is deduplicated one level up, in the cluster's initMap keyed by
// (parent, send seq): the controller re-replies with the already-assigned
// child id instead of starting a second task.
//
// Recovery is one path: a node dies, and its buddy adopts the node's
// clusters (AdoptClusters), restores their last checkpoint on top of its own
// ghost controllers (Restore) and re-delivers the frames retained since the
// cut.  A child started after the cut is in no checkpoint, so the task
// controller logs each initiation with the transport before the child runs
// (initLogger) — a node's buddy holds the log, on a TCP mesh and on the
// fault mesh alike — and Restore plans the logged initiations: the buddy
// re-creates such a child under its first id when its request comes again.
//
// What is NOT recoverable: controllers (the terminal cluster's user/file
// controllers are the run's anchor), shared arrays and windows owned by a
// failed task, and tasks whose behaviour depends on wall-clock races the
// virtual clock did not capture.  See README "Fault tolerance".

// haMsg is one logged (or queued) message in replay form: everything needed
// to rebuild the Message at injection time.  Args slices are shared with the
// live messages — argument slices are immutable once sent.
type haMsg struct {
	Type    string
	Sender  TaskID
	SendSeq uint64
	Args    []Value
}

// haAccRecord is the consumption record of one ACCEPT statement.  A record is
// appended (open) when the ACCEPT begins, filled incrementally as takeMatching
// consumes messages, and closed when the ACCEPT returns.  An open record in a
// checkpoint means the task was blocked mid-ACCEPT at the cut.
type haAccRecord struct {
	msgs     []haMsg
	open     bool
	timedOut bool
}

// taskHA is the per-in-queue fault-tolerance state; all fields are guarded by
// the owning inQueue's mutex.
type taskHA struct {
	// logOn enables the consumption log (user tasks only; controllers keep
	// floors but are never replayed).
	logOn bool
	// floors maps sender task -> highest admitted send sequence number.
	floors map[TaskID]uint64
	// log is the task's ACCEPT consumption history since (re)start.
	log []*haAccRecord
	// openStack tracks the in-progress ACCEPT records (a stack, because
	// handlers may issue re-entrant ACCEPTs).
	openStack []*haAccRecord
	// replay holds the checkpointed records still to be fed to the task's
	// ACCEPTs; non-nil only on a restored task.
	replay []*haAccRecord
	// tail is the checkpointed in-queue content, injected when the replay log
	// is exhausted.
	tail []haMsg
	// replaying marks the window between restore and log exhaustion: live
	// deliveries park in pen so they cannot interleave with history.
	replaying bool
	pen       []*Message
}

func newTaskHA(logOn bool) *taskHA {
	return &taskHA{logOn: logOn, floors: make(map[TaskID]uint64)}
}

// initKey identifies one initiation request for duplicate suppression: the
// requesting task plus the send sequence number its INITIATE carried.  seq 0
// means unsequenced (non-HA mode, or an execution-environment request) and is
// never deduplicated.
type initKey struct {
	parent TaskID
	seq    uint64
}

// nextSendSeq returns the task's next outbound send sequence number, or 0
// (unsequenced) outside HA mode.  A restored task restarts at 1 and — being a
// deterministic replay — regenerates exactly the numbers its first life used.
func (t *Task) nextSendSeq() uint64 {
	if !t.vm.ha {
		return 0
	}
	return t.rec.haSeq.Add(1)
}

// recordExit keeps an exited task's admission floors: for each sender, the
// highest send sequence number the task admitted.  A recovery replay
// re-executes sends whose receiver has exited since, and the record tells a
// re-send of an admitted message (delivered in the first life: it succeeds
// silently) from a send that never reached the task (it fails like any send
// to a gone task).  The receiver's VM keeps it, so a buddy that adopts the
// sender's cluster knows it, though it never saw the sender's first life.
// Guarded by its own mutex so it can be consulted while a cluster lock is
// held.
func (vm *VM) recordExit(id TaskID, floors map[TaskID]uint64) {
	vm.haGoneMu.Lock()
	if vm.haGone == nil {
		vm.haGone = make(map[TaskID]map[TaskID]uint64)
	}
	vm.haGone[id] = floors
	vm.haGoneMu.Unlock()
}

// exitRecord returns the admission floors of an exited task, when it exited
// recently enough for the record to be held (within the last two
// generations, see AgeExitRecords).  Its presence alone says a recovery may have lost the task's
// effects (see clusterRT.request).
func (vm *VM) exitRecord(id TaskID) (map[TaskID]uint64, bool) {
	vm.haGoneMu.Lock()
	defer vm.haGoneMu.Unlock()
	floors, ok := vm.haGone[id]
	if !ok {
		floors, ok = vm.haGoneOld[id]
	}
	return floors, ok
}

// haSendSuppressed reports whether a send that found no receiver is really a
// re-execution of a delivery that already happened: either the task is still
// replaying its consumption log, or the receiver's exit record shows it
// admitted this send before it exited.
func (t *Task) haSendSuppressed(to TaskID, sendSeq uint64) bool {
	if t.haReplaying() {
		return true
	}
	floors, ok := t.vm.exitRecord(to)
	return ok && sendSeq != 0 && sendSeq <= floors[t.ID()]
}

// haReplaying reports whether the task is still replaying its consumption
// log.  While true, sends to tasks that do not exist (any more, or yet) are
// silently dropped: the first execution's sends already reached them.
func (t *Task) haReplaying() bool {
	h := t.rec.queue.ha
	if h == nil {
		return false
	}
	t.rec.queue.mu.Lock()
	r := h.replaying
	t.rec.queue.mu.Unlock()
	return r
}

// haBeginAccept opens this ACCEPT's consumption record and, on a replaying
// task, re-injects the corresponding checkpointed record's messages into the
// ring.  When the replay log runs dry (or the record was cut open mid-ACCEPT
// by the checkpoint), the queue transitions back to live delivery: the
// checkpointed queue tail and then the pen drain into the ring, in order.
func (t *Task) haBeginAccept() {
	q := t.rec.queue
	h := q.ha
	q.mu.Lock()
	live := &haAccRecord{open: true}
	h.log = append(h.log, live)
	h.openStack = append(h.openStack, live)
	var inject []haMsg
	finish := false
	if h.replaying {
		if len(h.replay) > 0 {
			rep := h.replay[0]
			h.replay = h.replay[1:]
			inject = rep.msgs
			finish = rep.open
		} else {
			finish = true
		}
	}
	q.mu.Unlock()
	if inject != nil {
		t.haInject(inject)
	}
	if finish {
		t.haFinishReplay()
	}
}

// haEndAccept closes the ACCEPT's consumption record.
func (q *inQueue) haEndAccept(timedOut bool) {
	h := q.ha
	q.mu.Lock()
	if n := len(h.openStack); n > 0 {
		rec := h.openStack[n-1]
		h.openStack = h.openStack[:n-1]
		rec.open = false
		rec.timedOut = timedOut
	}
	q.mu.Unlock()
}

// haInject rebuilds logged messages and appends them to the task's own ring,
// bypassing floors and the pen.  The heap charge is best-effort: replay must
// make progress even if the shard is momentarily full, so an uncharged
// message (heapBytes 0) is delivered rather than dropped.
func (t *Task) haInject(msgs []haMsg) {
	q := t.rec.queue
	for i := range msgs {
		hm := &msgs[i]
		m := newMessage(hm.Type, hm.Sender)
		// The logged list itself, not a copy in the header's store: the log
		// keeps it, and takeMatching logs it again as it is consumed.
		m.Args, m.sendSeq = hm.Args, hm.SendSeq
		if size, err := encodedSize(m.Args); err == nil {
			_ = t.vm.chargeMessageOn(t.rec.cluster.heap, m, size)
		}
		q.mu.Lock()
		q.injectLocked(m)
		q.mu.Unlock()
	}
}

// haFinishReplay ends the replay window: checkpointed queue tail first, then
// everything that arrived live while the task was replaying, in arrival
// order.
func (t *Task) haFinishReplay() {
	q := t.rec.queue
	h := q.ha
	q.mu.Lock()
	tail := h.tail
	h.tail = nil
	q.mu.Unlock()
	t.haInject(tail)
	q.mu.Lock()
	pen := h.pen
	h.pen = nil
	h.replaying = false
	for _, m := range pen {
		q.injectLocked(m)
	}
	q.mu.Unlock()
	if len(pen) > 0 {
		q.wake.Pulse()
	}
}

// --- checkpoint capture -----------------------------------------------------

// haCkptTask is the serializable replay state of one user task.
type haCkptTask struct {
	id       TaskID
	tasktype string
	parent   TaskID
	args     []Value
	floors   map[TaskID]uint64
	log      []*haAccRecord
	queue    []haMsg
}

type haCkptPending struct {
	key      initKey
	tasktype string
	parent   TaskID
	args     []Value
}

type haCkptInitEntry struct {
	key   initKey
	child TaskID
}

type haCkptCluster struct {
	number  int
	initMap []haCkptInitEntry
	pending []haCkptPending
	tasks   []haCkptTask
}

// Checkpoint serializes the recoverable state of the given clusters: the
// controller-side initiation state (initMap, pending requests) and, per user
// task, its replay state (init args, ACCEPT consumption log, queued
// messages).  The cut need not be globally consistent: floors are monotone
// and the consumption log is appended atomically under each queue's lock, so
// replay from any cut converges — frames the cut missed are either re-sent by
// replayed senders or re-delivered by the transport's retention, and
// duplicates of frames the cut saw are dropped at admission.
func (vm *VM) Checkpoint(clusters ...int) ([]byte, error) {
	if !vm.ha {
		return nil, fmt.Errorf("core: Checkpoint requires a VM booted with Options.HA")
	}
	nums := append([]int(nil), clusters...)
	sort.Ints(nums)
	sections := [][]byte{msgcodec.AppendU32(nil, haCkptFormat)}
	for _, n := range nums {
		cl, ok := vm.cluster(n)
		if !ok {
			return nil, fmt.Errorf("%w: %d", ErrNoSuchCluster, n)
		}
		cs := cl.captureCheckpoint()
		sec, err := encodeClusterCkpt(cs)
		if err != nil {
			return nil, err
		}
		sections = append(sections, sec)
	}
	return msgcodec.EncodeCheckpoint(sections)
}

// AgeExitRecords starts a new exit-record generation and drops the one
// before the last.  A record only matters while a recovery could re-execute
// a send to its task or re-create it: while some peer's last durable
// checkpoint predates the exit.  The caller knows when none can any more
// (a node: once every peer's checkpoint mark shows a cut made after the peer
// heard of the last call on a heartbeat).  Two generations keep the map bounded by task turnover
// instead of growing for the VM's lifetime.
func (vm *VM) AgeExitRecords() {
	vm.haGoneMu.Lock()
	vm.haGoneOld = vm.haGone
	vm.haGone = nil
	vm.haGoneMu.Unlock()
}

// captureCheckpoint snapshots one cluster's recoverable state.
func (c *clusterRT) captureCheckpoint() haCkptCluster {
	cs := haCkptCluster{number: c.cfg.Number}
	c.mu.Lock()
	for k, child := range c.initMap {
		cs.initMap = append(cs.initMap, haCkptInitEntry{key: k, child: child})
	}
	for _, p := range c.pending {
		cs.pending = append(cs.pending, haCkptPending{key: p.key, tasktype: p.tasktype, parent: p.parent, args: p.args})
	}
	var recs []*taskRec
	var ctrl *taskRec
	for i, slot := range c.slots {
		switch r := slot.rec; {
		case r == nil:
		case i < c.userLo:
			if r.id == c.controllerID {
				ctrl = r
			}
		case r.tasktype != "": // a reservation and a planned record (planLocked) have no task yet
			recs = append(recs, r)
		}
	}
	c.mu.Unlock()
	// A request the controller was handed but has not fielded yet is in no
	// task and no pending entry, while the transport counts it delivered and
	// lets the sender drop it: the cut carries it as pending.
	if ctrl != nil {
		cs.pending = append(cs.pending, ctrl.queuedInitRequests()...)
	}
	// Sorted serialization keeps the blob — and therefore the restore spawn
	// order — deterministic for a given machine state.
	sort.Slice(cs.initMap, func(i, j int) bool {
		a, b := cs.initMap[i].key, cs.initMap[j].key
		if a.parent != b.parent {
			return a.parent.less(b.parent)
		}
		return a.seq < b.seq
	})
	for _, rec := range recs {
		cs.tasks = append(cs.tasks, rec.captureCheckpoint())
	}
	return cs
}

// queuedInitRequests returns the initiate requests waiting in a task
// controller's in-queue, as pending entries.
func (r *taskRec) queuedInitRequests() []haCkptPending {
	q := r.queue
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []haCkptPending
	for i := 0; i < q.n; i++ {
		m := q.at(i)
		if m.Type != msgInitRequest || m.NumArgs() < 3 {
			continue
		}
		tasktype, err1 := AsStr(m.Arg(0))
		parent, err2 := AsID(m.Arg(1))
		if err1 == nil && err2 == nil {
			out = append(out, haCkptPending{key: initKey{parent: parent, seq: m.sendSeq}, tasktype: tasktype, parent: parent, args: append([]Value(nil), m.Args[3:]...)})
		}
	}
	return out
}

// captureCheckpoint snapshots one task's replay state under its queue lock.
func (r *taskRec) captureCheckpoint() haCkptTask {
	ts := haCkptTask{id: r.id, tasktype: r.tasktype, parent: r.parent, args: r.initArgs}
	q := r.queue
	q.mu.Lock()
	h := q.ha
	if h != nil {
		ts.floors = make(map[TaskID]uint64, len(h.floors))
		for k, v := range h.floors {
			ts.floors[k] = v
		}
		// A checkpoint taken while the task is itself replaying concatenates
		// the rebuilt log so far with the records still to be replayed — a
		// restore from this cut replays both, in order.
		for _, rec := range append(append([]*haAccRecord(nil), h.log...), h.replay...) {
			ts.log = append(ts.log, &haAccRecord{
				msgs:     append([]haMsg(nil), rec.msgs...),
				open:     rec.open,
				timedOut: rec.timedOut,
			})
		}
		// Queue snapshot, in the order a restored task must see them: the ring
		// (on a mid-replay cut: injected-but-unconsumed history), then the old
		// checkpoint tail not yet injected, then live messages parked in the
		// pen — the same order finishReplay would have delivered them.
		for i := 0; i < q.n; i++ {
			m := q.at(i)
			ts.queue = append(ts.queue, haMsg{Type: m.Type, Sender: m.Sender, SendSeq: m.sendSeq, Args: m.Args})
		}
		ts.queue = append(ts.queue, h.tail...)
		for _, m := range h.pen {
			ts.queue = append(ts.queue, haMsg{Type: m.Type, Sender: m.Sender, SendSeq: m.sendSeq, Args: m.Args})
		}
	}
	q.mu.Unlock()
	return ts
}

// --- adoption and restore ---------------------------------------------------

// AdoptClusters marks the given clusters as hosted by this VM, so a buddy
// node can take over a dead peer's partition before restoring its state.
// Every node boots the full configuration, so adoption is purely a routing
// change.  No-op on a VM that already hosts everything.
func (vm *VM) AdoptClusters(clusters ...int) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	old := vm.hosted.Load()
	if old == nil {
		return
	}
	// Copy-on-write: routing reads the hosted set lock-free on every send, so
	// the set is never mutated in place.
	next := make(map[int]bool, len(*old)+len(clusters))
	for n := range *old {
		next[n] = true
	}
	for _, n := range clusters {
		if _, ok := vm.clusters[n]; ok {
			next[n] = true
		}
	}
	vm.hosted.Store(&next)
}

// Restore rebuilds the checkpointed clusters' state on a VM that has just
// adopted them (AdoptClusters): the controllers' initMap and pending requests
// are reinstated, and every checkpointed task is respawned under its original
// taskid in replay mode, with fresh completion bookkeeping — this VM never
// knew the task.  The adopting VM's controller of such a cluster was a ghost
// until now and has served nothing, so the checkpoint's initiation state is
// the whole of it.  An empty blob is a VM that died before its first
// checkpoint shipped.  Then each initiation the dead VM logged since the cut
// (initLogger) and the initMap does not answer is planned (planLocked): when
// its request comes again the task is re-created under its logged id, the
// one its parent holds.  Every cluster the blob or the log names stays frozen
// until its plans are in, so no request starts a logged child under a fresh
// id.  After Restore the caller should re-deliver the retained
// post-checkpoint frames — replay plus floors make any overlap harmless.
func (vm *VM) Restore(blob []byte, inits []LoggedInit) error {
	if !vm.ha {
		return fmt.Errorf("core: Restore requires a VM booted with Options.HA")
	}
	var ck []haCkptCluster
	if len(blob) > 0 {
		var err error
		if ck, err = decodeCheckpointBlob(blob); err != nil {
			return err
		}
	}
	var frozen []*clusterRT
	defer func() {
		for _, cl := range frozen {
			cl.mu.Lock()
			cl.frozen = false
			cl.mu.Unlock()
			cl.kickPending()
		}
	}()
	freeze := func(n int) (*clusterRT, error) { // locked, and frozen until Restore returns
		cl, ok := vm.cluster(n)
		if !ok {
			return nil, fmt.Errorf("%w: restored cluster %d", ErrNoSuchCluster, n)
		}
		cl.mu.Lock()
		if !cl.frozen {
			cl.frozen = true
			frozen = append(frozen, cl)
		}
		return cl, nil
	}
	for _, cs := range ck {
		cl, err := freeze(cs.number)
		if err != nil {
			return err
		}
		for _, e := range cs.initMap {
			cl.initMap[e.key] = e.child
			vm.raiseUnique(e.child.Unique)
		}
		for _, p := range cs.pending {
			cl.pending = append(cl.pending, pendingInit{tasktype: p.tasktype, parent: p.parent, args: p.args, key: p.key})
		}
		cl.mu.Unlock()
		for i := range cs.tasks {
			if err := cl.restoreTask(&cs.tasks[i]); err != nil {
				return err
			}
		}
	}
	for _, l := range inits {
		cl, err := freeze(l.Cluster)
		if err != nil {
			return err
		}
		vm.raiseUnique(l.ID.Unique)
		key := initKey{parent: l.Parent, seq: l.Seq}
		if _, started := cl.initMap[key]; !started {
			cl.planLocked(key, l.ID)
		}
		cl.mu.Unlock()
	}
	return nil
}

// restoreTask respawns one checkpointed task in replay mode under its
// original taskid.
func (c *clusterRT) restoreTask(ts *haCkptTask) error {
	vm := c.vm
	tt, ok := vm.taskType(ts.tasktype)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTaskType, ts.tasktype)
	}
	// The task takes the slot its id names: a child re-created under a
	// planned id waits for its own slot, which only the task that had it at
	// the cut may hold.  Only a task started between the adoption and the
	// restore can have taken it; then any free slot will do.
	slot := ts.id.Slot
	c.mu.Lock()
	if slot < c.userLo || slot >= len(c.slots) || c.slots[slot].rec != nil {
		slot = c.findFreeUserSlotLocked()
	}
	if slot < 0 {
		c.mu.Unlock()
		return fmt.Errorf("core: cluster %d has no free slot to restore %s", c.cfg.Number, ts.id)
	}
	c.slots[slot].rec = reservedMarker
	c.mu.Unlock()
	vm.raiseUnique(ts.id.Unique)

	rec := &taskRec{
		id:         ts.id,
		tasktype:   tt.Name,
		parent:     ts.parent,
		cluster:    c,
		slot:       slot,
		localBytes: tt.LocalBytes,
		initArgs:   ts.args,
	}
	rec.wake, rec.queue, rec.done = newTaskRecParts(vm.backend)
	h := newTaskHA(true)
	h.floors = ts.floors
	if h.floors == nil {
		h.floors = make(map[TaskID]uint64)
	}
	h.replay = ts.log
	h.tail = ts.queue
	h.replaying = true
	rec.queue.ha = h

	c.mu.Lock()
	c.slots[slot].rec = rec
	c.mu.Unlock()
	vm.registerTask(rec)
	vm.userTasks.Add(1)
	body := func(p *mmos.Proc) {
		rec.setProc(p)
		p.Charge(costTaskInit)
		vm.emit(&obs.Event{Kind: obs.TaskRestore, Task: obs.TaskRef(rec.id), Peer: obs.TaskRef(rec.parent), Type: tt.Name}, c.primary)
		defer vm.finishTask(rec)
		tt.Body(newTask(vm, rec, ts.args))
	}
	if _, err := vm.kernel.Spawn(c.primary, tt.Name+"/"+rec.id.String(), tt.LocalBytes, body); err != nil {
		vm.unregisterTask(rec.id)
		vm.userTasks.Done()
		c.clearSlot(slot)
		return fmt.Errorf("core: restoring task %s: %w", ts.id, err)
	}
	return nil
}

// kickPending starts as many queued initiation requests as there are free
// slots, mirroring finishTask's deferred-start path after an unfreeze.
func (c *clusterRT) kickPending() {
	for {
		c.mu.Lock()
		req, slot := c.takePendingLocked()
		c.mu.Unlock()
		if req == nil {
			return
		}
		if err := c.startTask(nil, slot, *req); err != nil {
			c.vm.userPrintf("pisces: deferred initiate of %s failed: %v\n", req.tasktype, err)
		}
	}
}

// LoggedInit is one sequenced initiation an HA task controller started: the
// request's key (Parent, Seq), its cluster, and the id it was answered with.
type LoggedInit struct {
	Cluster int
	Parent  TaskID
	Seq     uint64
	ID      TaskID
}

// initLogger is a transport that keeps a VM's initiation decisions where a
// survivor can read them, for the adopter's Restore: in HA mode a task
// controller logs every sequenced initiation before the child runs, since a
// child started after the last checkpoint is in no checkpoint and must come
// back under the id its parent and its receivers' floors already hold.
// LogInit returns once the entry is safe; a node's transport waits for its
// buddy's ack, by's PE released meanwhile (by is nil outside a process).  It
// reports whether the child may run: false on a killed node, whose
// controller its teardown released, and which must not start the child.
type initLogger interface {
	LogInit(by *mmos.Proc, l LoggedInit) bool
}

// raiseUnique lifts the unique counter to at least u, so an id this VM
// assigns from now on cannot repeat one a dead node assigned: a buddy
// restoring a cluster continues the dead node's numbering, not its own.
func (vm *VM) raiseUnique(u int) {
	for {
		cur := vm.uniqueCtr.Load()
		if int64(u) <= cur || vm.uniqueCtr.CompareAndSwap(cur, int64(u)) {
			return
		}
	}
}

// --- serialization ----------------------------------------------------------

// haCkptFormat versions the core section bodies inside the msgcodec
// checkpoint container.
const haCkptFormat = 1

// The section body is positional big-endian, written with msgcodec's Append*
// functions and read back through its wire cursor: taskids are 12 bytes,
// strings and argument lists (msgcodec's encoding, array elements
// little-endian) sit behind a u32 length, and every list behind
// a u32 count that the cursor holds against the bytes present — at least
// the element's fixed part each — before anything is sized from it.

func haAppendMsg(b []byte, m *haMsg) ([]byte, error) {
	b = m.Sender.AppendWire(msgcodec.AppendStr32(b, m.Type))
	return msgcodec.AppendArgs(msgcodec.AppendU64(b, m.SendSeq), m.Args)
}

// haMsgMin is the fixed part of an encoded haMsg: two u32 lengths, a taskid
// and the u64 send sequence number.
const haMsgMin = 4 + 12 + 8 + 4

func haTakeMsgs(c *msgcodec.Cursor) []haMsg {
	n := c.Count(haMsgMin)
	if n == 0 {
		return nil
	}
	msgs := make([]haMsg, 0, n)
	for ; n > 0; n-- {
		msgs = append(msgs, haMsg{Type: c.Str32(), Sender: ReadTaskID(c), SendSeq: c.U64(), Args: c.Args()})
	}
	return msgs
}

func encodeClusterCkpt(cs haCkptCluster) ([]byte, error) {
	var err error
	b := msgcodec.AppendI32(nil, cs.number)
	b = msgcodec.AppendU32(b, uint32(len(cs.initMap)))
	for _, e := range cs.initMap {
		b = msgcodec.AppendU64(e.key.parent.AppendWire(b), e.key.seq)
		b = e.child.AppendWire(b)
	}
	b = msgcodec.AppendU32(b, uint32(len(cs.pending)))
	for _, p := range cs.pending {
		b = msgcodec.AppendU64(p.key.parent.AppendWire(b), p.key.seq)
		b = p.parent.AppendWire(msgcodec.AppendStr32(b, p.tasktype))
		if b, err = msgcodec.AppendArgs(b, p.args); err != nil {
			return nil, err
		}
	}
	b = msgcodec.AppendU32(b, uint32(len(cs.tasks)))
	for i := range cs.tasks {
		ts := &cs.tasks[i]
		b = msgcodec.AppendStr32(ts.id.AppendWire(b), ts.tasktype)
		if b, err = msgcodec.AppendArgs(ts.parent.AppendWire(b), ts.args); err != nil {
			return nil, err
		}
		floors := make([]TaskID, 0, len(ts.floors))
		for k := range ts.floors {
			floors = append(floors, k)
		}
		sort.Slice(floors, func(i, j int) bool { return floors[i].less(floors[j]) })
		b = msgcodec.AppendU32(b, uint32(len(floors)))
		for _, k := range floors {
			b = msgcodec.AppendU64(k.AppendWire(b), ts.floors[k])
		}
		b = msgcodec.AppendU32(b, uint32(len(ts.log)))
		for _, rec := range ts.log {
			var flags byte
			if rec.open {
				flags |= 1
			}
			if rec.timedOut {
				flags |= 2
			}
			b = msgcodec.AppendU32(append(b, flags), uint32(len(rec.msgs)))
			for j := range rec.msgs {
				if b, err = haAppendMsg(b, &rec.msgs[j]); err != nil {
					return nil, err
				}
			}
		}
		b = msgcodec.AppendU32(b, uint32(len(ts.queue)))
		for j := range ts.queue {
			if b, err = haAppendMsg(b, &ts.queue[j]); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func decodeClusterCkpt(b []byte) (haCkptCluster, error) {
	c := msgcodec.NewCursor(b)
	cs := haCkptCluster{number: c.I32()}
	for n := c.Count(12 + 8 + 12); n > 0; n-- {
		cs.initMap = append(cs.initMap, haCkptInitEntry{key: initKey{parent: ReadTaskID(&c), seq: c.U64()}, child: ReadTaskID(&c)})
	}
	for n := c.Count(12 + 8 + 4 + 12 + 4); n > 0; n-- {
		cs.pending = append(cs.pending, haCkptPending{
			key:      initKey{parent: ReadTaskID(&c), seq: c.U64()},
			tasktype: c.Str32(), parent: ReadTaskID(&c), args: c.Args(),
		})
	}
	for n := c.Count(12 + 4 + 12 + 4 + 3*4); n > 0; n-- {
		ts := haCkptTask{id: ReadTaskID(&c), tasktype: c.Str32(), parent: ReadTaskID(&c), args: c.Args()}
		nf := c.Count(12 + 8)
		ts.floors = make(map[TaskID]uint64, nf)
		for ; nf > 0; nf-- {
			k := ReadTaskID(&c)
			ts.floors[k] = c.U64()
		}
		for nl := c.Count(1 + 4); nl > 0; nl-- {
			flags := c.U8()
			ts.log = append(ts.log, &haAccRecord{open: flags&1 != 0, timedOut: flags&2 != 0, msgs: haTakeMsgs(&c)})
		}
		ts.queue = haTakeMsgs(&c)
		cs.tasks = append(cs.tasks, ts)
	}
	return cs, c.Done()
}

// decodeCheckpointBlob unwraps the msgcodec container and decodes every
// cluster section.  Every failure wraps msgcodec.ErrCorrupt.
func decodeCheckpointBlob(blob []byte) ([]haCkptCluster, error) {
	sections, err := msgcodec.DecodeCheckpoint(blob)
	if err != nil {
		return nil, err
	}
	if len(sections) < 1 {
		return nil, fmt.Errorf("%w: checkpoint has no format section", msgcodec.ErrCorrupt)
	}
	c := msgcodec.NewCursor(sections[0])
	if v := c.U32(); c.Done() != nil || v != haCkptFormat {
		return nil, fmt.Errorf("%w: checkpoint format %d not supported", msgcodec.ErrCorrupt, v)
	}
	out := make([]haCkptCluster, 0, len(sections)-1)
	for i, sec := range sections[1:] {
		cs, err := decodeClusterCkpt(sec)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint section %d: %w", i+1, err)
		}
		out = append(out, cs)
	}
	return out, nil
}
