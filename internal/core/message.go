package core

import (
	"sync"

	"repro/internal/backend"
	"repro/internal/memory"
	"repro/internal/msgcodec"
)

// System message types used by the run-time itself.  They use a reserved
// prefix so they cannot collide with applications' message types.
const (
	msgInitRequest = "pisces.initiate"
	msgTaskDone    = "pisces.task-done"
	msgShutdown    = "pisces.shutdown"
	msgUserSync    = "pisces.user-sync"

	// anyType is the wildcard message type usable in ACCEPT statements; it
	// matches any message type not listed explicitly (exported as
	// AnyMessage).
	anyType = "*"
)

// Message is one message in a task's in-queue.  "Messages consist of a header
// and a list of packets containing the arguments" (Section 11); the heap
// fields record the shared-memory bytes charged for the message so they can
// be recovered when the message is accepted or deleted.  It is also the only
// header a message has inside the run-time: the one send head (VM.dispatch)
// builds it from the SEND's fields, a routed message gets the same header
// filled in on the destination side, and arrival order is the in-queue's ring
// order — nothing numbers messages.
//
// The argument list has one owner, the header: on every route Args is storage
// private to the header (store), arrays included, filled by copying the
// sender's list or by decoding its wire form, and it goes back to messagePool
// with the header (RecycleAccept), to carry the next message's list — a REAL
// or INTEGER array is refilled in place.  So a sender may do what it likes
// with the list it passed once SEND has returned, and a receiver may read Args
// and the arrays in it until it hands the message back — and whatever must
// outlive the message takes the list with it (keepArgs).
type Message struct {
	// Type is the message type named in the SEND statement.
	Type string
	// Sender is the taskid of the sending task; "whenever a task receives a
	// message from another task, the taskid of the sender is included as part
	// of the message" (Section 6).
	Sender TaskID
	// Args carries the argument list.
	Args []Value
	// store is the header's own argument storage, which Args aliases: its
	// length is what this message uses of it, its capacity — and the arrays
	// of its slots — what the header carries from message to message.  Nil
	// once keepArgs has given the list away, and empty under an Args the
	// run-time rebuilt from a retained list (haInject).
	store []Value

	// edge is the causal edge id stamped on routed (cross-cluster or
	// cross-node) messages; 0 for the intra-cluster fast path, which never
	// pays for causal tracing.  The accept path records it in the flight
	// recorder, linking accept events back to their send.
	edge uint64
	// sendSeq is the sender-task send sequence number used for duplicate
	// suppression when the VM runs in HA mode (see ha.go).  Zero means
	// unsequenced: the message came from the execution environment or a
	// non-HA VM and is never deduplicated.
	sendSeq uint64
	// heapBytes is the message's packet-model size, and heapCharge the bytes
	// its shared-memory heap allocation holds while it waits in the in-queue
	// (memory.Allocator.Alloc's answer for heapBytes); heapShard is the
	// per-cluster heap shard charged (the destination cluster's shard, since
	// the receiver's run-time recovers the storage), nil once the storage is
	// recovered.  heapBytes outlives the recovery: it prices the accept.
	heapBytes  int
	heapCharge int
	heapShard  *memory.Allocator
	// reply, when non-nil, returns the new task's id to the initiator of the
	// run-time's own initiate requests.
	reply *initReply
	// sync, when non-nil, is opened by the user controller once this
	// message has been processed (used by VM.FlushUserOutput).
	sync backend.Gate
}

// Arg returns argument i, or a zero Value if out of range.
func (m *Message) Arg(i int) Value {
	if i < 0 || i >= len(m.Args) {
		return Value{}
	}
	return m.Args[i]
}

// NumArgs returns the number of arguments in the message.
func (m *Message) NumArgs() int { return len(m.Args) }

// messagePool recycles messages on the send/accept hot path: the header and,
// inside it, the argument storage (Message.store) and its arrays, so a steady
// stream of messages allocates none of them.  A header in the pool is zero but
// for that storage, which is empty, its slots cleared of everything but their
// array storage.
var messagePool = sync.Pool{New: func() any { return new(Message) }}

// pooledArgs is the longest argument list whose storage a header keeps across
// messages (768 bytes).  A longer list's storage is dropped with the message
// instead of being pinned by the pool; so is an array longer than a pooled
// frame's payload buffer holds (pooledArray).
const pooledArgs = 16

// newMessage takes a header from the pool; it has no arguments until setArgs
// or decodeArgs gives it some.
func newMessage(msgType string, sender TaskID) *Message {
	m := messagePool.Get().(*Message)
	m.Type, m.Sender = msgType, sender
	return m
}

// setArgs copies an argument list into the header's store, arrays into the
// store's own (msgcodec.CopyInto): the message keeps neither the list it was
// sent with nor an array of it.
func (m *Message) setArgs(args []Value) {
	m.store = msgcodec.CopyInto(m.store, args)
	m.Args = m.store
}

// decodeArgs decodes an argument list's wire form into the header's store and
// returns the list's packet-model size.  After a failure the store holds
// nothing (msgcodec.DecodeInto).
func (m *Message) decodeArgs(wire []byte) (int, error) {
	args, size, err := msgcodec.DecodeInto(m.store, wire)
	if err != nil {
		return 0, err
	}
	m.store, m.Args = args, args
	return size, nil
}

// keepArgs takes the argument list, arrays and all, out of the pool's hands
// and returns it: the header will neither clear nor reuse it, so it may be
// read for as long as anything holds it.  It is the one rule for everything
// that outlives a message — an in-queue in HA mode calls it on every message
// it admits (put), since the consumption log, a checkpoint's queue snapshot
// and the replay pen all retain lists, and the task controller on an initiate
// request, whose tail becomes the new task's arguments (decodeInitRequest).
func (m *Message) keepArgs() []Value {
	m.store = nil
	return m.Args
}

// recycleMessage returns a message to the pool, header and argument storage.
// The caller must be the message's sole owner: messages handed out through
// AcceptResult must never be recycled while the result is still readable.
// The used slots of the store are cleared of everything but their arrays,
// which the next list's arrays refill, so the pool pins no string a message
// carried, nor an array over pooledArray's bound.
func recycleMessage(m *Message) {
	*m = Message{store: pooledStore(m.store)}
	messagePool.Put(m)
}

// pooledStore is the argument storage a recycled header keeps of store: none
// over pooledArgs slots, else the slots emptied, each cleared of everything
// but its array storage (pooledArray), which carries either array kind.
func pooledStore(store []Value) []Value {
	if cap(store) > pooledArgs {
		return nil
	}
	for i := range store {
		a := &store[i]
		*a = Value{RealArray: pooledArray(a.RealArray)}
	}
	return store[:0]
}

// pooledArray is the array a recycled slot keeps: its own, unless it is longer
// than a pooled frame's payload buffer holds — the rule that keeps one large
// list from pinning a frame buffer (framePayloadBytes) keeps it from pinning
// a header too.
func pooledArray(a []float64) []float64 {
	if cap(a) > framePayloadBytes/8 {
		return nil
	}
	return a
}

// RecycleAccept returns the messages of an AcceptResult — headers and the
// argument lists inside them, arrays included — to the run-time's message
// pool and hands the emptied result back to the task (reuseResult).  It is an
// optional optimisation for callers that fully own the result (the
// interpreter's ACCEPT statement, the controllers): after the call the
// result, its messages, their Args and any array read from them (AsReals,
// AsInts) must not be read again, because the next message to arrive anywhere
// in the process may be written over them; copy an array that must outlive
// its message.
func (t *Task) RecycleAccept(res *AcceptResult) {
	if res == nil {
		return
	}
	for _, m := range res.Accepted {
		recycleMessage(m)
	}
	t.reuseResult(res)
}

// reuseResult empties a result nobody will read again and keeps it — the
// struct, its Accepted list and its type groups — for the task's next ACCEPT
// to fill instead of building a new one.  The groups are truncated, so the
// refilled result lists exactly the types that ACCEPT takes.  Only the
// result's own storage is reused here: the messages it listed are untouched
// (RecycleAccept is what returns them).
func (t *Task) reuseResult(res *AcceptResult) {
	clear(res.Accepted)
	res.Accepted = res.Accepted[:0]
	for i := range res.groups {
		clear(res.groups[i].msgs)
	}
	res.groups = res.groups[:0]
	res.TimedOut = false
	t.accFree = res
}

// inQueue is a task's in-queue: "Messages are queued in an in-queue for the
// receiver in order of arrival" (Section 6).  The queue is a power-of-two
// ring buffer: a SEND writes one slot, and an ACCEPT pays for the messages it
// examines up to the last one it takes, not for the queue's depth — taking
// the oldest message moves head past it and touches nothing else, and
// messages skipped on the way to a later one are slid up against the
// untouched tail (see takeMatching).  Steady-state traffic never appends to
// the backing array.
type inQueue struct {
	mu     sync.Mutex
	buf    []*Message    // ring storage; len(buf) is a power of two
	head   int           // index of the oldest message
	n      int           // number of queued messages
	wake   backend.Event // pulsed on every enqueue (and by kill)
	closed bool
	// examined counts the slots takeMatching has looked at, so a test can
	// hold an ACCEPT to its cost; guarded by mu.
	examined uint64
	// ha holds the receiver-side fault-tolerance state (duplicate-suppression
	// floors, the consumption log, replay state).  Nil unless the VM runs in
	// HA mode; all fields are guarded by mu.  See ha.go.
	ha *taskHA
}

// putResult reports what put did with a message.
type putResult int

const (
	// putOK: the message was admitted (queued, or parked in the replay pen).
	putOK putResult = iota
	// putClosed: the receiver has terminated; the caller owns the message.
	putClosed
	// putDup: HA duplicate suppression dropped the message (its send sequence
	// number was at or below the sender's floor); the caller owns the message
	// and should treat the send as already delivered.
	putDup
)

// initialQueueCap pre-sizes the ring so fan-in bursts (several senders per
// receiver, as in E5) do not grow the buffer message by message.
const initialQueueCap = 16

// newInQueue builds a queue waking the given event.  The event is shared
// with the owning task's record: a kill pulses the same event, so one wait in
// ACCEPT covers both arrival and termination.
func newInQueue(wake backend.Event) *inQueue {
	return &inQueue{wake: wake, buf: make([]*Message, initialQueueCap)}
}

// at returns the i-th queued message, oldest first.  Callers hold q.mu.
func (q *inQueue) at(i int) *Message { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// set stores the i-th queued message slot.  Callers hold q.mu.
func (q *inQueue) set(i int, m *Message) { q.buf[(q.head+i)&(len(q.buf)-1)] = m }

// grow doubles the ring, re-linearising the queued messages.  Callers hold
// q.mu.
func (q *inQueue) grow() {
	nb := make([]*Message, 2*len(q.buf))
	for i := 0; i < q.n; i++ {
		nb[i] = q.at(i)
	}
	q.buf = nb
	q.head = 0
}

// put appends a message and pulses the wake channel.  In HA mode the message
// keeps its argument list for good (keepArgs: the log, a checkpoint and the
// pen retain what this queue admits), and put first applies the
// duplicate-suppression floor (a replayed sender regenerates the send sequence
// numbers of messages the receiver has already admitted, and retained wire
// frames may be re-delivered after a recovery; both must be dropped exactly
// once-admitted semantics), and while the receiver itself is replaying its
// consumption log, live messages are parked in the pen so they cannot
// interleave with re-injected history.
func (q *inQueue) put(m *Message) putResult {
	q.mu.Lock()
	res, queued := q.admitLocked(m)
	q.mu.Unlock()
	if queued {
		q.wake.Pulse()
	}
	return res
}

// putRun is put for a run of messages, in order, in one lock round and with
// one pulse; a nil slot is skipped.  Each admitted message's slot is cleared
// — once the lock is released the receiver may take and recycle it — so the
// slots left non-nil hold the messages the queue did not take, which the
// caller owns.
func (q *inQueue) putRun(run []*Message) {
	q.mu.Lock()
	pulse := false
	for i, m := range run {
		if m == nil {
			continue
		}
		if res, queued := q.admitLocked(m); res == putOK {
			run[i] = nil
			pulse = pulse || queued
		}
	}
	q.mu.Unlock()
	if pulse {
		q.wake.Pulse()
	}
}

// admitLocked is put's admission of one message under q.mu; queued reports
// whether it went into the ring (an admitted message may be parked in the
// replay pen instead, which wakes nobody).
func (q *inQueue) admitLocked(m *Message) (res putResult, queued bool) {
	if q.closed {
		return putClosed, false
	}
	if h := q.ha; h != nil {
		m.keepArgs()
		if m.sendSeq != 0 {
			floor := h.floors[m.Sender]
			if m.sendSeq <= floor {
				// Duplicate — except initiate requests, which must reach the
				// controller again so the initMap can re-deliver the child id
				// to the (possibly replayed) requester's reply.
				if m.Type != msgInitRequest {
					return putDup, false
				}
			} else {
				h.floors[m.Sender] = m.sendSeq
			}
		}
		if h.replaying {
			h.pen = append(h.pen, m)
			return putOK, false
		}
	}
	q.injectLocked(m)
	return putOK, true
}

// injectLocked appends a message to the ring bypassing floors and the replay
// pen: the HA replay path re-injects logged history through it.  Callers hold
// q.mu.
func (q *inQueue) injectLocked(m *Message) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.set(q.n, m)
	q.n++
}

// close marks the queue closed and returns the messages still waiting so
// their heap storage can be recovered (including any parked in the HA replay
// pen).
func (q *inQueue) close() []*Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	out := make([]*Message, 0, q.n)
	for i := 0; i < q.n; i++ {
		out = append(out, q.at(i))
		q.set(i, nil)
	}
	q.head, q.n = 0, 0
	if h := q.ha; h != nil && len(h.pen) > 0 {
		out = append(out, h.pen...)
		h.pen = nil
	}
	return out
}

// snapshot copies the queued messages by value, oldest first, for display
// views.  Headers are copied because a queued message may be accepted — and
// its header recycled — while the caller is still reading the snapshot.  The
// copy's Args still points into the header's store, which is recycled with
// it: a caller may read len(Args) and nothing behind it.
func (q *inQueue) snapshot() []Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Message, q.n)
	for i := 0; i < q.n; i++ {
		out[i] = *q.at(i)
	}
	return out
}

// len returns the number of waiting messages.
func (q *inQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// takeMatching removes and returns the messages that satisfy the remaining
// requirements of an ACCEPT statement, in arrival order, appending them to
// out (a scratch buffer the caller reuses).  Matching is driven by the
// acceptState's type-request slice — no per-call allocation — and the
// state's remaining counts and shared budget are updated in place.
//
// The scan stops at the first message after which the statement can take
// nothing more (acceptState.wants), so its cost is the number of messages
// examined up to the last one taken, whatever the queue holds behind it: an
// ACCEPT 1 OF T whose oldest message is a T touches one slot.  The messages
// skipped inside the examined prefix are slid up against the untouched tail,
// in order, and head moves past the slots the taken ones left.  Only a
// statement with an ALL entry, or one the queue cannot satisfy, walks the
// whole queue.
func (q *inQueue) takeMatching(st *acceptState, out []*Message) []*Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	base := len(out)
	end := 0 // messages examined
	for wants := st.wants(); wants && end < q.n; end++ {
		m := q.at(end)
		r := st.match(m.Type)
		if r == nil {
			continue
		}
		switch {
		case r.count == All: // ALL: drain everything of this type
		case r.count > 0: // per-type count not yet met
			r.count--
		case r.shared && st.needTotal > 0:
			st.needTotal--
		default:
			continue
		}
		out = append(out, m)
		q.set(end, nil)
		wants = st.wants()
	}
	q.examined += uint64(end)
	taken := len(out) - base
	if taken == 0 {
		return out
	}
	if taken < end {
		// Close the gaps from the tail end of the prefix, so the skipped
		// messages keep their order in front of the messages never examined.
		w := end - 1
		for i := end - 1; i >= 0; i-- {
			if m := q.at(i); m != nil {
				if w != i {
					q.set(w, m)
					q.set(i, nil)
				}
				w--
			}
		}
	}
	q.head = (q.head + taken) & (len(q.buf) - 1)
	q.n -= taken
	// HA consumption log: record what this ACCEPT consumed, in order, so a
	// restored task can replay the exact same intake (see ha.go).
	if h := q.ha; h != nil && len(h.openStack) > 0 {
		rec := h.openStack[len(h.openStack)-1]
		for _, m := range out[base:] {
			rec.msgs = append(rec.msgs, haMsg{Type: m.Type, Sender: m.Sender, SendSeq: m.sendSeq, Args: m.Args})
		}
	}
	return out
}

// removeType removes all messages of the given type ("" removes every
// message) and returns them, for the DELETE MESSAGES operation of the
// execution environment.
func (q *inQueue) removeType(msgType string) []*Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	var removed []*Message
	kept := 0
	for i := 0; i < q.n; i++ {
		m := q.at(i)
		if msgType == "" || m.Type == msgType {
			removed = append(removed, m)
		} else {
			q.set(kept, m)
			kept++
		}
	}
	for i := kept; i < q.n; i++ {
		q.set(i, nil)
	}
	q.n = kept
	return removed
}
