package core

import (
	"fmt"
	"time"

	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// Forever, used as the Delay of an AcceptSpec, waits indefinitely for the
// requested messages (no DELAY clause timeout).
const Forever = time.Duration(-1)

// All, used as a TypeCount count, accepts every message of the type that has
// already been received ("may specify 'ALL' to indicate that all messages of
// that type that have been received should be processed").
const All = -1

// AnyMessage, used as a TypeCount type, matches any message type not listed
// explicitly in the same ACCEPT.  The controllers use it to field whatever
// the user tasks send them; it is an extension over the paper's ACCEPT.
const AnyMessage = anyType

// TypeCount names one message type in an ACCEPT statement together with the
// number of messages of that type required.  Count 0 means the type
// contributes to the statement's shared Total; Count > 0 requires that many
// messages of this type; Count == All drains whatever has already arrived.
type TypeCount struct {
	Type  string
	Count int
}

// AcceptSpec is the Pisces Fortran ACCEPT statement:
//
//	ACCEPT <number> OF
//	   <message type 1>
//	   <message type 2> ...
//	DELAY <time value> THEN <statement sequence>
//	END ACCEPT
type AcceptSpec struct {
	// Total is the <number> of messages to accept across all listed types
	// whose Count is 0.  Ignored when every type carries its own count.
	Total int
	// Types lists the message types taken from the in-queue by this ACCEPT.
	Types []TypeCount
	// Delay is the DELAY clause: how long to wait for messages that have not
	// yet arrived.  Zero uses the system-provided timeout; Forever disables
	// the timeout.
	Delay time.Duration
	// OnTimeout, if non-nil, is the THEN statement sequence executed when the
	// wait exceeds Delay.
	OnTimeout func(*Task)
}

// AcceptResult reports what an ACCEPT statement processed.
type AcceptResult struct {
	// Accepted lists the accepted messages in acceptance order (handler
	// types included — the handler has already run for them).
	Accepted []*Message
	// TimedOut reports that the DELAY expired before the requested messages
	// all arrived.
	TimedOut bool

	// groups holds Accepted by message type, in order of each type's first
	// message: one entry for every type this ACCEPT took and no other.  It is
	// a small slice scanned linearly, as acceptState.reqs is.
	groups []typeGroup
}

// typeGroup is the accepted messages of one type, in acceptance order.
type typeGroup struct {
	name string
	msgs []*Message
}

// ByType returns the accepted messages of the given type, in acceptance
// order; the list is the result's own and must not be modified.
func (r *AcceptResult) ByType(msgType string) []*Message {
	if g := r.group(msgType); g != nil {
		return g.msgs
	}
	return nil
}

// group finds the group of a type this ACCEPT has taken, or nil.
func (r *AcceptResult) group(msgType string) *typeGroup {
	for i := range r.groups {
		if r.groups[i].name == msgType {
			return &r.groups[i]
		}
	}
	return nil
}

// add lists an accepted message, last of all and last of its type.
func (r *AcceptResult) add(m *Message) {
	r.Accepted = append(r.Accepted, m)
	g := r.group(m.Type)
	if g == nil {
		// A new type: take over the list a group of an earlier use of this
		// result left behind the truncation (reuseResult), if there is one.
		n := len(r.groups)
		if n < cap(r.groups) {
			r.groups = r.groups[:n+1]
		} else {
			r.groups = append(r.groups, typeGroup{})
		}
		g = &r.groups[n]
		g.name, g.msgs = m.Type, g.msgs[:0]
	}
	g.msgs = append(g.msgs, m)
}

// Count returns the number of accepted messages of the given type.
func (r *AcceptResult) Count(msgType string) int { return len(r.ByType(msgType)) }

// AcceptOne accepts a single message of any of the listed types, waiting with
// the system default timeout.  It is the most common ACCEPT form.
func (t *Task) AcceptOne(types ...string) (*Message, error) {
	spec := AcceptSpec{Total: 1}
	for _, ty := range types {
		spec.Types = append(spec.Types, TypeCount{Type: ty})
	}
	res, err := t.Accept(spec)
	if err != nil {
		return nil, err
	}
	if len(res.Accepted) == 0 {
		return nil, fmt.Errorf("core: ACCEPT timed out waiting for %v", types)
	}
	// The caller gets the message, never the result: keep it for the next
	// ACCEPT.
	m := res.Accepted[0]
	t.reuseResult(res)
	return m, nil
}

// AcceptN accepts n messages of the single listed type.
func (t *Task) AcceptN(n int, msgType string) (*AcceptResult, error) {
	return t.Accept(AcceptSpec{Types: []TypeCount{{Type: msgType, Count: n}}})
}

// typeReq is the remaining requirement for one message type of an ACCEPT
// statement.
type typeReq struct {
	name   string
	count  int  // remaining per-type count; All means drain everything
	shared bool // charged against the statement's shared total
}

// acceptState tracks the remaining requirements of one ACCEPT statement.  It
// is a small slice — ACCEPT statements list a handful of types — scanned
// linearly, so matching allocates nothing; each Task keeps one acceptState
// that is reset per ACCEPT, so the steady-state accept path performs no
// per-call map or state allocation at all.
type acceptState struct {
	reqs      []typeReq
	wildcard  int             // index into reqs of the anyType entry, or -1
	needTotal int             // remaining shared total
	scratch   []*Message      // reusable takeMatching output buffer
	ring      []obs.RingEvent // reusable record buffer: one run's accept events
}

// reset re-arms the state for one ACCEPT statement, reusing its storage.
func (st *acceptState) reset(spec AcceptSpec) error {
	st.reqs = st.reqs[:0]
	st.wildcard = -1
	st.needTotal = 0
	hasShared := false
	for _, tc := range spec.Types {
		for i := range st.reqs {
			if st.reqs[i].name == tc.Type {
				return fmt.Errorf("core: ACCEPT lists message type %q twice", tc.Type)
			}
		}
		r := typeReq{name: tc.Type}
		switch {
		case tc.Count == All:
			r.count = All
		case tc.Count > 0:
			r.count = tc.Count
		default:
			r.shared = true
			hasShared = true
		}
		if tc.Type == anyType {
			st.wildcard = len(st.reqs)
		}
		st.reqs = append(st.reqs, r)
	}
	if hasShared {
		st.needTotal = spec.Total
		if st.needTotal <= 0 {
			st.needTotal = 1
		}
	}
	return nil
}

// match resolves a message type to its requirement entry: the explicit entry
// if the type is listed, else the wildcard entry (resolved once at reset, not
// per message), else nil.
func (st *acceptState) match(msgType string) *typeReq {
	for i := range st.reqs {
		if st.reqs[i].name == msgType {
			return &st.reqs[i]
		}
	}
	if st.wildcard >= 0 {
		return &st.reqs[st.wildcard]
	}
	return nil
}

// wants reports whether the statement could still take a message: shared
// total left, a per-type count not yet met, or an ALL entry.  takeMatching
// stops its scan when it turns false.
func (st *acceptState) wants() bool {
	if st.needTotal > 0 {
		return true
	}
	for i := range st.reqs {
		if c := st.reqs[i].count; c > 0 || c == All {
			return true
		}
	}
	return false
}

// satisfied reports whether every requirement has been met.
func (st *acceptState) satisfied() bool {
	if st.needTotal > 0 {
		return false
	}
	for i := range st.reqs {
		r := &st.reqs[i]
		if r.shared || r.count == All {
			continue
		}
		if r.count > 0 {
			return false
		}
	}
	return true
}

// drain takes whatever matching messages are currently queued and processes
// them; takeMatching updates the remaining requirements in place.
//
// The messages are processed in runs, each ending at the next message a
// handler will see.  A run's storage is recovered in one shard round before
// any of it is processed, and its accept events go into the flight recorder
// in one ring round under one stamp (obs.Registry.EmitRun) before any of it
// is processed; since a handler ends its run, it finds the heap, the ring
// and the recorder clock exactly as it would had each message been released
// and recorded on its own.  A kill that unwinds mid-run leaves the accepts of
// the run's unprocessed messages in the ring: they were taken.
func (st *acceptState) drain(t *Task, res *AcceptResult) {
	taken := t.rec.queue.takeMatching(st, st.scratch[:0])
	i := 0
	defer func() {
		// processAccepted can unwind mid-batch on a kill (Charge checks the
		// kill flag) or on a handler panic.  The remaining taken messages are
		// no longer in the queue, so the termination path cannot recover
		// their heap storage — release it here.  releaseMessage is
		// idempotent, so the messages of the run already released are safe.
		for ; i < len(taken); i++ {
			t.vm.releaseMessage(taken[i])
		}
		// Keep the grown buffer but drop the message pointers: the messages
		// now belong to the result, and a task-lifetime scratch must not pin
		// them.
		for j := range taken {
			taken[j] = nil
		}
		st.scratch = taken[:0]
	}()
	for i < len(taken) {
		end := i
		var h Handler
		for h == nil && end < len(taken) {
			h = t.handlers[taken[end].Type]
			end++
		}
		t.vm.releaseRun(taken[i:end], t.rec.cluster.heap)
		var stamp obs.Stamp
		each := st.record(t, taken[i:end], &stamp)
		for ; i < end-1; i++ {
			t.processAccepted(taken[i], res, nil, each)
		}
		t.processAccepted(taken[i], res, h, each)
		i++
	}
}

// record hands the accept events of one run to the flight recorder in one
// round, stamped from stamp, and returns stamp when another sink wants each
// event on its own (processAccepted emits it) and nil when the ring was all.
// The accept of a routed message (edge != 0) closes its causal pair in the
// ring: the edge links it to the send recorded on the sender's node
// (possibly another process's dump).
func (st *acceptState) record(t *Task, run []*Message, stamp *obs.Stamp) *obs.Stamp {
	reg := t.vm.om.reg
	if !reg.Watching(obs.MsgAccept) {
		return nil
	}
	ring, cluster := st.ring[:0], int64(t.ID().Cluster)
	for _, m := range run {
		ring = append(ring, obs.RingEvent{Edge: m.edge, A: cluster, B: int64(m.Sender.Cluster)})
	}
	st.ring = ring
	if reg.EmitRun(obs.MsgAccept, ring, stamp) {
		return stamp
	}
	return nil
}

// Accept executes an ACCEPT statement: messages of the listed types are taken
// from the in-queue in arrival order and processed (handler types through
// their handler, signal types by counting) until the requested numbers have
// been processed.  If the messages have not yet arrived the task waits,
// releasing its PE; waiting is bounded by the DELAY clause.
func (t *Task) Accept(spec AcceptSpec) (*AcceptResult, error) {
	t.checkKilled()
	if len(spec.Types) == 0 {
		return nil, fmt.Errorf("core: ACCEPT statement lists no message types")
	}
	// Reuse the task's accept state unless this is a re-entrant ACCEPT (from
	// a message handler or an OnTimeout callback) whose outer statement still
	// owns it.
	var st *acceptState
	if t.accActive {
		st = new(acceptState)
	} else {
		st = &t.acc
		t.accActive = true
		defer func() { t.accActive = false }()
	}
	if err := st.reset(spec); err != nil {
		return nil, err
	}

	// HA mode: bracket the statement with its consumption-log record, and on
	// a freshly restored task drive the replay of the corresponding
	// checkpointed record (see ha.go).  Controllers keep floors but no log.
	if h := t.rec.queue.ha; h != nil && h.logOn {
		t.haBeginAccept()
		res, err := t.acceptLoop(spec, st)
		t.rec.queue.haEndAccept(res != nil && res.TimedOut)
		return res, err
	}
	return t.acceptLoop(spec, st)
}

// acceptLoop is the body of an ACCEPT statement once its matching state has
// been armed: drain, wait, time out.
func (t *Task) acceptLoop(spec AcceptSpec, st *acceptState) (*AcceptResult, error) {
	timeout := spec.Delay
	if timeout == 0 {
		timeout = t.vm.opts.AcceptTimeout
	}
	// The deadline is set when the first drain comes up short: a statement
	// whose messages are already queued never reads the clock.
	var deadline time.Time
	hasDeadline := timeout != Forever

	// The result the task's owner last handed back through RecycleAccept is
	// filled again; a caller that keeps its results gets a new one each time.
	res := t.accFree
	if res != nil {
		t.accFree = nil
	} else {
		res = new(AcceptResult)
	}
	for {
		t.checkKilled()
		st.drain(t, res)
		if st.satisfied() {
			return res, nil
		}

		// Wait for more messages, the deadline, or a kill.  Message arrival
		// and kill pulse the same per-task event; the loop re-checks both
		// conditions after every wake, so collapsed pulses are harmless.
		signaled := true
		var obsT0 time.Time
		if t.vm.metricsOn() {
			obsT0 = t.vm.om.reg.Now()
		}
		if hasDeadline {
			now := t.vm.backend.Now()
			if deadline.IsZero() {
				deadline = now.Add(timeout)
			}
			remaining := deadline.Sub(now)
			if remaining <= 0 {
				return t.acceptTimeout(spec, st, res)
			}
			t.blockFn(func() { signaled = t.rec.wake.WaitTimeout(remaining) })
		} else {
			t.blockFn(func() { t.rec.wake.Wait() })
		}
		if !obsT0.IsZero() {
			t.vm.om.hists().acceptWait.ObserveDuration(t.vm.om.reg.Now().Sub(obsT0))
		}
		if !signaled {
			// One final drain before reporting the timeout, in case messages
			// arrived in the same instant.
			st.drain(t, res)
			if st.satisfied() {
				return res, nil
			}
			return t.acceptTimeout(spec, st, res)
		}
	}
}

// acceptTimeout finishes an ACCEPT whose DELAY expired: "the task continues
// execution, starting with the statement sequence given in the DELAY clause
// (or with a system-generated 'timeout' message)".
func (t *Task) acceptTimeout(spec AcceptSpec, st *acceptState, res *AcceptResult) (*AcceptResult, error) {
	res.TimedOut = true
	if spec.OnTimeout != nil {
		spec.OnTimeout(t)
	}
	return res, nil
}

// processAccepted processes one accepted message whose shared-memory storage
// drain has already recovered — before anything that can unwind on a kill;
// the arguments live in the header's store, not the arena, so the handler
// never reads the released bytes.  It updates SENDER, charges ticks, emits
// the accept event to the sinks besides the ring, stamped from st (nil: the
// ring was the only sink, and drain recorded the run), and runs h, the type's
// handler if it has one.
func (t *Task) processAccepted(m *Message, res *AcceptResult, h Handler, st *obs.Stamp) {
	t.lastSender = m.Sender
	packets := 0
	if m.heapBytes > msgcodec.HeaderBytes {
		packets = (m.heapBytes - msgcodec.HeaderBytes) / msgcodec.PacketBytes
	}
	t.Charge(int64(costAcceptMsg + costAcceptPacket*packets))
	t.vm.msgsAccpt.Add(1)
	if st != nil {
		t.vm.emitStamped(&obs.Event{Kind: obs.MsgAccept, Task: obs.TaskRef(t.ID()), Peer: obs.TaskRef(m.Sender),
			Edge: m.edge, Type: m.Type, A: int64(len(m.Args))}, t.rec.cluster.primary, st)
	}
	if h != nil {
		h(t, m)
	}
	res.add(m)
}
