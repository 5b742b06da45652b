package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/msgcodec"
	"repro/internal/trace"
)

// Kind names one thing the runtime announces.  Every announcement site in
// internal/core, internal/node and internal/pfi builds one Event of one Kind
// and hands it to its layer's emission routine ((*core.VM).emit, which reads
// the PE clock and forwards, or Registry.Emit where no task is involved);
// which of the three sinks hear about it — the Section 12 trace line, the
// flight-recorder ring, the span capture — is that kind's row of the table
// below and the registry's switches, never the site's business.  The two
// sites on every routed message, a remote send and an ACCEPT run, go through
// EmitRun first, which records their ring events and tells them whether an
// Event is wanted at all.
type Kind uint8

// The event kinds.  README's "Event catalogue" has one row per kind and
// TestEventCatalogueMatchesKinds holds the two to each other.
const (
	TaskInit Kind = iota
	TaskRestore
	TaskTerm
	MsgSend
	MsgSendRemote
	MsgInitiate
	MsgWindow
	MsgAccept
	Lock
	Unlock
	Barrier
	ForceSplit
	Route
	Deliver
	WireDeliver
	WireDeliverStep
	WireReply
	WireRx
	Kill
	Limit
	CreditStall
	Checkpoint
	HeartbeatMiss
	// Regions off the message path, spans only.
	TaskBody
	MeshHandshake
	DrainRound
	Rebalance
	numKinds
)

// The Watching mask has one bit per kind: a 33rd kind does not build.
const _ = uint32(1 << (numKinds - 1))

// noTrace marks a kind without a Section 12 trace line.
const noTrace trace.Kind = -1

// KindRow is one kind's row of the event table: what each sink makes of it.
// Info, Lane and Span are data, not code, so an Event never passes through
// an indirect call and stays on its emitter's stack.
type KindRow struct {
	Name string
	// Trace is the Section 12 event type the kind prints as (noTrace: none)
	// and Info the line's "other relevant information", a format over
	// (Type, Detail, A, B) by explicit argument index.
	Trace trace.Kind
	Info  string
	// Box is the flight-recorder kind (0: not recorded).  The ring takes
	// (A, B) as given, in shard A when ShardA is set and shard 0 otherwise;
	// ByTask kinds record (task's cluster, peer's cluster) instead, and only
	// for messages that carry a causal edge.
	Box    uint8
	ShardA bool
	ByTask bool
	// Lane is the span lane, a format over (A, B, Task) by explicit argument
	// index ("": no span); Span is the span name's prefix before Type; Phase
	// is the flow event bound to the span (0: none).
	Lane  string
	Span  string
	Phase byte
}

var kinds = [numKinds]KindRow{
	TaskInit:      {Name: "task-init", Trace: trace.TaskInit, Info: "type=%[1]s"},
	TaskRestore:   {Name: "task-restore", Trace: trace.TaskInit, Info: "type=%[1]s restored"},
	TaskTerm:      {Name: "task-term", Trace: trace.TaskTerm, Info: "%[1]s"},
	MsgSend:       {Name: "msg-send", Trace: trace.MsgSend, Info: "msgtype=%[1]s args=%[3]d bytes=%[4]d"},
	MsgSendRemote: {Name: "msg-send-remote", Trace: trace.MsgSend, Info: "msgtype=%[1]s routed=remote bytes=%[4]d"},
	MsgInitiate:   {Name: "msg-initiate", Trace: trace.MsgSend, Info: "msgtype=pisces.initiate initiate=%[1]s placement=%[2]q"},
	MsgWindow:     {Name: "msg-window", Trace: trace.MsgSend, Info: "msgtype=window-%[1]s array=%[3]d region=%[2]s elements=%[4]d"},
	MsgAccept: {Name: "msg-accept", Trace: trace.MsgAccept, Info: "msgtype=%[1]s args=%[3]d",
		Box: msgcodec.EvAccept, ShardA: true, ByTask: true},
	Lock:       {Name: "lock", Trace: trace.Lock, Info: "lock=%[1]s"},
	Unlock:     {Name: "unlock", Trace: trace.Unlock, Info: "lock=%[1]s"},
	Barrier:    {Name: "barrier", Trace: trace.BarrierEnter, Info: "member=%[3]d"},
	ForceSplit: {Name: "force-split", Trace: trace.ForceSplit, Info: "members=%[3]d"},
	Route: {Name: "route", Trace: noTrace, Box: msgcodec.EvSend, ShardA: true,
		Lane: "send/c%[1]d", Span: "send ", Phase: FlowStart},
	Deliver:         {Name: "deliver", Trace: noTrace, Lane: "router/c%[1]d->c%[2]d", Span: "deliver ", Phase: FlowEnd},
	WireDeliver:     {Name: "wire-deliver", Trace: noTrace, Lane: "router/c%[1]d<-wire", Span: "deliver ", Phase: FlowEnd},
	WireDeliverStep: {Name: "wire-deliver-step", Trace: noTrace, Lane: "router/c%[1]d<-wire", Span: "deliver ", Phase: FlowStep},
	WireReply:       {Name: "wire-reply", Trace: noTrace, Lane: "send/c%[1]d", Span: "reply", Phase: FlowEnd},
	WireRx:          {Name: "wire-rx", Trace: noTrace, Lane: "node/%[1]d rx<-n%[2]d", Span: "rx "},
	Kill:            {Name: "kill", Trace: noTrace, Box: msgcodec.EvKill, ShardA: true},
	Limit:           {Name: "limit", Trace: noTrace, Box: msgcodec.EvLimit},
	CreditStall:     {Name: "credit-stall", Trace: noTrace, Box: msgcodec.EvCreditStall, ShardA: true},
	Checkpoint:      {Name: "checkpoint", Trace: noTrace, Box: msgcodec.EvCheckpoint},
	HeartbeatMiss:   {Name: "heartbeat-miss", Trace: noTrace, Box: msgcodec.EvHeartbeatMiss},
	TaskBody:        {Name: "task-body", Trace: noTrace, Lane: "pfi/c%[1]d %[3]s", Span: "task "},
	MeshHandshake:   {Name: "mesh-handshake", Trace: noTrace, Lane: "node/%[1]d mesh", Span: "handshake"},
	DrainRound:      {Name: "drain-round", Trace: noTrace, Lane: "node/%[1]d drain", Span: "round "},
	Rebalance:       {Name: "rebalance", Trace: noTrace, Lane: "node/%[1]d ha", Span: "rebalance "},
}

// Kinds returns the event table, one row per kind in declaration order.
func Kinds() []KindRow { return append([]KindRow(nil), kinds[:]...) }

// String returns the kind's catalogue name.
func (k Kind) String() string { return kinds[k].Name }

// TaskRef is a taskid as the event carries it: core.TaskID's fields, so the
// conversion either way is free.
type TaskRef struct{ Cluster, Slot, Unique int }

// String renders the taskid as trace lines and displays print it,
// "cluster.slot.unique".
func (t TaskRef) String() string {
	var buf [3 * 21]byte // three fields of up to 20 digits and a sign each
	b := strconv.AppendInt(buf[:0], int64(t.Cluster), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(t.Slot), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(t.Unique), 10)
	return string(b)
}

// Event is one announcement: plain words, built on the emitter's stack and
// never retained.  What A, B, Type and Detail mean is the kind's (see the
// Info and Lane formats in the table).
type Event struct {
	Kind   Kind
	Task   TaskRef // the task the event is about; zero below the task level
	Peer   TaskRef // a second task involved (message peer, parent), or zero
	Edge   uint64  // causal edge of the routed message concerned, or zero
	Type   string  // message type, tasktype or lock name
	Detail string  // a second string, for the two kinds whose trace line has one
	A, B   int64
	// Start is when the announced region began.  It stays zero unless spans
	// were on then (see SpanStart), and a zero Start means no span.
	Start time.Time
}

// Info renders the "other relevant information" of the event's trace line.
func (e *Event) Info() string {
	return fmt.Sprintf(kinds[e.Kind].Info, e.Type, e.Detail, e.A, e.B)
}

// SpanStart reads the clock if spans are being captured and returns the zero
// time otherwise, so a site that may announce a span pays one mask load, not
// a clock read, while spans are off.
func (r *Registry) SpanStart() time.Time {
	if !r.Has(Spans) {
		return time.Time{}
	}
	return r.Now()
}

// rewant recomputes the per-kind masks Watching and EmitRun load from the
// three things they depend on — the Section 12 type switches, whether a
// flight recorder is attached, whether Spans is on.  Every routine that
// changes one of them calls it with r.tmu held.
func (r *Registry) rewant() {
	traced, rec, spans := r.traceOn.Load(), r.rec.Load() != nil, r.Has(Spans)
	var want, each uint32
	for k := range kinds {
		row := &kinds[k]
		if row.Trace != noTrace && traced&(1<<row.Trace) != 0 || row.Lane != "" && spans {
			each |= 1 << k
		}
		if row.Box != 0 && rec {
			want |= 1 << k
		}
	}
	r.each.Store(each)
	r.want.Store(want | each)
}

// Watching is the one question an announcement site may ask before building
// anything costly for an event: is any sink taking this kind right now?
func (r *Registry) Watching(k Kind) bool {
	return r != nil && r.want.Load()&(1<<k) != 0
}

// Emit is the emission routine for an event below the task level, which has
// no PE clock to read.
func (r *Registry) Emit(e *Event) { r.EmitAt(e, 0, 0, nil) }

// Stamp is one flight-recorder clock reading shared by a batch of events
// taken together.  Two batches share one: the messages one ACCEPT run takes
// from the queue, and the routed sends that ride one lane batch toward a
// peer node (the transport keeps the batch's Stamp and hands it to each send
// through ShareStamp).  The first event of the batch the ring records reads
// the recorder's clock into it, and the rest are stamped with that reading.
// The zero Stamp is unread, so a batch the ring records nothing of reads no
// clock.  ringed marks a batch whose ring records EmitRun already made, so
// EmitAt leaves the ring out when it hands the same events to the other
// sinks.
type Stamp struct {
	ns     int64
	read   bool
	ringed bool
}

// take returns the batch's reading of rec's clock, reading it on first use; a
// nil Stamp reads the clock every time.
func (s *Stamp) take(rec *Recorder) int64 {
	if s == nil {
		return rec.now()
	}
	if !s.read {
		s.ns, s.read = rec.now(), true
	}
	return s.ns
}

// ShareStamp hands ev the stamp of the batch it joins: the first event that
// wants it reads the flight recorder's clock into batch, and every later one
// gets that reading back.  With no recorder attached nothing is read and ev
// is left as it was.  Nil-safe.
func (r *Registry) ShareStamp(batch, ev *Stamp) {
	if rec := r.Recorder(); rec != nil {
		batch.take(rec)
		*ev = *batch
	}
}

// RingEvent is one event of a run as the flight-recorder ring keeps it: the
// causal edge and the (A, B) pair — for a ByTask kind the task's cluster and
// the peer's.
type RingEvent struct {
	Edge uint64
	A, B int64
}

// EmitRun is the emission routine for a run of kind-k events a site takes
// together — the messages of one ACCEPT segment, or one routed send.  The
// ring's records of the run (for a ByTask kind, the events with an edge) go
// in first, in one round: one sequence reservation and one lock of the shard
// the run's first event names, every record stamped from st (never nil),
// so a reader sees the whole run or none of it.  st is then marked so EmitAt leaves the
// ring out for these events.  EmitRun reports whether a sink that hears
// events one at a time — the Section 12 trace line, a span — also watches
// k: only then does the site build each Event and hand it to EmitAt with st.
// While the ring is the only sink, a site builds no Event at all.
func (r *Registry) EmitRun(k Kind, run []RingEvent, st *Stamp) bool {
	if r == nil || len(run) == 0 {
		return false
	}
	row := &kinds[k]
	if rec := r.rec.Load(); rec != nil && row.Box != 0 {
		n := len(run)
		if row.ByTask {
			n = 0
			for i := range run {
				if run[i].Edge != 0 {
					n++
				}
			}
		}
		if n > 0 {
			shard := 0
			if row.ShardA {
				shard = int(run[0].A)
			}
			rec.recordRun(shard, row.Box, run, n, row.ByTask, st.take(rec))
		}
		st.ringed = true
	}
	return r.each.Load()&(1<<k) != 0
}

// EmitAt is the emission routine: it hands the event to the sinks its kind's
// row names — the Section 12 trace line, which carries the clock reading
// (pe, ticks); the flight-recorder ring, stamped from st (nil: a reading of
// its own); the span capture — in that order.  The readings travel
// beside the event, not in it: Event is already the largest thing in an
// announcing task's frame.  Nil-safe; with nothing watching the kind it costs
// the one mask load, and it allocates only for a trace line or a captured
// span.
func (r *Registry) EmitAt(e *Event, pe int, ticks int64, st *Stamp) {
	if !r.Watching(e.Kind) {
		return
	}
	row := &kinds[e.Kind]
	// The type switch is read here, not under the trace lock: an ACCEPT the
	// ring alone is watching must not queue behind other clusters' for it.
	if row.Trace != noTrace && r.traceOn.Load()&(1<<row.Trace) != 0 {
		r.traceLine(e, row.Trace, pe, ticks)
	}
	if row.Box != 0 && (!row.ByTask || e.Edge != 0) && (st == nil || !st.ringed) {
		if rec := r.rec.Load(); rec != nil {
			a, b, shard := e.A, e.B, 0
			if row.ByTask {
				a, b = int64(e.Task.Cluster), int64(e.Peer.Cluster)
			}
			if row.ShardA {
				shard = int(a)
			}
			rec.record(shard, row.Box, e.Edge, a, b, st.take(rec))
		}
	}
	if row.Lane != "" && !e.Start.IsZero() && r.Has(Spans) {
		s := Span{Lane: fmt.Sprintf(row.Lane, e.A, e.B, e.Task), Name: row.Span + e.Type}
		if row.Phase != 0 && e.Edge != 0 {
			s.Edge, s.Phase = e.Edge, row.Phase
		}
		r.spans.add(s, e.Start, r.Now())
	}
}

// traceLine is the Section 12 sink, for an event whose type Emit found
// switched on: unless its task is switched off, it renders the line and
// hands it to every trace sink.  All of it happens under r.tmu, so a sink
// hears one event at a time, in an order all sinks agree on, and a silenced
// task's line is never rendered.
func (r *Registry) traceLine(e *Event, k trace.Kind, pe int, ticks int64) {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	if r.taskOff[e.Task] {
		return
	}
	line := trace.Event{Kind: k, Task: e.Task.String(), PE: pe, Ticks: ticks, Info: e.Info()}
	if e.Peer != (TaskRef{}) {
		line.Other = e.Peer.String()
	}
	for _, s := range r.sinks {
		s.Emit(line)
	}
}

// traceKinds is the Section 12 list of event types, in display order.
var traceKinds = trace.Kinds()

// AddTraceSink attaches sinks to the Section 12 trace.
func (r *Registry) AddTraceSink(sinks ...trace.Sink) {
	r.tmu.Lock()
	r.sinks = append(r.sinks, sinks...)
	r.tmu.Unlock()
}

// TraceKind turns tracing of one event type on or off ("Tracing may be
// turned on and off for each type of event").  An unknown type is ignored.
func (r *Registry) TraceKind(k trace.Kind, on bool) {
	if k >= 0 && int(k) < len(traceKinds) {
		r.flip(&r.traceOn, 1<<k, on)
	}
}

// TraceAll turns every event type on or off.
func (r *Registry) TraceAll(on bool) { r.flip(&r.traceOn, 1<<len(traceKinds)-1, on) }

// TraceTask turns tracing of one task on or off ("and each task").  A task
// switched off is silent whatever the type switches say.
func (r *Registry) TraceTask(t TaskRef, on bool) {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	if on {
		delete(r.taskOff, t)
		return
	}
	if r.taskOff == nil {
		r.taskOff = make(map[TaskRef]bool)
	}
	r.taskOff[t] = true
}

// TraceSettings describes the trace switches for the execution
// environment's "CHANGE TRACE OPTIONS" display: one row per event type, then
// the tasks switched off, if any.
func (r *Registry) TraceSettings() string {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	var b strings.Builder
	for _, k := range traceKinds {
		state := "off"
		if r.traceOn.Load()&(1<<k) != 0 {
			state = "ON"
		}
		fmt.Fprintf(&b, "%-11s %s\n", k, state)
	}
	if len(r.taskOff) > 0 {
		tasks := make([]string, 0, len(r.taskOff))
		for t := range r.taskOff {
			tasks = append(tasks, t.String())
		}
		sort.Strings(tasks)
		fmt.Fprintf(&b, "disabled tasks: %s\n", strings.Join(tasks, ", "))
	}
	return b.String()
}
