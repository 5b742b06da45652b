package obs

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/msgcodec"
	"repro/internal/trace"
)

// TestEmitFansOutByKindRow drives Emit with one event of every kind against
// a registry that has a recorder attached and spans on, and checks each sink
// received exactly what the kind's row promises: ring kind, shard and (A, B);
// span lane and name; the flow phase and edge the span carries.
func TestEmitFansOutByKindRow(t *testing.T) {
	type ring struct {
		kind  uint8
		shard uint16
		a, b  int64
	}
	type span struct {
		lane, name string
		phase      byte
	}
	cases := map[Kind]struct {
		ev   Event
		ring *ring
		span *span
	}{
		MsgAccept: {ev: Event{Task: TaskRef{Cluster: 2, Slot: 1, Unique: 1}, Peer: TaskRef{Cluster: 1, Slot: 3, Unique: 9}, Edge: 7, Type: "RESULT", A: 3},
			ring: &ring{msgcodec.EvAccept, 2, 2, 1}},
		Route: {ev: Event{Edge: 7, Type: "RESULT", A: 1, B: 2},
			ring: &ring{msgcodec.EvSend, 1, 1, 2}, span: &span{"send/c1", "send RESULT", FlowStart}},
		Deliver:         {ev: Event{Edge: 7, Type: "RESULT", A: 1, B: 2}, span: &span{"router/c1->c2", "deliver RESULT", FlowEnd}},
		WireDeliver:     {ev: Event{Edge: 7, Type: "RESULT", A: 2}, span: &span{"router/c2<-wire", "deliver RESULT", FlowEnd}},
		WireDeliverStep: {ev: Event{Edge: 7, Type: "pisces.initiate", A: 2}, span: &span{"router/c2<-wire", "deliver pisces.initiate", FlowStep}},
		WireReply:       {ev: Event{Edge: 7, A: 1}, span: &span{"send/c1", "reply", FlowEnd}},
		WireRx:          {ev: Event{Edge: 7, Type: "RESULT", A: 0, B: 1}, span: &span{"node/0 rx<-n1", "rx RESULT", 0}},
		Kill:            {ev: Event{A: 2, B: 5}, ring: &ring{msgcodec.EvKill, 2, 2, 5}},
		Limit:           {ev: Event{A: 3, B: 4096}, ring: &ring{msgcodec.EvLimit, 0, 3, 4096}},
		CreditStall:     {ev: Event{A: 1}, ring: &ring{msgcodec.EvCreditStall, 1, 1, 0}},
		Checkpoint:      {ev: Event{A: 1, B: 10}, ring: &ring{msgcodec.EvCheckpoint, 0, 1, 10}},
		HeartbeatMiss:   {ev: Event{A: 2}, ring: &ring{msgcodec.EvHeartbeatMiss, 0, 2, 0}},
		TaskBody:        {ev: Event{Task: TaskRef{Cluster: 1, Slot: 2, Unique: 7}, Type: "WORKER", A: 1}, span: &span{"pfi/c1 1.2.7", "task WORKER", 0}},
		MeshHandshake:   {ev: Event{A: 0}, span: &span{"node/0 mesh", "handshake", 0}},
		DrainRound:      {ev: Event{Type: "3", A: 1}, span: &span{"node/1 drain", "round 3", 0}},
		Rebalance:       {ev: Event{Type: "n2->n0", A: 0}, span: &span{"node/0 ha", "rebalance n2->n0", 0}},
	}
	for k := Kind(0); k < numKinds; k++ {
		c := cases[k] // kinds absent above are trace-only: no ring, no span
		r := New()
		rec := NewRecorder(0, 4, 4)
		r.AttachRecorder(rec)
		r.Enable(Spans)
		if got, want := r.Watching(k), c.ring != nil || c.span != nil; got != want {
			t.Errorf("%s: Watching = %v with a recorder and spans on, want %v", k, got, want)
		}
		ev := c.ev
		ev.Kind = k
		ev.Start = r.Now()
		r.Emit(&ev)

		evs := rec.Events()
		switch {
		case c.ring == nil && len(evs) != 0:
			t.Errorf("%s: recorded %+v, want nothing in the ring", k, evs)
		case c.ring != nil && len(evs) != 1:
			t.Errorf("%s: ring holds %d events, want 1", k, len(evs))
		case c.ring != nil:
			e := evs[0]
			if e.Kind != c.ring.kind || e.Shard != c.ring.shard || e.A != c.ring.a || e.B != c.ring.b || e.Edge != c.ev.Edge {
				t.Errorf("%s: ring event %+v, want %+v edge %d", k, e, *c.ring, c.ev.Edge)
			}
		}
		spans, _ := r.Spans()
		switch {
		case c.span == nil && len(spans) != 0:
			t.Errorf("%s: captured %+v, want no span", k, spans)
		case c.span != nil && (len(spans) != 1 || spans[0].Lane != c.span.lane || spans[0].Name != c.span.name):
			t.Errorf("%s: spans %+v, want one %q on lane %q", k, spans, c.span.name, c.span.lane)
		case c.span != nil && c.span.phase == 0 && (spans[0].Phase != 0 || spans[0].Edge != 0):
			t.Errorf("%s: span %+v carries a flow, want none", k, spans[0])
		case c.span != nil && c.span.phase != 0 && (spans[0].Phase != c.span.phase || spans[0].Edge != c.ev.Edge):
			t.Errorf("%s: span %+v, want flow %q of edge %d", k, spans[0], c.span.phase, c.ev.Edge)
		}
	}
}

// TestEmitHonoursSwitches: the span sink needs both spans on and a Start
// taken while they were; an unrouted ACCEPT (edge 0) stays out of the ring.
func TestEmitHonoursSwitches(t *testing.T) {
	r := New()
	rec := NewRecorder(0, 1, 8)
	r.AttachRecorder(rec)
	if !r.SpanStart().IsZero() {
		t.Fatal("SpanStart read the clock with spans off")
	}
	r.Emit(&Event{Kind: Route, Edge: 1, A: 1, B: 2, Start: time.Now()}) // spans off: ring only
	r.Enable(Spans)
	r.Emit(&Event{Kind: Route, Edge: 2, A: 1, B: 2}) // zero Start (a broadcast): ring only
	r.Emit(&Event{Kind: MsgAccept, Task: TaskRef{Cluster: 1}, Peer: TaskRef{Cluster: 1}, A: 2})
	if spans, _ := r.Spans(); len(spans) != 0 {
		t.Fatalf("captured %+v; want no span", spans)
	}
	if evs := rec.Events(); len(evs) != 2 || evs[0].Edge != 1 || evs[1].Edge != 2 {
		t.Fatalf("ring holds %+v; want the two routed sends only", evs)
	}
	if r.SpanStart().IsZero() {
		t.Fatal("SpanStart is zero with spans on")
	}
}

// TestInfoFormats pins the Section 12 "other information" text of every
// kind that prints a trace line.
func TestInfoFormats(t *testing.T) {
	for k, want := range map[Kind]string{
		TaskInit:      "type=WORKER",
		TaskRestore:   "type=WORKER restored",
		TaskTerm:      "WORKER",
		MsgSend:       "msgtype=WORKER args=3 bytes=112",
		MsgSendRemote: "msgtype=WORKER routed=remote bytes=112",
		MsgInitiate:   `msgtype=pisces.initiate initiate=WORKER placement="CLUSTER 2"`,
		MsgWindow:     "msgtype=window-WORKER array=3 region=CLUSTER 2 elements=112",
		MsgAccept:     "msgtype=WORKER args=3",
		Lock:          "lock=WORKER",
		Unlock:        "lock=WORKER",
		Barrier:       "member=3",
		ForceSplit:    "members=3",
	} {
		e := Event{Kind: k, Type: "WORKER", Detail: "CLUSTER 2", A: 3, B: 112}
		if got := e.Info(); got != want {
			t.Errorf("%s: info %q, want %q", k, got, want)
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if row := kinds[k]; row.Name == "" || (row.Trace == noTrace) != (row.Info == "") {
			t.Errorf("kind %d: row %+v has no name, or a trace kind without an info format (or the reverse)", k, row)
		}
	}
}

// taskRefFormat is the rendering TaskRef.String must match byte for byte.
func taskRefFormat(t TaskRef) string { return fmt.Sprintf("%d.%d.%d", t.Cluster, t.Slot, t.Unique) }

// TestTaskRefStringMatchesFormat holds TaskRef.String, which builds the
// taskid without fmt, to the "%d.%d.%d" rendering it replaced.
func TestTaskRefStringMatchesFormat(t *testing.T) {
	for _, ref := range []TaskRef{
		{}, {1, 1, 1}, {2, 3, 17}, {-1, 0, -42}, {10, 200, 3000},
		{math.MaxInt, math.MaxInt, math.MaxInt},
		{math.MinInt, math.MinInt, math.MinInt},
		{math.MinInt, 0, math.MaxInt},
	} {
		if got, want := ref.String(), taskRefFormat(ref); got != want {
			t.Errorf("TaskRef%v.String() = %q, want %q", [3]int{ref.Cluster, ref.Slot, ref.Unique}, got, want)
		}
	}
}

func FuzzTaskRefString(f *testing.F) {
	f.Add(0, 0, 0)
	f.Add(1, 2, 3)
	f.Add(math.MinInt, -1, math.MaxInt)
	f.Fuzz(func(t *testing.T, c, s, u int) {
		ref := TaskRef{c, s, u}
		if got, want := ref.String(), taskRefFormat(ref); got != want {
			t.Errorf("TaskRef{%d, %d, %d}.String() = %q, want %q", c, s, u, got, want)
		}
	})
}

// TestEmitRunRecordsOneRound: EmitRun puts a run's ring records in with one
// clock read and contiguous sequence numbers — for a ByTask kind, only the
// events with an edge — and marks the stamp, so EmitAt hands the same events
// to the other sinks without recording them twice.  It reports whether such
// a sink is watching: the Section 12 switch for MsgAccept, spans for Route.
func TestEmitRunRecordsOneRound(t *testing.T) {
	r := New()
	rec := NewRecorder(0, 4, 16)
	r.AttachRecorder(rec)
	reads := 0
	rec.SetClock(func() time.Time { reads++; return time.Unix(0, int64(reads)) })

	var st Stamp
	run := []RingEvent{{Edge: 7, A: 2, B: 1}, {Edge: 0, A: 2, B: 2}, {Edge: 9, A: 2, B: 3}}
	if r.EmitRun(MsgAccept, run, &st) {
		t.Error("EmitRun reports another sink watching MsgAccept with only the ring attached")
	}
	r.EmitAt(&Event{Kind: MsgAccept, Task: TaskRef{Cluster: 2}, Peer: TaskRef{Cluster: 1}, Edge: 7}, 0, 0, &st)
	evs := rec.Events()
	if reads != 1 || len(evs) != 2 || evs[0].Edge != 7 || evs[1].Edge != 9 || evs[1].Seq != evs[0].Seq+1 ||
		evs[0].TS != evs[1].TS || evs[0].Shard != 2 || evs[1].B != 3 {
		t.Fatalf("%d clock reads, ring %+v; want 1 read and the two edged accepts, consecutive, one stamp, shard 2", reads, evs)
	}

	r.TraceKind(trace.MsgAccept, true)
	if !r.EmitRun(MsgAccept, run[:1], &Stamp{}) {
		t.Error("EmitRun does not report the Section 12 trace watching MsgAccept")
	}
	if r.EmitRun(Route, []RingEvent{{Edge: 11, A: 1, B: 2}}, &Stamp{}) {
		t.Error("EmitRun reports another sink watching Route with spans off")
	}
	r.Enable(Spans)
	if !r.EmitRun(Route, []RingEvent{{Edge: 12, A: 1, B: 2}}, &Stamp{}) {
		t.Error("EmitRun does not report spans watching Route")
	}
	if n := len(rec.Events()); n != 5 {
		t.Errorf("ring holds %d events, want 5", n)
	}

	// Without a recorder nothing is read or recorded.
	bare := New()
	if bare.EmitRun(MsgAccept, run, &st) || (*Registry)(nil).EmitRun(Route, run, &st) {
		t.Error("EmitRun reports a sink watching on a registry with none")
	}
}

// TestShareStampReadsOncePerBatch: the stamp a lane batch keeps is read by
// the first send that joins it and handed unchanged to every later one;
// without a recorder nothing is read and the send's stamp stays unread.
func TestShareStampReadsOncePerBatch(t *testing.T) {
	r := New()
	rec := NewRecorder(0, 1, 16)
	r.AttachRecorder(rec)
	reads := 0
	rec.SetClock(func() time.Time { reads++; return time.Unix(0, int64(100*reads)) })

	var batch, a, b Stamp
	r.ShareStamp(&batch, &a)
	r.ShareStamp(&batch, &b)
	if reads != 1 || a != b || !a.read || a.ns != 100 {
		t.Fatalf("%d reads, stamps %+v and %+v; want one read shared by both", reads, a, b)
	}
	for _, st := range []*Stamp{&a, &b} {
		if r.EmitRun(Route, []RingEvent{{Edge: 1, A: 0, B: 1}}, st) {
			t.Error("EmitRun reports another sink watching Route")
		}
	}
	if evs := rec.Events(); reads != 1 || len(evs) != 2 || evs[0].TS != 100 || evs[1].TS != 100 {
		t.Fatalf("%d reads, ring %+v; want both sends stamped with the batch's one reading", reads, evs)
	}

	var unread Stamp
	New().ShareStamp(&Stamp{}, &unread)
	if unread != (Stamp{}) {
		t.Errorf("ShareStamp without a recorder left %+v, want an unread stamp", unread)
	}
}
