package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/backend"
)

// refTakeMatching is takeMatching as it was before it learned to stop: every
// queued message is matched and every kept one re-stored, whatever the
// statement still wants.  It is the reference the early-exit routine is held
// to — same messages taken, same order left behind, same acceptState, same
// consumption-log records — and lives here so the scan-everything loop exists
// nowhere in the package proper.
func refTakeMatching(q *inQueue, st *acceptState, out []*Message) []*Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	base := len(out)
	kept := 0
	for i := 0; i < q.n; i++ {
		m := q.at(i)
		r := st.match(m.Type)
		take := false
		if r != nil {
			switch {
			case r.count == All:
				take = true
			case r.count > 0:
				take = true
				r.count--
			case r.shared && st.needTotal > 0:
				take = true
				st.needTotal--
			}
		}
		if take {
			out = append(out, m)
		} else {
			q.set(kept, m)
			kept++
		}
	}
	for i := kept; i < q.n; i++ {
		q.set(i, nil)
	}
	q.n = kept
	if h := q.ha; h != nil && len(h.openStack) > 0 {
		rec := h.openStack[len(h.openStack)-1]
		for _, m := range out[base:] {
			rec.msgs = append(rec.msgs, haMsg{Type: m.Type, Sender: m.Sender, SendSeq: m.sendSeq, Args: m.Args})
		}
	}
	return out
}

// queuePair is one in-queue driven twice: new through takeMatching, ref
// through refTakeMatching, fed the same messages (the same *Message values,
// so "the same message" is pointer equality).
type queuePair struct {
	new, ref *inQueue
}

func newQueuePair(ha bool) queuePair {
	p := queuePair{new: newInQueue(backend.Default().NewEvent()), ref: newInQueue(backend.Default().NewEvent())}
	if ha {
		for _, q := range []*inQueue{p.new, p.ref} {
			q.ha = newTaskHA(true)
			rec := &haAccRecord{open: true}
			q.ha.log = append(q.ha.log, rec)
			q.ha.openStack = append(q.ha.openStack, rec)
		}
	}
	return p
}

func (p queuePair) put(m *Message) {
	if p.new.put(m) != putOK || p.ref.put(m) != putOK {
		panic("put on an open queue failed")
	}
}

// check compares everything an ACCEPT can observe of the two queues.
func (p queuePair) check(t *testing.T, what string, stNew, stRef *acceptState, gotNew, gotRef []*Message) {
	t.Helper()
	if len(gotNew) != len(gotRef) {
		t.Fatalf("%s: took %d messages, reference took %d", what, len(gotNew), len(gotRef))
	}
	for i := range gotNew {
		if gotNew[i] != gotRef[i] {
			t.Fatalf("%s: taken[%d] is %s#%d, reference %s#%d", what, i, gotNew[i].Type, gotNew[i].sendSeq, gotRef[i].Type, gotRef[i].sendSeq)
		}
	}
	if p.new.n != p.ref.n {
		t.Fatalf("%s: %d messages left, reference %d", what, p.new.n, p.ref.n)
	}
	for i := 0; i < p.new.n; i++ {
		if p.new.at(i) != p.ref.at(i) {
			t.Fatalf("%s: remaining[%d] is %s#%d, reference %s#%d", what, i, p.new.at(i).Type, p.new.at(i).sendSeq, p.ref.at(i).Type, p.ref.at(i).sendSeq)
		}
	}
	// No slot outside the live window may pin a message.
	live := 0
	for _, m := range p.new.buf {
		if m != nil {
			live++
		}
	}
	if live != p.new.n {
		t.Fatalf("%s: ring holds %d message pointers for %d queued messages", what, live, p.new.n)
	}
	if stNew.needTotal != stRef.needTotal || stNew.wildcard != stRef.wildcard || len(stNew.reqs) != len(stRef.reqs) {
		t.Fatalf("%s: acceptState %+v, reference %+v", what, *stNew, *stRef)
	}
	for i := range stNew.reqs {
		if stNew.reqs[i] != stRef.reqs[i] {
			t.Fatalf("%s: requirement %d is %+v, reference %+v", what, i, stNew.reqs[i], stRef.reqs[i])
		}
	}
	if stNew.satisfied() != stRef.satisfied() {
		t.Fatalf("%s: satisfied %v, reference %v", what, stNew.satisfied(), stRef.satisfied())
	}
	if p.new.ha != nil {
		a, b := p.new.ha.openStack[0].msgs, p.ref.ha.openStack[0].msgs
		if len(a) != len(b) {
			t.Fatalf("%s: consumption log holds %d records, reference %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i].Type != b[i].Type || a[i].Sender != b[i].Sender || a[i].SendSeq != b[i].SendSeq ||
				len(a[i].Args) != len(b[i].Args) || (len(a[i].Args) > 0 && &a[i].Args[0] != &b[i].Args[0]) {
				t.Fatalf("%s: consumption record %d is %+v, reference %+v", what, i, a[i], b[i])
			}
		}
	}
}

// randomSpec draws an ACCEPT over a subset of types: shared totals, per-type
// counts, ALL, the wildcard, types nothing sends, and totals the queue cannot
// meet.
func randomSpec(rng *rand.Rand, types []string) AcceptSpec {
	spec := AcceptSpec{Total: rng.Intn(6)}
	perm := rng.Perm(len(types))
	for _, i := range perm[:1+rng.Intn(len(types))] {
		tc := TypeCount{Type: types[i]}
		switch rng.Intn(6) {
		case 0:
			tc.Count = All
		case 1, 2:
			tc.Count = 1 + rng.Intn(4)
		case 3:
			tc.Count = 1000 // more than is ever queued
		}
		spec.Types = append(spec.Types, tc)
	}
	if rng.Intn(4) == 0 {
		wc := TypeCount{Type: AnyMessage}
		switch rng.Intn(3) {
		case 0:
			wc.Count = All
		case 1:
			wc.Count = 1 + rng.Intn(3)
		}
		spec.Types = append(spec.Types, wc)
	}
	return spec
}

// TestTakeMatchingAgreesWithReference holds the early-exit takeMatching to the
// scan-everything loop over 12,000 seeded statements on queues that wrap,
// grow mid-run and are topped up between statements, with and without the HA
// consumption log open.
func TestTakeMatchingAgreesWithReference(t *testing.T) {
	types := []string{"a", "b", "c", "d", "never"}
	const seeds, statements = 60, 200
	cases := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newQueuePair(seed%2 == 0)
		seq := uint64(0)
		// Half the seeds start past the initial capacity, so the ring has
		// grown before the first statement; the others grow (or not) mid-run.
		burst := 1 + rng.Intn(3*initialQueueCap)
		for s := 0; s < statements; s++ {
			for n := rng.Intn(burst + 1); n > 0; n-- {
				seq++
				m := &Message{Type: types[rng.Intn(len(types)-1)], Sender: TaskID{Cluster: 1, Slot: 1 + rng.Intn(3), Unique: 1}, sendSeq: seq}
				if rng.Intn(2) == 0 {
					m.Args = []Value{Int(int64(seq))}
				}
				p.put(m)
			}
			spec := randomSpec(rng, types)
			stNew, stRef := accState(t, spec), accState(t, spec)
			// A statement drains repeatedly as messages arrive; the second
			// drain starts from the first's remaining requirements.
			for pass := 0; pass < 2; pass++ {
				gotNew := p.new.takeMatching(stNew, nil)
				gotRef := refTakeMatching(p.ref, stRef, nil)
				p.check(t, fmt.Sprintf("seed %d statement %d pass %d (%+v, head %d of %d)", seed, s, pass, spec, p.new.head, len(p.new.buf)), stNew, stRef, gotNew, gotRef)
				cases++
				if pass == 0 && rng.Intn(3) == 0 {
					seq++
					p.put(&Message{Type: types[rng.Intn(len(types)-1)], sendSeq: seq})
				}
			}
		}
	}
	if cases < 10000 {
		t.Fatalf("compared %d statements, want at least 10,000", cases)
	}
}

// TestTakeMatchingWrappedAndGrown pins the two ring shapes the seeded sweep
// only reaches by chance: a take whose examined prefix straddles the end of
// the backing array, and one on a ring that grew while it was wrapped.
func TestTakeMatchingWrappedAndGrown(t *testing.T) {
	for _, grow := range []bool{false, true} {
		p := newQueuePair(false)
		seq := uint64(0)
		put := func(ty string) {
			seq++
			p.put(&Message{Type: ty, sendSeq: seq})
		}
		// Move head to three slots before the end of the array.
		for i := 0; i < initialQueueCap-3; i++ {
			put("x")
		}
		spec := AcceptSpec{Types: []TypeCount{{Type: "x", Count: All}}}
		p.new.takeMatching(accState(t, spec), nil)
		refTakeMatching(p.ref, accState(t, spec), nil)
		if p.new.head != initialQueueCap-3 {
			t.Fatalf("head = %d after taking %d from the front, want %d", p.new.head, initialQueueCap-3, initialQueueCap-3)
		}
		// skip skip take skip | wrap | skip take skip ...
		n := 8
		if grow {
			n = initialQueueCap + 4
		}
		for i := 0; i < n; i++ {
			if i == 2 || i == 5 {
				put("t")
			} else {
				put("s")
			}
		}
		spec = AcceptSpec{Types: []TypeCount{{Type: "t", Count: 2}}}
		stNew, stRef := accState(t, spec), accState(t, spec)
		gotNew := p.new.takeMatching(stNew, nil)
		gotRef := refTakeMatching(p.ref, stRef, nil)
		p.check(t, fmt.Sprintf("grown=%v", grow), stNew, stRef, gotNew, gotRef)
		if len(gotNew) != 2 {
			t.Fatalf("grown=%v: took %d, want 2", grow, len(gotNew))
		}
	}
}

// TestAcceptOneExaminesOneSlot is the cost statement: an ACCEPT pays for the
// messages it examines up to the last one it takes, not for the queue behind
// them.
func TestAcceptOneExaminesOneSlot(t *testing.T) {
	const depth = 4096
	q := newInQueue(backend.Default().NewEvent())
	for i := 0; i < depth; i++ {
		ty := "datum"
		if i == 10 {
			ty = "flush"
		}
		q.put(&Message{Type: ty, sendSeq: uint64(i + 1)})
	}
	one := AcceptSpec{Total: 1, Types: []TypeCount{{Type: "datum"}, {Type: "flush"}}}

	before := q.Examined()
	got := q.takeMatching(accState(t, one), nil)
	if len(got) != 1 || got[0].sendSeq != 1 {
		t.Fatalf("ACCEPT 1 OF datum, flush took %d messages (first #%d), want the oldest", len(got), got[0].sendSeq)
	}
	if n := q.Examined() - before; n != 1 {
		t.Errorf("ACCEPT 1 OF with a matching head examined %d of %d slots, want 1", n, depth)
	}

	// The wanted message sits behind a skipped prefix: everything up to it is
	// examined, nothing after it.
	before = q.Examined()
	got = q.takeMatching(accState(t, AcceptSpec{Types: []TypeCount{{Type: "flush", Count: 1}}}), nil)
	if len(got) != 1 || got[0].sendSeq != 11 {
		t.Fatalf("ACCEPT OF flush took %d messages, want message #11", len(got))
	}
	if n := q.Examined() - before; n != 10 {
		t.Errorf("taking the 10th queued message examined %d slots, want 10", n)
	}
	// The nine skipped messages are still first, in order, in front of the
	// 4,085 never looked at.
	if q.len() != depth-2 {
		t.Fatalf("%d messages left, want %d", q.len(), depth-2)
	}
	for i, m := range q.snapshot() {
		want := uint64(i + 2)
		if i >= 9 {
			want = uint64(i + 3)
		}
		if m.sendSeq != want {
			t.Fatalf("remaining[%d] is #%d, want #%d", i, m.sendSeq, want)
		}
	}

	// A statement nothing queued can satisfy still has to look at everything.
	before = q.Examined()
	if got := q.takeMatching(accState(t, AcceptSpec{Types: []TypeCount{{Type: "never", Count: 1}}}), nil); len(got) != 0 {
		t.Fatalf("took %d messages of a type nobody sent", len(got))
	}
	if n := q.Examined() - before; n != depth-2 {
		t.Errorf("an unsatisfiable ACCEPT examined %d slots, want all %d", n, depth-2)
	}
}
