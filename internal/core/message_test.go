package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/config"
)

// mkMsg builds a test message without touching the heap accounting.
func mkMsg(typ string) *Message {
	return &Message{Type: typ}
}

// accState builds an acceptState for the given spec, failing the test on a
// bad spec.
func accState(t *testing.T, spec AcceptSpec) *acceptState {
	t.Helper()
	st := &acceptState{}
	if err := st.reset(spec); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestInQueueRingWraparound drives the ring buffer through several
// grow/drain cycles and checks arrival order is preserved throughout.
func TestInQueueRingWraparound(t *testing.T) {
	q := newInQueue(backend.Default().NewEvent())
	next := 0 // next expected message number on take
	total := 0
	for round := 0; round < 10; round++ {
		// Push more than the initial capacity so the ring grows and wraps.
		for i := 0; i < initialQueueCap+5; i++ {
			total++
			if q.put(mkMsg(fmt.Sprintf("m%d", total))) != putOK {
				t.Fatal("put on open queue failed")
			}
		}
		// Drain roughly half, in order.
		take := q.len()/2 + 1
		st := accState(t, AcceptSpec{Types: []TypeCount{{Type: AnyMessage, Count: take}}})
		got := q.takeMatching(st, nil)
		if len(got) != take {
			t.Fatalf("round %d: took %d, want %d", round, len(got), take)
		}
		for _, m := range got {
			next++
			if m.Type != fmt.Sprintf("m%d", next) {
				t.Fatalf("round %d: got %s, want m%d (order broken)", round, m.Type, next)
			}
		}
	}
	// Everything still queued comes out in order through close.
	rest := q.close()
	for _, m := range rest {
		next++
		if m.Type != fmt.Sprintf("m%d", next) {
			t.Fatalf("close: got %s, want m%d", m.Type, next)
		}
	}
	if next != total {
		t.Fatalf("drained %d messages, want %d", next, total)
	}
	if q.put(mkMsg("late")) != putClosed {
		t.Error("put on closed queue succeeded")
	}
}

// TestTakeMatchingSelectivity checks per-type counts, ALL, the shared total,
// and the wildcard against one mixed queue, including that unmatched
// messages stay queued in order.
func TestTakeMatchingSelectivity(t *testing.T) {
	fill := func() *inQueue {
		q := newInQueue(backend.Default().NewEvent())
		for _, ty := range []string{"a", "b", "a", "c", "b", "a"} {
			q.put(mkMsg(ty))
		}
		return q
	}

	// Per-type count: two a's only.
	q := fill()
	st := accState(t, AcceptSpec{Types: []TypeCount{{Type: "a", Count: 2}}})
	got := q.takeMatching(st, nil)
	if len(got) != 2 || got[0].Type != "a" || got[1].Type != "a" {
		t.Fatalf("per-type take = %v", typesOf(got))
	}
	if q.len() != 4 {
		t.Fatalf("queue kept %d, want 4", q.len())
	}
	if !st.satisfied() {
		t.Error("per-type requirement not satisfied after take")
	}

	// ALL drains every b; shared total takes one further c; the wildcard is
	// resolved once, not per message.
	q = fill()
	st = accState(t, AcceptSpec{
		Total: 1,
		Types: []TypeCount{{Type: "b", Count: All}, {Type: "c"}},
	})
	got = q.takeMatching(st, nil)
	if want := []string{"b", "c", "b"}; strings.Join(typesOf(got), ",") != strings.Join(want, ",") {
		t.Fatalf("ALL+shared take = %v, want %v", typesOf(got), want)
	}
	// Wildcard matches the unlisted types.
	q = fill()
	st = accState(t, AcceptSpec{Types: []TypeCount{{Type: "c", Count: 1}, {Type: AnyMessage, Count: All}}})
	got = q.takeMatching(st, nil)
	if len(got) != 6 {
		t.Fatalf("wildcard take = %v, want all 6", typesOf(got))
	}

	// Duplicate type listings are rejected at reset.
	bad := &acceptState{}
	if err := bad.reset(AcceptSpec{Types: []TypeCount{{Type: "x"}, {Type: "x"}}}); err == nil {
		t.Error("duplicate type accepted")
	}
}

func typesOf(ms []*Message) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Type
	}
	return out
}

// TestRemoveTypeCompaction: removing one type keeps the others queued in
// arrival order (ring compaction must not shuffle).
func TestRemoveTypeCompaction(t *testing.T) {
	q := newInQueue(backend.Default().NewEvent())
	for _, ty := range []string{"x", "y", "x", "z", "x", "y"} {
		q.put(mkMsg(ty))
	}
	removed := q.removeType("x")
	if len(removed) != 3 {
		t.Fatalf("removed %d x's, want 3", len(removed))
	}
	want := []string{"y", "z", "y"}
	snap := q.snapshot()
	for i, m := range snap {
		if m.Type != want[i] {
			t.Fatalf("after removeType queue = %v, want %v", snap, want)
		}
	}
	if got := len(q.removeType("")); got != 3 {
		t.Fatalf("removeType(\"\") removed %d, want 3", got)
	}
}

// TestInQueueFanInStress hammers one receiver's in-queue from 8 concurrent
// senders while the receiver ACCEPTs, exercising the ring buffer, the
// slice-based matcher, and the message pool under the race detector (the CI
// race job runs this package with -race).  Per-sender FIFO order — the
// queue's arrival-order guarantee — is asserted for every message.
func TestInQueueFanInStress(t *testing.T) {
	const senders = 8
	const perSender = 100
	const batch = 50

	vm, err := NewVM(config.Simple(2, senders+2), Options{AcceptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()

	var mu sync.Mutex
	lastSeq := make([]int64, senders) // per-sender last seen sequence number
	counts := make([]int, senders)
	vm.Register("sink", func(task *Task) {
		got := 0
		for got < senders*perSender {
			want := batch
			if rest := senders*perSender - got; rest < want {
				want = rest
			}
			res, err := task.Accept(AcceptSpec{Types: []TypeCount{{Type: "data", Count: want}}})
			if err != nil {
				t.Errorf("sink accept: %v", err)
				return
			}
			for _, m := range res.Accepted {
				from := MustInt(m.Arg(0))
				seq := MustInt(m.Arg(1))
				mu.Lock()
				if seq <= lastSeq[from] {
					t.Errorf("sender %d: message %d arrived after %d (FIFO broken)", from, seq, lastSeq[from])
				}
				lastSeq[from] = seq
				counts[from]++
				mu.Unlock()
			}
			got += len(res.Accepted)
		}
	})
	vm.Register("pump", func(task *Task) {
		to := MustID(task.Arg(0))
		from := MustInt(task.Arg(1))
		for seq := int64(1); seq <= perSender; seq++ {
			if err := task.Send(to, "data", Int(from), Int(seq)); err != nil {
				t.Errorf("sender %d: %v", from, err)
				return
			}
		}
	})

	sinkID, err := vm.Initiate("sink", OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < senders; i++ {
		if _, err := vm.Initiate("pump", OnCluster(2), ID(sinkID), Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	vm.WaitIdle()
	for i, n := range counts {
		if n != perSender {
			t.Errorf("sender %d: received %d messages, want %d", i, n, perSender)
		}
	}
}

// TestRecycledHeaderKeepsBoundedArrays: a header goes back to the pool with
// its argument storage and the arrays in it, which the next message's arrays
// refill, everything else in its slots cleared — but not with an array over
// framePayloadBytes/8 elements, the bound that keeps one large list from
// pinning a pooled frame buffer, nor with storage over pooledArgs slots.
func TestRecycledHeaderKeepsBoundedArrays(t *testing.T) {
	const bound = framePayloadBytes / 8
	m := new(Message)
	m.setArgs([]Value{Reals(make([]float64, 512)), Ints(make([]int64, bound+1)), Str("gone"), Reals(make([]float64, bound))})
	kept, atBound := &m.store[0].RealArray[0], &m.store[3].RealArray[0]

	store := pooledStore(m.store)
	if len(store) != 0 || cap(store) != 4 {
		t.Fatalf("the pooled store has length %d and capacity %d, want 0 and 4", len(store), cap(store))
	}
	slots := store[:4]
	if a := slots[0].RealArray; len(a) != 512 || &a[0] != kept || slots[0].Kind != 0 {
		t.Errorf("slot 0 was pooled as %+v, want its own 512-element array and nothing else", slots[0])
	}
	if slots[1].RealArray != nil {
		t.Errorf("an array of %d elements stayed with the pooled header, bound %d", len(slots[1].RealArray), bound)
	}
	if !reflect.ValueOf(slots[2]).IsZero() {
		t.Errorf("slot 2 was pooled as %+v, want it cleared", slots[2])
	}
	if a := slots[3].RealArray; len(a) != bound || &a[0] != atBound {
		t.Errorf("an array of exactly %d elements was not kept", bound)
	}

	// The next message's array of the same kind refills the kept one.
	next := &Message{store: store}
	next.setArgs([]Value{Reals([]float64{1, 2})})
	if a := next.Args[0].RealArray; &a[0] != kept || len(a) != 2 || a[:cap(a)][2] != 0 {
		t.Errorf("the next message's array %v (up to cap %v) does not refill the kept one", a, a[:cap(a)])
	}

	long := new(Message)
	long.setArgs(make([]Value, pooledArgs+1))
	if s := pooledStore(long.store); s != nil {
		t.Errorf("storage of %d slots was pooled, bound %d", cap(s), pooledArgs)
	}
}
