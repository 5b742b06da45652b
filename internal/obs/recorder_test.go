package obs

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/msgcodec"
)

// TestRecorderRingWrapAround: a shard of n slots fed n+1 events keeps the
// newest n, and Events returns them in sequence order whatever slot each
// landed in.
func TestRecorderRingWrapAround(t *testing.T) {
	const slots = 8
	r := NewRecorder(3, 1, slots)
	for i := 1; i <= slots+1; i++ {
		r.Record(0, msgcodec.EvSend, uint64(i), int64(i), int64(-i))
	}
	evs := r.Events()
	if len(evs) != slots {
		t.Fatalf("ring of %d slots retains %d events after %d records", slots, len(evs), slots+1)
	}
	for i, e := range evs {
		want := uint64(i + 2) // event 1 was overwritten by event slots+1
		if e.Seq != want || e.Edge != want || e.A != int64(want) || e.B != -int64(want) {
			t.Errorf("event %d = seq %d edge %d (A=%d, B=%d); want the %d-th record", i, e.Seq, e.Edge, e.A, e.B, want)
		}
		if e.Node != 3 || e.Shard != 0 || e.Kind != msgcodec.EvSend {
			t.Errorf("event %d stamped node %d shard %d kind %d", i, e.Node, e.Shard, e.Kind)
		}
	}

	// Shards are independent rings merged by sequence: geometry rounds up to
	// powers of two, and a shard id beyond the count hashes down onto one.
	r = NewRecorder(0, 3, 3) // -> 4 shards x 4 slots
	for i := 0; i < 12; i++ {
		r.Record(i, msgcodec.EvAccept, 0, int64(i), 0)
	}
	evs = r.Events()
	if len(evs) != 12 {
		t.Fatalf("4x4 recorder retains %d of 12 events spread over its shards", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) || int(e.Shard) != i%4 {
			t.Errorf("event %d = seq %d on shard %d; want seq %d on shard %d", i, e.Seq, e.Shard, i+1, i%4)
		}
	}
}

// TestRecorderNilSafe: every layer threads a possibly-absent recorder, so a
// nil one must record nothing and still dump a decodable, empty container.
func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(1, msgcodec.EvKill, 0, 1, 2)
	r.SetClock(backend.Now)
	if r.NodeID() != 0 || r.Events() != nil {
		t.Fatal("nil recorder reports a node id or events")
	}
	dump, err := r.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, evs, err := msgcodec.DecodeBlackbox(dump); err != nil || len(evs) != 0 {
		t.Fatalf("nil recorder's dump decodes to %d events, err %v", len(evs), err)
	}

	// A registry without a recorder, and no registry at all, swallow events.
	var reg *Registry
	reg.Emit(&Event{Kind: Kill, A: 1})
	reg.AttachRecorder(NewRecorder(0, 1, 1))
	New().Emit(&Event{Kind: Kill, A: 1})
	if reg.Watching(Kill) || New().Watching(Kill) {
		t.Fatal("a registry with no recorder attached claims to watch a ring-only kind")
	}
}

// TestRecorderRecordRacesReaders hammers Record from several goroutines while
// others read Events and Dump.  Under -race it is the proof of the shard-lock
// design: a reader never sees a slot mid-overwrite, every snapshot is in
// strictly increasing sequence order, and every dump decodes.
func TestRecorderRecordRacesReaders(t *testing.T) {
	r := NewRecorder(1, 4, 16)
	const writers, perWriter = 4, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// A == B on every event, so a torn slot would show as A != B.
				r.Record(w, msgcodec.EvSend, uint64(i+1), int64(i), int64(i))
			}
		}(w)
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var last uint64
				for _, e := range r.Events() {
					if e.Seq <= last || e.A != e.B || e.Edge != uint64(e.A)+1 {
						t.Errorf("inconsistent event under concurrent recording: %+v after seq %d", e, last)
						return
					}
					last = e.Seq
				}
				dump, err := r.Dump()
				if err == nil {
					_, _, _, err = msgcodec.DecodeBlackbox(dump)
				}
				if err != nil {
					t.Errorf("dump under concurrent recording: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	evs := r.Events()
	if len(evs) != 4*16 {
		t.Fatalf("full rings retain %d events, want %d", len(evs), 4*16)
	}
	if got := evs[len(evs)-1].Seq; got != writers*perWriter {
		t.Fatalf("newest retained event has seq %d, want %d", got, writers*perWriter)
	}
}

// TestRecorderRunsRaceReaders is TestRecorderRecordRacesReaders for runs:
// writers put runs of one to seven events in through EmitRun, two writers to
// a shard, while readers call Events and Dump.  No reader may see part of a
// run, a run's sequence numbers must be contiguous and its stamp one, and
// Events must stay in sequence order.  The rings are sized never to wrap, so
// every run a reader sees is whole.
func TestRecorderRunsRaceReaders(t *testing.T) {
	const writers, runsPerWriter, maxRun = 4, 400, 7
	r := New()
	rec := NewRecorder(1, 2, 4096)
	r.AttachRecorder(rec)
	// Edge packs the run: writer, run number, run length; B is the index in
	// the run.
	edge := func(w, run, n int) uint64 { return uint64(w)<<40 | uint64(run)<<8 | uint64(n) }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]RingEvent, maxRun)
			for i := 0; i < runsPerWriter; i++ {
				n := 1 + (w+i)%maxRun
				for j := range buf[:n] {
					buf[j] = RingEvent{Edge: edge(w, i, n), A: int64(w % 2), B: int64(j)}
				}
				var st Stamp
				r.EmitRun(Route, buf[:n], &st)
			}
		}(w)
	}
	check := func(evs []msgcodec.BlackboxEvent) bool {
		for i := 0; i < len(evs); {
			e := evs[i]
			n := int(e.Edge & 0xff)
			if e.B != 0 || i+n > len(evs) {
				t.Errorf("a reader saw part of run %#x: %+v", e.Edge, evs[i:min(i+n, len(evs))])
				return false
			}
			for j, f := range evs[i : i+n] {
				if f.Edge != e.Edge {
					t.Errorf("a reader saw part of run %#x: %+v", e.Edge, evs[i:i+j])
					return false
				}
				if f.B != int64(j) || f.Seq != e.Seq+uint64(j) || f.TS != e.TS || f.Shard != e.Shard {
					t.Errorf("run %#x is not %d contiguous events of one stamp: %+v", e.Edge, n, evs[i:i+n])
					return false
				}
			}
			if i > 0 && evs[i-1].Seq >= e.Seq {
				t.Errorf("Events out of sequence order at %+v after %+v", e, evs[i-1])
				return false
			}
			i += n
		}
		return true
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !check(rec.Events()) {
					return
				}
				dump, err := rec.Dump()
				var evs []msgcodec.BlackboxEvent
				if err == nil {
					_, _, evs, err = msgcodec.DecodeBlackbox(dump)
				}
				if err != nil {
					t.Errorf("dump under concurrent recording: %v", err)
					return
				}
				if !check(evs) {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	evs := rec.Events()
	want := 0
	for w := 0; w < writers; w++ {
		for i := 0; i < runsPerWriter; i++ {
			want += 1 + (w+i)%maxRun
		}
	}
	if len(evs) != want || !check(evs) {
		t.Fatalf("the rings hold %d events, want every run's %d", len(evs), want)
	}
}

// TestRecorderGrowsOnDemand holds the growing ring to the ring it replaced,
// which allocated its slots up front: after any number of records a shard
// retains its newest `slots` events, Events merges the shards in Seq order,
// and Dump encodes exactly those events — while a recorder that has seen a
// handful of events holds a handful of slots, not the cap.
func TestRecorderGrowsOnDemand(t *testing.T) {
	const shards, slots = 2, 64
	at := time.Unix(0, 0)
	clock := func() time.Time { at = at.Add(time.Microsecond); return at }
	for _, n := range []int{0, 1, 15, 16, 17, 33, 2*slots - 1, 2 * slots, 2*slots + 1, 7*slots + 5} {
		r := NewRecorder(5, shards, slots)
		r.SetClock(clock)
		at = time.Unix(0, 0)
		// The reference: each shard's events in record order, trimmed to the
		// newest `slots`, as a pre-allocated ring of that size retains them.
		var ref [shards][]msgcodec.BlackboxEvent
		for i := 0; i < n; i++ {
			shard := (i / 3) % shards // uneven runs, so the shards grow at different times
			r.Record(shard, msgcodec.EvSend, uint64(1000+i), int64(i), int64(-i))
			ref[shard] = append(ref[shard], msgcodec.BlackboxEvent{
				Seq: uint64(i + 1), TS: int64(i+1) * 1000, Edge: uint64(1000 + i),
				Kind: msgcodec.EvSend, Node: 5, Shard: uint16(shard), A: int64(i), B: int64(-i),
			})
			if len(ref[shard]) > slots {
				ref[shard] = ref[shard][1:]
			}
		}
		var want []msgcodec.BlackboxEvent
		for a, b := ref[0], ref[1]; len(a)+len(b) > 0; {
			if len(b) == 0 || (len(a) > 0 && a[0].Seq < b[0].Seq) {
				want, a = append(want, a[0]), a[1:]
			} else {
				want, b = append(want, b[0]), b[1:]
			}
		}
		got := r.Events()
		if len(got) != len(want) {
			t.Fatalf("%d records: %d events retained, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d records: event %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
		dump, err := r.Dump()
		if err != nil {
			t.Fatal(err)
		}
		wantDump, err := msgcodec.EncodeBlackbox(5, at.UnixNano(), want)
		if err != nil {
			t.Fatal(err)
		}
		if string(dump) != string(wantDump) {
			t.Fatalf("%d records: dump differs from the encoding of the reference events", n)
		}
		for si := range r.shards {
			wantHeld := 0
			if used := len(ref[si]); used > 0 {
				wantHeld = min(slots, max(minRecSlots, ceilPow2(used)))
			}
			if held := len(r.shards[si].slots); held != wantHeld {
				t.Errorf("%d records: shard %d holds %d slots for %d events, want %d", n, si, held, len(ref[si]), wantHeld)
			}
		}
	}
}

// TestNewRecorderAllocatesNoRing: the serving daemon builds a recorder per
// submission, most of which record a few dozen events; the parent's eager
// rings cost 196,608 B each.
func TestNewRecorderAllocatesNoRing(t *testing.T) {
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		recorderSink = NewRecorder(0, 0, 0)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
		t.Fatalf("NewRecorder allocates %d B, want < 1 KB", per)
	}
}

var recorderSink *Recorder
