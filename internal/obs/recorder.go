package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/msgcodec"
)

// Recorder is the always-on flight recorder: a set of per-shard rings of
// fixed-size structured events.  A ring starts empty and doubles on demand
// up to the slot count the recorder was built with, then wraps; from there
// on the record path never allocates, and a recorder that saw a few dozen
// events holds a few dozen slots.  It exists so a failed run leaves a black
// box behind — the last events before a deadlock, quota kill, node death, or
// drain timeout — dumpable as a msgcodec blackbox container and decodable
// offline by `pisces blackbox`.
//
// Shards decouple writers: the message path records under the sending or
// accepting cluster's shard, so two clusters' hot paths never contend on one
// ring.  Every event still takes a global sequence number, which is what
// lets Events reconstruct one emission-ordered timeline at dump time and
// lets `pisces blackbox` merge several nodes' dumps by causal edge.
//
// Each shard's slots are guarded by that shard's mutex, held only for the
// handful of plain word stores that fill a slot.  One uncontended lock is
// far cheaper than publishing six fields through sequentially-consistent
// atomics (each a full fence that cannot hide the ring's cache misses), and
// it makes Events/Dump exact even while writers are still recording (the
// serving daemon's live events endpoint) — a reader can never observe a slot
// mid-overwrite.  Under the deterministic sim backend recording is
// single-threaded, so dumps are byte-stable per seed.
type Recorder struct {
	node   uint8
	clock  atomic.Pointer[func() time.Time]
	seq    atomic.Uint64
	slots  int // per-shard cap the rings grow to
	shards []recShard
}

// recShard is one ring.  The mutex and write position are padded onto their
// own cache line so shards never false-share.  len(slots) is zero or a power
// of two no greater than the recorder's cap; until it reaches the cap the
// ring has not wrapped, so slots[:pos] are the events in order.
type recShard struct {
	mu    sync.Mutex
	pos   uint64
	_     [6]uint64
	slots []recSlot
}

// grow doubles a ring that has filled below the recorder's slot cap; at the
// cap it does nothing and the ring wraps.
func (s *recShard) grow(limit int) {
	n := len(s.slots)
	if n == limit {
		return
	}
	grown := make([]recSlot, min(limit, max(2*n, minRecSlots)))
	copy(grown, s.slots)
	s.slots = grown
}

// recSlot is one fixed-size event slot (see msgcodec.BlackboxEvent for the
// field meanings).  seq 0 means never written.
type recSlot struct {
	seq  uint64
	ts   int64
	edge uint64
	kind uint32
	a    int64
	b    int64
}

// Default ring geometry: 4 shards x up to 1024 slots keeps the last ~4k events
// at ~50B/slot — at most a few hundred KiB per node, and only for a run that
// records that many.  A ring's first growth is to minRecSlots.
const (
	defaultRecShards = 4
	defaultRecSlots  = 1024
	minRecSlots      = 16
)

// NewRecorder builds a recorder for the given node id.  shards and slots
// (the cap each shard's ring grows to) are rounded up to powers of two; zero
// or negative selects the defaults.  It stamps events with the goroutine
// backend's real clock (backend.Now) until SetClock rebinds it.
func NewRecorder(nodeID, shards, slots int) *Recorder {
	if shards <= 0 {
		shards = defaultRecShards
	}
	if slots <= 0 {
		slots = defaultRecSlots
	}
	shards = ceilPow2(shards)
	slots = ceilPow2(slots)
	r := &Recorder{node: uint8(nodeID), slots: slots, shards: make([]recShard, shards)}
	clk := backend.Now
	r.clock.Store(&clk)
	return r
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// SetClock rebinds the recorder's time source (the VM points it at its
// backend clock, so simulated runs stamp virtual time).
func (r *Recorder) SetClock(now func() time.Time) {
	if r == nil || now == nil {
		return
	}
	r.clock.Store(&now)
}

// NodeID returns the node id events are stamped with.
func (r *Recorder) NodeID() int {
	if r == nil {
		return 0
	}
	return int(r.node)
}

// Record appends one event to the ring of shard (hashed down to the shard
// count), stamped with the recorder clock's current reading.  Nil-safe: a nil
// recorder costs one branch, and the live path is one clock read (on the real
// clock, one monotonic read: backend.Now) and record's work.
func (r *Recorder) Record(shard int, kind uint8, edge uint64, a, b int64) {
	if r == nil {
		return
	}
	r.record(shard, kind, edge, a, b, r.now())
}

// now reads the recorder clock, in the ring's nanoseconds.
func (r *Recorder) now() int64 { return (*r.clock.Load())().UnixNano() }

// record appends one event stamped ts: one sequence stamp and one shard lock
// around plain stores.  It allocates only to grow a ring that has filled
// below its cap, a compare that is false for ever once the ring has wrapped.
func (r *Recorder) record(shard int, kind uint8, edge uint64, a, b, ts int64) {
	run := [1]RingEvent{{Edge: edge, A: a, B: b}}
	r.recordRun(shard, kind, run[:], 1, false, ts)
}

// recordRun appends n events of run, all stamped ts, to one shard's ring as
// record does one: the n sequence numbers are reserved in one add and the
// slots filled in one lock round, so the run's numbers are contiguous and a
// reader sees all of it or none.  edged skips the events without an edge
// (n counts the others).
func (r *Recorder) recordRun(shard int, kind uint8, run []RingEvent, n int, edged bool, ts int64) {
	s := &r.shards[shard&(len(r.shards)-1)]
	seq := r.seq.Add(uint64(n)) - uint64(n)
	s.mu.Lock()
	for i := range run {
		e := &run[i]
		if edged && e.Edge == 0 {
			continue
		}
		if s.pos == uint64(len(s.slots)) {
			s.grow(r.slots)
		}
		sl := &s.slots[s.pos&uint64(len(s.slots)-1)]
		s.pos++
		seq++
		sl.seq = seq
		sl.ts = ts
		sl.edge = e.Edge
		sl.kind = uint32(kind)
		sl.a = e.A
		sl.b = e.B
	}
	s.mu.Unlock()
}

// Events returns every retained event in emission order (by global sequence
// number), the reconstruction `pisces blackbox` prints and dumps encode.
func (r *Recorder) Events() []msgcodec.BlackboxEvent {
	if r == nil {
		return nil
	}
	var out []msgcodec.BlackboxEvent
	for si := range r.shards {
		s := &r.shards[si]
		s.mu.Lock()
		for i := range s.slots {
			sl := &s.slots[i]
			if sl.seq == 0 {
				continue
			}
			out = append(out, msgcodec.BlackboxEvent{
				Seq:   sl.seq,
				TS:    sl.ts,
				Edge:  sl.edge,
				Kind:  uint8(sl.kind),
				Node:  r.node,
				Shard: uint16(si),
				A:     sl.a,
				B:     sl.b,
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump freezes the recorder into a msgcodec blackbox container, stamped with
// the recorder clock's current reading (virtual under -sim).
func (r *Recorder) Dump() ([]byte, error) {
	if r == nil {
		return msgcodec.EncodeBlackbox(0, 0, nil)
	}
	return msgcodec.EncodeBlackbox(int(r.node), r.now(), r.Events())
}
