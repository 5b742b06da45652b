// Package memory models the message heap of the PISCES 2 run-time system.
// The run-time keeps three kinds of state in the FLEX/32 shared memory:
// system tables, a message heap with explicit allocation and deallocation,
// and statically allocated SHARED COMMON blocks (paper, Section 11, "Shared
// Memory Use").  This package is the message-heap part as the Section 13
// storage-overhead experiment measures it: bytes in use, a high-water mark and
// allocation counts.
//
// A heap shard is a byte count.  A message's arguments live in Go values, so
// no run-time path addresses the heap; what the model keeps of an allocation
// is its charge — the request rounded up to the 8-byte packet granularity,
// plus the 8-byte header the FLEX run-time kept on every heap block — and a
// charge is refused only when the shard's bytes are spent.  Fragmentation is
// not modelled: a first-fit free list gave the count's answers on every path
// the system runs.
package memory

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrOutOfMemory is returned by Alloc when the shard cannot hold the charge.
var ErrOutOfMemory = errors.New("memory: arena exhausted")

// ErrBadFree is returned by Free when the bytes given back are not a charge
// the shard could be holding.
var ErrBadFree = errors.New("memory: free of bytes not charged")

// headerSize is the per-allocation bookkeeping overhead, in bytes.  The real
// FLEX run-time kept a small header on every message-heap block; we model the
// same cost so storage measurements include it.
const headerSize = 8

// align rounds sizes up to 8-byte boundaries, matching the packet granularity
// used by the message system.
const align = 8

// Allocator is one message-heap shard: a count of the bytes charged against a
// fixed size.  The zero value is not usable; call New.
//
// Allocator is safe for concurrent use; in the simulated machine many PEs
// charge the one shared memory at once.
type Allocator struct {
	mu        sync.Mutex
	size      int
	inUse     int
	highWater int
	allocs    uint64
	failures  uint64

	// budget, when non-nil, caps this allocator's live bytes as part of a
	// tenant-wide total shared with sibling shards.  See SetBudget.
	budget *Budget

	arena []byte // nil until Bytes first addresses it
}

// New creates an allocator of size bytes.
func New(size int) *Allocator {
	return &Allocator{size: max(size, headerSize)}
}

// Size returns the total arena size in bytes.
func (a *Allocator) Size() int { return a.size }

// Alloc charges a request of n usable bytes and returns the charge, the
// bytes Free takes back: n rounded up to the packet granularity (at least
// one packet), plus the header.
func (a *Allocator) Alloc(n int) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitLocked(n, true)
}

// Charge returns the charge Alloc(n) answers with when it succeeds: n
// rounded up to the packet granularity (at least one packet), plus the
// header.  ok is false only for a request so near MaxInt that its charge
// overflows; such a request goes to Alloc alone.
func Charge(n int) (c int, ok bool) {
	n = max(n, align)
	if n > math.MaxInt-align-headerSize {
		return 0, false
	}
	return roundUp(n) + headerSize, true
}

// AllocRun admits count requests in one charge of total, the sum of their
// Charges.  It succeeds exactly when an Alloc of each request in turn would
// have — the bytes in use only grow along a run, so the last request decides
// — and then leaves the shard, its Stats and the budget as those Allocs
// would.  A refusal changes nothing, Failures included: the caller charges
// the run request by request, and Alloc counts the ones refused.
func (a *Allocator) AllocRun(total, count int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if total > a.size-a.inUse || !a.budget.tryCharge(int64(total)) {
		return false
	}
	a.inUse += total
	a.highWater = max(a.highWater, a.inUse)
	a.allocs += uint64(count)
	return true
}

// Transit answers what Alloc(n) followed at once by Free of its charge
// answers — the same error, Allocs, Failures and HighWater — without holding
// the charge: the shard and the budget are asked, and neither keeps it.  A
// remote send calls it for the outbound copy its sender's shard models but
// never holds.
func (a *Allocator) Transit(n int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, err := a.admitLocked(n, false)
	return err
}

// admitLocked is the compare Alloc and Transit share.  It returns the charge
// for n, counted in Allocs and HighWater, or the refusal, counted in
// Failures: ErrOutOfMemory when the shard cannot hold the charge, else
// ErrBudgetExceeded when the budget cannot.  With keep the shard and the
// budget hold the charge; without, both are only asked.  The caller holds
// a.mu.
func (a *Allocator) admitLocked(n int, keep bool) (int, error) {
	n = max(n, align)
	// Sizes near MaxInt would overflow roundUp; no real arena holds them.
	if n > math.MaxInt-align {
		a.failures++
		return 0, fmt.Errorf("%w: requested %d bytes overflows the allocator", ErrOutOfMemory, n)
	}
	n = roundUp(n)
	if n > a.size-a.inUse-headerSize {
		a.failures++
		return 0, fmt.Errorf("%w: requested %d bytes, %d in use of %d", ErrOutOfMemory, n, a.inUse, a.size)
	}
	c := n + headerSize
	if keep && !a.budget.tryCharge(int64(c)) || !keep && !a.budget.fits(int64(c)) {
		a.failures++
		return 0, budgetErr(n, a.budget)
	}
	a.highWater = max(a.highWater, a.inUse+c)
	a.allocs++
	if keep {
		a.inUse += c
	}
	return c, nil
}

// Free gives back c bytes of charges — one Alloc's, or the sum of several.
// It refuses, with ErrBadFree, what no sum of charges can be: fewer than one
// minimum charge, a size off the packet granularity, or more than is in use.
func (a *Allocator) Free(c int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c < align+headerSize || c%align != 0 || c > a.inUse {
		return fmt.Errorf("%w: %d bytes, %d in use", ErrBadFree, c, a.inUse)
	}
	a.inUse -= c
	a.budget.release(int64(c))
	return nil
}

// Bytes returns n bytes of the arena from offset off, making the arena on
// first use.  No run-time path calls it: it prices the first touch of a
// shard-sized arena.  The slice's capacity stops at n.
func (a *Allocator) Bytes(off, n int) []byte {
	a.mu.Lock()
	if a.arena == nil {
		a.arena = make([]byte, a.size)
	}
	arena := a.arena
	a.mu.Unlock()
	// Sliced outside the lock: an out-of-range request panics in the calling
	// task (which the run-time recovers) without leaving the shard locked.
	return arena[off : off+n : off+n]
}

// Stats is a snapshot of allocator accounting.
type Stats struct {
	ArenaSize int    // total bytes managed
	InUse     int    // bytes currently charged, including headers
	HighWater int    // maximum of InUse over the allocator's lifetime
	Allocs    uint64 // successful Alloc and Transit calls
	Failures  uint64 // refused Alloc and Transit calls
}

// Stats returns a snapshot of the allocator's accounting counters.
func (a *Allocator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		ArenaSize: a.size,
		InUse:     a.inUse,
		HighWater: a.highWater,
		Allocs:    a.allocs,
		Failures:  a.failures,
	}
}

// Aggregate rolls per-shard snapshots up into one combined snapshot, for
// reporting on a heap that has been partitioned into several independent
// allocators (one per cluster).  Every field sums.  The combined HighWater is
// the sum of per-shard high-water marks, which upper-bounds the true
// simultaneous peak (the shards need not have peaked at the same instant).
func Aggregate(stats ...Stats) Stats {
	var out Stats
	for _, s := range stats {
		out.ArenaSize += s.ArenaSize
		out.InUse += s.InUse
		out.HighWater += s.HighWater
		out.Allocs += s.Allocs
		out.Failures += s.Failures
	}
	return out
}

// InUse returns the number of bytes currently charged, including headers.
func (a *Allocator) InUse() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse
}

func roundUp(n int) int {
	if r := n % align; r != 0 {
		n += align - r
	}
	return n
}
