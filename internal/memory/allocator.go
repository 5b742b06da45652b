// Package memory models the message heap of the PISCES 2 run-time system.
// The run-time keeps three kinds of state in the FLEX/32 shared memory:
// system tables, a message heap with explicit allocation and deallocation,
// and statically allocated SHARED COMMON blocks (paper, Section 11, "Shared
// Memory Use").  This package is the message-heap part as the Section 13
// storage-overhead experiment measures it: bytes in use and a high-water mark,
// the one peak Section 13 discusses (internal/flex keeps only bytes in use for
// the system tables and SHARED COMMON).  What the run-time did with the heap
// is counted once, in the VM's registry (core.heap.charge and .recover).
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
// — and then leaves the shard and the budget as those Allocs would.  A
// refusal changes nothing: the caller charges the run request by request.
func (a *Allocator) AllocRun(total, count int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if total > a.size-a.inUse || !a.budget.tryCharge(int64(total)) {
		return false
	}
	a.inUse += total
	a.highWater = max(a.highWater, a.inUse)
	return true
}

// Transit answers what Alloc(n) followed at once by Free of its charge
// answers — the same error and high-water mark — without holding
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
// for n, counted in the high-water mark, or the refusal:
// ErrOutOfMemory when the shard cannot hold the charge, else
// ErrBudgetExceeded when the budget cannot.  With keep the shard and the
// budget hold the charge; without, both are only asked.  The caller holds
// a.mu.
func (a *Allocator) admitLocked(n int, keep bool) (int, error) {
	n = max(n, align)
	// Sizes near MaxInt would overflow roundUp; no real arena holds them.
	if n > math.MaxInt-align {
		return 0, fmt.Errorf("%w: requested %d bytes overflows the allocator", ErrOutOfMemory, n)
	}
	n = roundUp(n)
	if n > a.size-a.inUse-headerSize {
		return 0, fmt.Errorf("%w: requested %d bytes, %d in use of %d", ErrOutOfMemory, n, a.inUse, a.size)
	}
	c := n + headerSize
	if keep && !a.budget.tryCharge(int64(c)) || !keep && !a.budget.fits(int64(c)) {
		return 0, budgetErr(n, a.budget)
	}
	a.highWater = max(a.highWater, a.inUse+c)
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

// Usage returns the bytes currently charged, headers included, and the most
// that were ever charged at once, read under one lock.
func (a *Allocator) Usage() (inUse, highWater int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse, a.highWater
}

func roundUp(n int) int {
	if r := n % align; r != 0 {
		n += align - r
	}
	return n
}
