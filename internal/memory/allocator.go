// Package memory provides a simple explicit heap allocator over a fixed byte
// arena.  The PISCES 2 run-time system keeps three kinds of state in the
// FLEX/32 shared memory: system tables, a message heap with explicit
// allocation and deallocation, and statically allocated SHARED COMMON blocks
// (paper, Section 11, "Shared Memory Use").  This package implements the
// message-heap part: a first-fit free-list allocator with coalescing, plus the
// accounting (bytes in use, high-water mark, allocation counts) needed by the
// Section 13 storage-overhead experiment.
//
// The allocator hands out offsets into the arena rather than Go pointers so
// that callers can treat the arena exactly the way the original system treated
// physical shared memory: a flat array of bytes addressed by offset.  The
// run-time never addresses the arena: a message's arguments live in Go values
// and its charge is an offset and a size, so the heap only counts.
package memory

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrOutOfMemory is returned by Alloc when no free block is large enough.
var ErrOutOfMemory = errors.New("memory: arena exhausted")

// ErrBadFree is returned by Free when the offset does not correspond to a
// live allocation.
var ErrBadFree = errors.New("memory: free of unallocated offset")

// headerSize is the per-allocation bookkeeping overhead, in bytes.  The real
// FLEX run-time kept a small header on every message-heap block; we model the
// same cost so storage measurements include it.
const headerSize = 8

// align rounds sizes up to 8-byte boundaries, matching the packet granularity
// used by the message system.
const align = 8

// block describes one region of the arena, either free or allocated.
type block struct {
	off  int // offset of the usable region (after the header)
	size int // usable size in bytes
	free bool
}

// Allocator is a first-fit free-list allocator over a fixed-size arena.
// The zero value is not usable; call New.
//
// Allocator is safe for concurrent use; in the simulated machine many PEs
// allocate message blocks from the single shared memory at once.
//
// The allocator is accounting: the run-time charges a message's offset and
// size and never addresses the arena (the arguments live in Go values), so an
// allocator costs only its free-list.  Bytes makes the arena on first use.
type Allocator struct {
	mu     sync.Mutex
	size   int
	arena  []byte  // nil until Bytes first addresses it
	blocks []block // ordered by offset
	// firstFree is a lower bound on the index of the first free block: every
	// block before it is allocated.  Alloc's first-fit scan starts there
	// instead of re-reading a receiver's queue of live messages on every
	// charge; placement is what a scan from block 0 would choose.
	firstFree int

	inUse     int
	highWater int
	allocs    uint64
	frees     uint64
	failures  uint64

	// budget, when non-nil, caps this allocator's live bytes as part of a
	// tenant-wide total shared with sibling shards.  See SetBudget.
	budget *Budget
}

// New creates an allocator managing size bytes of arena.
func New(size int) *Allocator {
	if size < headerSize {
		size = headerSize
	}
	a := &Allocator{size: size}
	a.blocks = []block{{off: headerSize, size: size - headerSize, free: true}}
	return a
}

// Size returns the total arena size in bytes.
func (a *Allocator) Size() int { return a.size }

// Alloc reserves n usable bytes and returns the offset of the reserved region.
// The region is zeroed.
func (a *Allocator) Alloc(n int) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	i, n, err := a.fitLocked(n)
	if err != nil {
		return 0, err
	}
	off := a.blocks[i].off
	if rem := a.blocks[i].size - n; rem > 0 {
		newBlock := block{off: off + n + headerSize, size: rem - headerSize, free: true}
		a.blocks[i].size = n
		a.blocks = append(a.blocks, block{})
		copy(a.blocks[i+2:], a.blocks[i+1:])
		a.blocks[i+1] = newBlock
	}
	a.blocks[i].free = false
	if a.arena != nil {
		// A nil arena holds no stale data to clear: bytes are only ever
		// written through Bytes, which makes an all-zero arena first.
		clear(a.arena[off : off+n])
	}
	a.inUse += n + headerSize
	a.highWater = max(a.highWater, a.inUse)
	a.allocs++
	return off, nil
}

// fitLocked is Alloc's placement: it returns the index of the free block
// first fit chooses for n usable bytes and the size Alloc hands out there —
// n rounded up, or the whole block when the remainder could not hold a block
// of its own — and charges the budget with that size plus the header, so
// Free's release balances it.  It changes no block; a failure is counted.
// The caller holds a.mu.
func (a *Allocator) fitLocked(n int) (i, size int, err error) {
	if n <= 0 {
		n = align
	}
	// Sizes near MaxInt would overflow roundUp into a negative request, which
	// the first-fit scan below could accept (size < n is false for negative n)
	// and then panic slicing the arena.  No real arena can satisfy them anyway.
	if n > math.MaxInt-align {
		a.failures++
		return 0, 0, fmt.Errorf("%w: requested %d bytes overflows the allocator", ErrOutOfMemory, n)
	}
	n = roundUp(n)

	for a.firstFree < len(a.blocks) && !a.blocks[a.firstFree].free {
		a.firstFree++
	}
	for i = a.firstFree; i < len(a.blocks); i++ {
		if !a.blocks[i].free || a.blocks[i].size < n {
			continue
		}
		if a.blocks[i].size-n < headerSize+align {
			n = a.blocks[i].size
		}
		if !a.budget.tryCharge(int64(n + headerSize)) {
			a.failures++
			return 0, 0, budgetErr(n, a.budget)
		}
		return i, n, nil
	}
	a.failures++
	return 0, 0, fmt.Errorf("%w: requested %d bytes, %d in use of %d", ErrOutOfMemory, n, a.inUse, a.size)
}

// Transit answers, in one critical section, what Alloc(n) followed at once by
// Free of the block it placed answers: the same error, and the same Allocs,
// Frees, Failures and HighWater, the budget charged and released again.  It
// leaves the block list and the arena as they were — an Alloc and its Free
// split a free block and merge it back, and the bytes Alloc would zero are
// never addressed — so it costs a first-fit scan and nothing else.  A remote
// send calls it for the outbound copy its sender's shard models but never
// holds.
func (a *Allocator) Transit(n int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, n, err := a.fitLocked(n)
	if err != nil {
		return err
	}
	a.budget.release(int64(n + headerSize))
	a.highWater = max(a.highWater, a.inUse+n+headerSize)
	a.allocs++
	a.frees++
	return nil
}

// Free releases the allocation at offset off, coalescing adjacent free blocks.
func (a *Allocator) Free(off int) error {
	a.mu.Lock()
	defer a.mu.Unlock()

	i := a.find(off)
	if i < 0 || a.blocks[i].free {
		return fmt.Errorf("%w: offset %d", ErrBadFree, off)
	}
	a.budget.release(int64(a.markFree(i)))
	a.coalesce(i, i)
	return nil
}

// FreeEach releases the allocations at offs, in order, in one critical
// section: the same blocks, accounting and next placements as one Free per
// offset, with one merge over the span the freed blocks cover instead of one
// per block.  At an offset Free would refuse it stops and returns Free's
// error, the offsets before it freed.
func (a *Allocator) FreeEach(offs []int) error {
	a.mu.Lock()
	defer a.mu.Unlock()

	// Marking never moves a block, so every lookup sees the list as it was;
	// the merge below settles the neighbours once.
	lo, hi, released := len(a.blocks), -1, 0
	var err error
	for _, off := range offs {
		i := a.find(off)
		if i < 0 || a.blocks[i].free {
			err = fmt.Errorf("%w: offset %d", ErrBadFree, off)
			break
		}
		released += a.markFree(i)
		lo, hi = min(lo, i), max(hi, i)
	}
	if hi >= 0 {
		a.budget.release(int64(released))
		a.coalesce(lo, hi)
	}
	return err
}

// markFree flags block i free and counts the free; it returns the bytes
// released, header included.  The caller coalesces.
func (a *Allocator) markFree(i int) int {
	n := a.blocks[i].size + headerSize
	a.blocks[i].free = true
	a.inUse -= n
	a.frees++
	return n
}

// find returns the index of the block whose usable region starts at off, or -1.
func (a *Allocator) find(off int) int {
	lo, hi := 0, len(a.blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case a.blocks[mid].off == off:
			return mid
		case a.blocks[mid].off < off:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return -1
}

// coalesce merges every run of adjacent free blocks in the span freed blocks
// lo..hi touch — those blocks and one neighbour either side; a list merged
// after every earlier free has no run reaching further — in one pass up to
// the last block a merge removes, then moves the rest of the list down in one
// copy, and lowers the first-free hint to the merged block that holds block
// lo.  For a single free that copy is the one a delete of the merged-away
// block makes: the same length and the same destination, whose alignment
// decides the speed of the overlapping move.
func (a *Allocator) coalesce(lo, hi int) {
	first := max(lo-1, 0)
	if !a.blocks[first].free {
		first = lo
	}
	// Block r merges into its predecessor exactly when both are free.
	end := min(hi+1, len(a.blocks)-1)
	for end > first && !(a.blocks[end].free && a.blocks[end-1].free) {
		end--
	}
	w := first
	for r := first + 1; r <= end; r++ {
		if a.blocks[r].free && a.blocks[w].free {
			a.blocks[w].size += a.blocks[r].size + headerSize
			continue
		}
		w++
		a.blocks[w] = a.blocks[r]
	}
	if w < end {
		a.blocks = append(a.blocks[:w+1], a.blocks[end+1:]...)
	}
	if first < a.firstFree {
		a.firstFree = first
	}
}

// Bytes returns the usable bytes of the allocation at offset off with length n.
// The caller must not retain the slice across a Free of the same offset.  The
// slice's capacity stops at n, so an append that outgrows the allocation
// reallocates instead of writing into a neighbour.
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
	ArenaSize  int    // total bytes managed
	InUse      int    // bytes currently allocated, including headers
	HighWater  int    // maximum of InUse over the allocator's lifetime
	FreeBytes  int    // usable bytes currently free
	Allocs     uint64 // successful Alloc calls
	Frees      uint64 // successful Free calls
	Failures   uint64 // Alloc calls that returned ErrOutOfMemory
	FreeBlocks int    // number of free blocks (fragmentation indicator)
	LargestRun int    // largest single free block
}

// Stats returns a snapshot of the allocator's accounting counters.
func (a *Allocator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Stats{
		ArenaSize: a.size,
		InUse:     a.inUse,
		HighWater: a.highWater,
		Allocs:    a.allocs,
		Frees:     a.frees,
		Failures:  a.failures,
	}
	for _, b := range a.blocks {
		if b.free {
			s.FreeBytes += b.size
			s.FreeBlocks++
			if b.size > s.LargestRun {
				s.LargestRun = b.size
			}
		}
	}
	return s
}

// Aggregate rolls per-shard snapshots up into one combined snapshot, for
// reporting on a heap that has been partitioned into several independent
// allocators (one per cluster).  Sizes, byte counts, and operation counters
// sum; LargestRun is the maximum over shards because free runs cannot span a
// shard boundary.  The combined HighWater is the sum of per-shard high-water
// marks, which upper-bounds the true simultaneous peak (the shards need not
// have peaked at the same instant).
func Aggregate(stats ...Stats) Stats {
	var out Stats
	for _, s := range stats {
		out.ArenaSize += s.ArenaSize
		out.InUse += s.InUse
		out.HighWater += s.HighWater
		out.FreeBytes += s.FreeBytes
		out.Allocs += s.Allocs
		out.Frees += s.Frees
		out.Failures += s.Failures
		out.FreeBlocks += s.FreeBlocks
		if s.LargestRun > out.LargestRun {
			out.LargestRun = s.LargestRun
		}
	}
	return out
}

// InUse returns the number of bytes currently allocated, including headers.
func (a *Allocator) InUse() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse
}

// HighWater returns the maximum number of bytes ever simultaneously allocated.
func (a *Allocator) HighWater() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.highWater
}

// Reset returns the allocator to its initial, fully free state.  The
// high-water mark and cumulative counters are preserved so long-run
// experiments can report them after repeated phases.
func (a *Allocator) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.blocks = []block{{off: headerSize, size: a.size - headerSize, free: true}}
	a.firstFree = 0
	a.budget.release(int64(a.inUse))
	a.inUse = 0
}

func roundUp(n int) int {
	if r := n % align; r != 0 {
		n += align - r
	}
	return n
}
