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
// physical shared memory: a flat array of bytes addressed by offset.
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
// The arena's backing bytes are taken lazily, on the first call that
// addresses them (Bytes, AllocBytes): most
// allocations are pure accounting (a message charge records its offset and
// size but the argument data lives in Go values), so an allocator whose
// storage is never addressed — a heap shard with no wire traffic — costs
// only its free-list.  They come from a pool of all-zero arenas of the same
// size and go back to it at Release.
type Allocator struct {
	mu      sync.Mutex
	size    int
	arena   []byte  // nil until first addressed and after Release
	touched int     // high-water off+n handed out as bytes: all beyond is zero
	blocks  []block // ordered by offset
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
	return a.allocLocked(n)
}

// AllocBytes is Alloc followed by Bytes(off, n) in one critical section: it
// reserves n usable bytes and returns their offset together with the zeroed
// region itself, capacity n.  For n <= 0 it reserves what Alloc would and
// returns an empty slice.
func (a *Allocator) AllocBytes(n int) (int, []byte, error) {
	a.mu.Lock()
	off, err := a.allocLocked(n)
	if err != nil {
		a.mu.Unlock()
		return 0, nil, err
	}
	n = max(n, 0)
	arena := a.bytesLocked(off, n)
	a.mu.Unlock()
	return off, arena[off : off+n : off+n], nil
}

// allocLocked is Alloc's body; the caller holds a.mu.
func (a *Allocator) allocLocked(n int) (int, error) {
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
		// written through Bytes and AllocBytes, which take an all-zero
		// arena first.
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
	arena := a.bytesLocked(off, n)
	a.mu.Unlock()
	// Sliced outside the lock: an out-of-range request panics in the calling
	// task (which the run-time recovers) without leaving the shard locked.
	return arena[off : off+n : off+n]
}

// bytesLocked is the bookkeeping of handing out arena[off:off+n]: it takes the
// arena on first use and raises the touched mark Release relies on.  It
// returns the whole arena, for the caller to slice once the lock is dropped.
// The caller holds a.mu.
func (a *Allocator) bytesLocked(off, n int) []byte {
	if a.arena == nil {
		a.arena = takeArena(a.size)
	}
	if end := off + n; end > a.touched && end <= len(a.arena) {
		a.touched = end
	}
	return a.arena
}

// arenas pools all-zero arenas by size (int -> *sync.Pool of *[]byte), so a
// run of short-lived allocators — the serving daemon boots a virtual machine
// per session — neither allocates nor zeroes a full arena each.  A sync.Pool
// is emptied by the garbage collector, so an idle process gives the memory
// back without a bound to tune.
var arenas sync.Map

func arenaPool(size int) *sync.Pool {
	if p, ok := arenas.Load(size); ok {
		return p.(*sync.Pool)
	}
	p, _ := arenas.LoadOrStore(size, new(sync.Pool))
	return p.(*sync.Pool)
}

func takeArena(size int) []byte {
	if b, ok := arenaPool(size).Get().(*[]byte); ok {
		return *b
	}
	return make([]byte, size)
}

// Release gives the arena back for the next allocator of this size.  It is
// for the point where the allocator's last user has stopped (core.VM.Shutdown,
// after every task has been joined); the accounting is untouched and a later
// Bytes takes a new arena.  Bytes are only ever written through the slices
// Bytes and AllocBytes hand out, so zeroing the prefix they have handed out
// (touched) makes the whole arena zero again,
// at a cost proportional to what this tenant touched.  An arena released with
// bytes still allocated may still be addressed through a Bytes slice; it is
// left to the garbage collector and never reaches another tenant.
func (a *Allocator) Release() {
	a.mu.Lock()
	arena, touched, live := a.arena, a.touched, a.inUse
	a.arena, a.touched = nil, 0
	a.mu.Unlock()
	if arena == nil || live > 0 {
		return
	}
	clear(arena[:touched])
	arenaPool(a.size).Put(&arena)
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
