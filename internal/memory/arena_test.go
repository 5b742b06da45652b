package memory

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Arena sizes no other test (or package under test) uses, so what these tests
// find in the size-keyed pool is what they put there.
const (
	recycleSize = 64<<10 + 8
	liveSize    = 64<<10 + 16
	raceSize    = 64<<10 + 24
)

// firstNonZero returns the index of the first non-zero byte of b, or -1.
func firstNonZero(b []byte) int {
	for i, v := range b {
		if v != 0 {
			return i
		}
	}
	return -1
}

// TestRecycledArenaReadsZero: whatever a tenant allocated, wrote through its
// Bytes slices and freed, the allocator that takes over its arena after
// Release reads zeros over the whole arena — not just the part it happens to
// allocate.  The pool may hand out a fresh arena instead (it is a sync.Pool),
// so the test also checks that recycling was exercised at all.
func TestRecycledArenaReadsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var prev *byte
	recycled := 0
	for round := 0; round < 64; round++ {
		a := New(recycleSize)
		whole := a.Bytes(0, recycleSize)
		if i := firstNonZero(whole); i >= 0 {
			t.Fatalf("round %d: fresh allocator reads %#x at byte %d of its arena", round, whole[i], i)
		}
		if &whole[0] == prev {
			recycled++
		}
		prev = &whole[0]
		a.Release() // the probe above touched everything; start over untouched

		a = New(recycleSize)
		live := map[int]int{}
		for op := 0; op < 200; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				for off := range live {
					if err := a.Free(off); err != nil {
						t.Fatal(err)
					}
					delete(live, off)
					break
				}
				continue
			}
			n := 1 + rng.Intn(2048)
			off, err := a.Alloc(n)
			if err != nil {
				continue // arena full: a legitimate outcome of the walk
			}
			live[off] = n
			if rng.Intn(4) > 0 { // some allocations stay pure accounting
				b := a.Bytes(off, n)
				for i := range b {
					b[i] = byte(0x80 | rng.Intn(0x7f))
				}
			}
		}
		for off := range live {
			if err := a.Free(off); err != nil {
				t.Fatal(err)
			}
		}
		a.Release()
	}
	if recycled == 0 {
		t.Error("no arena came back from the pool in 64 release/take rounds: recycling is not exercised")
	}
}

// TestReleaseWithLiveBytesNotPooled: an allocation still live at Release may
// still be written through its Bytes slice, so that arena must never reach
// another allocator.
func TestReleaseWithLiveBytesNotPooled(t *testing.T) {
	a := New(liveSize)
	off, err := a.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	held := a.Bytes(off, 256)
	for i := range held {
		held[i] = 0xEE
	}
	a.Release()

	next := New(liveSize)
	whole := next.Bytes(0, liveSize)
	if &whole[off] == &held[0] {
		t.Fatal("an arena released with a live allocation was handed to the next allocator")
	}
	held[0] = 0xDD // the late write a live slice allows
	if i := firstNonZero(whole); i >= 0 {
		t.Fatalf("next allocator reads %#x at byte %d", whole[i], i)
	}

	// The released allocator keeps working: its accounting is intact and
	// Bytes takes a new arena.
	if a.InUse() == 0 {
		t.Fatal("Release dropped the accounting of a live allocation")
	}
	if err := a.Free(off); err != nil {
		t.Fatal(err)
	}
	if again := a.Bytes(off, 256); &again[0] == &held[0] || firstNonZero(again) >= 0 {
		t.Fatal("Bytes after Release did not take a new all-zero arena")
	}
}

// TestReleaseRacesReaders: at the point Shutdown releases a shard only
// Stats/InUse readers (a metrics scrape, the conformance harness) can still be
// calling it; under -race this holds them to the allocator's lock.
func TestReleaseRacesReaders(t *testing.T) {
	a := New(raceSize)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = a.Stats()
					_ = a.InUse()
				}
			}
		}()
	}
	for round := 0; round < 200; round++ {
		off, err := a.Alloc(512)
		if err != nil {
			t.Fatal(err)
		}
		b := a.Bytes(off, 512)
		b[0], b[511] = 1, 2
		if err := a.Free(off); err != nil {
			t.Fatal(err)
		}
		a.Release()
	}
	close(stop)
	readers.Wait()
	if i := firstNonZero(a.Bytes(0, raceSize)); i >= 0 {
		t.Fatalf("byte %d of a recycled arena is not zero", i)
	}
}

// TestBytesOutOfRangeLeavesAllocatorUsable: the run-time recovers a task's
// panic, so an out-of-range Bytes must not leave the shard's mutex held for
// the next InUse/Stats/Release to block on.
func TestBytesOutOfRangeLeavesAllocatorUsable(t *testing.T) {
	a := New(1024)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Bytes past the end of the arena did not panic")
			}
		}()
		_ = a.Bytes(1020, 16)
	}()
	done := make(chan int, 1)
	go func() {
		_ = a.Stats()
		a.Release()
		done <- a.InUse()
	}()
	select {
	case n := <-done:
		if n != 0 {
			t.Fatalf("InUse = %d after a refused Bytes", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("allocator still locked after a recovered out-of-range Bytes")
	}
}
