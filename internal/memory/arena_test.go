package memory

import (
	"testing"
	"time"
)

// TestBytesOutOfRangeLeavesAllocatorUsable: the run-time recovers a task's
// panic, so an out-of-range Bytes must not leave the shard's mutex held for
// the next InUse/Stats to block on.
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
