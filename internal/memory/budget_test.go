package memory

import (
	"errors"
	"testing"
)

func TestBudgetCapsAcrossShards(t *testing.T) {
	// Two shards share one 256-byte tenant budget; each shard's arena alone
	// could hold far more.
	b := NewBudget(256)
	s1, s2 := New(4096), New(4096)
	s1.SetBudget(b)
	s2.SetBudget(b)

	// 64 usable + 8 header = 72 charged per allocation: three fit in 256.
	off1, err := s1.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Alloc(64); err != nil {
		t.Fatal(err)
	}
	_, err = s2.Alloc(64)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("fourth alloc err = %v; want ErrBudgetExceeded", err)
	}
	if got := b.Used(); got != 3*72 {
		t.Fatalf("budget used = %d; want %d", got, 3*72)
	}

	// Freeing on one shard releases budget for the other.
	if err := s1.Free(off1); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Alloc(64); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

// TestBudgetBalancesNoSplitBlocks: a charge that fills the shard to the byte
// charges the budget exactly what it charges the shard, and its Free
// releases exactly that, or the budget would drift.
func TestBudgetBalancesNoSplitBlocks(t *testing.T) {
	b := NewBudget(1 << 20)
	a := New(64)
	a.SetBudget(b)
	off, err := a.Alloc(56) // 56 usable bytes and the header fill the shard
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.Used(), int64(a.InUse()); got != want {
		t.Fatalf("budget used = %d; allocator inUse = %d; must match", got, want)
	}
	if err := a.Free(off); err != nil {
		t.Fatal(err)
	}
	if got := b.Used(); got != 0 {
		t.Fatalf("budget used after free = %d; want 0", got)
	}
}

func TestBudgetFailedChargeHasNoSideEffects(t *testing.T) {
	b := NewBudget(64)
	a := New(4096)
	a.SetBudget(b)
	if _, err := a.Alloc(128); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v; want ErrBudgetExceeded", err)
	}
	if a.InUse() != 0 || b.Used() != 0 {
		t.Fatalf("failed charge mutated state: inUse=%d used=%d", a.InUse(), b.Used())
	}
	st := a.Stats()
	if st.Failures != 1 {
		t.Fatalf("failures = %d; want 1", st.Failures)
	}
	// The arena itself is untouched: a small allocation still succeeds.
	if _, err := a.Alloc(16); err != nil {
		t.Fatal(err)
	}
}

func TestNilBudgetUnlimited(t *testing.T) {
	if NewBudget(0) != nil || NewBudget(-1) != nil {
		t.Fatal("non-positive budgets must be nil (unlimited)")
	}
	var b *Budget
	if !b.tryCharge(1 << 40) {
		t.Fatal("nil budget refused a charge")
	}
	b.release(1 << 40) // must not panic
	if b.Max() != 0 || b.Used() != 0 {
		t.Fatal("nil budget accessors must return zero")
	}
}
