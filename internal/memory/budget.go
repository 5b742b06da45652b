package memory

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrBudgetExceeded is returned by Alloc when the allocation would fit the
// arena but exceeds the tenant budget attached to the allocator.
var ErrBudgetExceeded = errors.New("memory: heap budget exceeded")

// Budget caps the summed live allocation (bytes in use, including headers)
// across every allocator it is attached to.  Where the arena bounds what one
// shard can physically hold, a Budget bounds what one *tenant* may hold
// across all of its shards: a serving daemon attaches one Budget to every
// heap shard of a session's VM, so the tenant's total heap use is capped
// regardless of how its messages spread over clusters.
//
// A nil *Budget is valid and unlimited.  Budget is safe for concurrent use.
type Budget struct {
	max  int64
	used atomic.Int64
}

// NewBudget creates a budget allowing max live bytes; max <= 0 is unlimited
// (equivalent to a nil Budget).
func NewBudget(max int64) *Budget {
	if max <= 0 {
		return nil
	}
	return &Budget{max: max}
}

// Max returns the budget cap in bytes (0 for unlimited/nil).
func (b *Budget) Max() int64 {
	if b == nil {
		return 0
	}
	return b.max
}

// Used returns the bytes currently charged against the budget.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// tryCharge atomically reserves n bytes, failing without side effects if the
// reservation would exceed the cap.
func (b *Budget) tryCharge(n int64) bool {
	if b == nil {
		return true
	}
	for {
		u := b.used.Load()
		if u+n > b.max {
			return false
		}
		if b.used.CompareAndSwap(u, u+n) {
			return true
		}
	}
}

// fits reports whether n more bytes would stay within the cap, reserving
// nothing.
func (b *Budget) fits(n int64) bool {
	return b == nil || b.used.Load()+n <= b.max
}

// release returns n bytes to the budget.
func (b *Budget) release(n int64) {
	if b == nil {
		return
	}
	b.used.Add(-n)
}

// SetBudget attaches a tenant budget to the allocator.  Every subsequent
// Alloc charges the budget (with the same size the allocator's own inUse
// accounting uses, so charges and releases balance exactly) and fails with
// ErrBudgetExceeded when the charge would push the budget past its cap.
// Attach before the allocator is in use: bytes already charged when the
// budget arrives were never charged to it, and freeing them would
// over-release.
func (a *Allocator) SetBudget(b *Budget) {
	a.mu.Lock()
	a.budget = b
	a.mu.Unlock()
}

// budgetErr formats the budget-exhaustion failure for Alloc.
func budgetErr(n int, b *Budget) error {
	return fmt.Errorf("%w: requested %d bytes, %d in use of %d budgeted",
		ErrBudgetExceeded, n, b.Used(), b.Max())
}
