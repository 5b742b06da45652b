package memory

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// refHeap is the first-fit allocator as it was before the first-free hint:
// every Alloc scans from block 0.  It is the reference the hinted allocator
// is held to — same placement, same errors, same accounting — and lives here
// so the scan-from-zero loop exists nowhere in the package proper.
type refHeap struct {
	size                    int
	blocks                  []block
	inUse, highWater        int
	allocs, frees, failures uint64
	budget                  *Budget
}

func newRefHeap(size int, b *Budget) *refHeap {
	return &refHeap{size: size, budget: b, blocks: []block{{off: headerSize, size: size - headerSize, free: true}}}
}

func (r *refHeap) alloc(n int) (int, error) {
	if n <= 0 {
		n = align
	}
	n = roundUp(n)
	for i := range r.blocks {
		if !r.blocks[i].free || r.blocks[i].size < n {
			continue
		}
		off, rem := r.blocks[i].off, r.blocks[i].size-n
		split := rem >= headerSize+align
		if !split {
			n = r.blocks[i].size
		}
		if !r.budget.tryCharge(int64(n + headerSize)) {
			r.failures++
			return 0, budgetErr(n, r.budget)
		}
		r.blocks[i].free = false
		if split {
			r.blocks[i].size = n
			tail := append([]block{{off: off + n + headerSize, size: rem - headerSize, free: true}}, r.blocks[i+1:]...)
			r.blocks = append(r.blocks[:i+1], tail...)
		}
		r.inUse += n + headerSize
		r.highWater = max(r.highWater, r.inUse)
		r.allocs++
		return off, nil
	}
	r.failures++
	return 0, fmt.Errorf("%w: requested %d bytes, %d in use of %d", ErrOutOfMemory, n, r.inUse, r.size)
}

func (r *refHeap) free(off int) error {
	for i := range r.blocks {
		if r.blocks[i].off != off {
			continue
		}
		if r.blocks[i].free {
			break
		}
		r.blocks[i].free = true
		r.inUse -= r.blocks[i].size + headerSize
		r.budget.release(int64(r.blocks[i].size + headerSize))
		r.frees++
		// Rebuild the list with every run of free neighbours merged.
		merged := r.blocks[:0:0]
		for _, b := range r.blocks {
			if last := len(merged) - 1; b.free && last >= 0 && merged[last].free {
				merged[last].size += b.size + headerSize
				continue
			}
			merged = append(merged, b)
		}
		r.blocks = merged
		return nil
	}
	return fmt.Errorf("%w: offset %d", ErrBadFree, off)
}

// freeEach is one free per offset, stopping at the first refusal.
func (r *refHeap) freeEach(offs []int) error {
	for _, off := range offs {
		if err := r.free(off); err != nil {
			return err
		}
	}
	return nil
}

func (r *refHeap) reset() {
	r.blocks = []block{{off: headerSize, size: r.size - headerSize, free: true}}
	r.budget.release(int64(r.inUse))
	r.inUse = 0
}

func (r *refHeap) stats() Stats {
	s := Stats{ArenaSize: r.size, InUse: r.inUse, HighWater: r.highWater, Allocs: r.allocs, Frees: r.frees, Failures: r.failures}
	for _, b := range r.blocks {
		if b.free {
			s.FreeBytes += b.size
			s.FreeBlocks++
			s.LargestRun = max(s.LargestRun, b.size)
		}
	}
	return s
}

// TestFirstFreeHintChangesNothingButTheTime drives the allocator and the
// scan-from-zero reference through the same 10,000 seeded operations — mixed
// sizes that fragment the arena, a queue-like phase of many live blocks, an
// arena and a budget that both sometimes refuse, frees of live, stale and
// never-allocated offsets, FreeEach runs and Transits, the odd Reset — and
// requires the same offset, the same error and the same Stats after every
// step, and that the hint is a true lower bound throughout.
func TestFirstFreeHintChangesNothingButTheTime(t *testing.T) {
	const arena, cap = 64 << 10, 48 << 10
	rng := rand.New(rand.NewSource(19))
	a, ab := New(arena), NewBudget(cap)
	a.SetBudget(ab)
	rb := NewBudget(cap)
	ref := newRefHeap(arena, rb)
	var live []int
	var full, overBudget int
	for step := 0; step < 10_000; step++ {
		var got, want error
		op := rng.Intn(100)
		// Phases of growth and of drain, so the run visits both a long queue
		// of live blocks and a nearly empty arena.
		growing := (step/500)%2 == 0
		switch {
		case op == 0:
			a.Reset()
			ref.reset()
			live = live[:0]
		case op < 5:
			off := rng.Intn(arena) // mostly not an allocation's offset
			got, want = a.Free(off), ref.free(off)
			if got == nil {
				for i, l := range live {
					if l == off {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
		case len(live) > 1 && op < 12:
			// A run of live blocks, as one ACCEPT run releases them.
			k := 2 + rng.Intn(min(len(live)-1, 8))
			offs := make([]int, k)
			for j := range offs {
				i := rng.Intn(len(live))
				offs[j] = live[i]
				live = append(live[:i], live[i+1:]...)
			}
			got, want = a.FreeEach(offs), ref.freeEach(offs)
		case len(live) > 0 && (op < 35 || (!growing && op < 70)):
			i := rng.Intn(len(live))
			if rng.Intn(3) == 0 {
				i = 0 // a queue frees its oldest
			}
			off := live[i]
			live = append(live[:i], live[i+1:]...)
			got, want = a.Free(off), ref.free(off)
			if rng.Intn(50) == 0 {
				g2, w2 := a.Free(off), ref.free(off) // double free
				if errText(g2) != errText(w2) || !errors.Is(g2, ErrBadFree) {
					t.Fatalf("step %d: double free of %d: %v, reference %v", step, off, g2, w2)
				}
			}
		default:
			n := []int{0, 1, 8, 24, 64, 100, 136, 512, 4096, 20_000}[rng.Intn(10)]
			if rng.Intn(4) == 0 {
				n = rng.Intn(2048)
			}
			if rng.Intn(8) == 0 {
				// A remote send's outbound copy: Alloc and Free at once.
				got = a.Transit(n)
				woff, werr := ref.alloc(n)
				if want = werr; werr == nil {
					want = ref.free(woff)
				}
				break
			}
			goff, gerr := a.Alloc(n)
			woff, werr := ref.alloc(n)
			if goff != woff {
				t.Fatalf("step %d: Alloc(%d) placed at %d, first-fit from block 0 places at %d", step, n, goff, woff)
			}
			switch got, want = gerr, werr; {
			case gerr == nil:
				live = append(live, goff)
			case errors.Is(gerr, ErrBudgetExceeded):
				overBudget++
			case errors.Is(gerr, ErrOutOfMemory):
				full++
			}
		}
		if errText(got) != errText(want) {
			t.Fatalf("step %d: error %q, reference %q", step, errText(got), errText(want))
		}
		if gs, ws := a.Stats(), ref.stats(); gs != ws {
			t.Fatalf("step %d: Stats %+v, reference %+v", step, gs, ws)
		}
		if ab.Used() != rb.Used() {
			t.Fatalf("step %d: budget holds %d, reference %d", step, ab.Used(), rb.Used())
		}
		for i := 0; i < a.firstFree; i++ {
			if a.blocks[i].free {
				t.Fatalf("step %d: block %d is free below the first-free hint %d", step, i, a.firstFree)
			}
		}
	}
	if s := a.Stats(); full == 0 || overBudget == 0 || s.Allocs < 3000 || s.Frees < 2000 {
		t.Fatalf("the sequence did not exercise the allocator: %d arena and %d budget refusals, %+v", full, overBudget, s)
	}
}
