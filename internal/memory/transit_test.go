package memory

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// cloneAllocator copies a's accounting onto a fresh allocator; an attached
// budget is copied too, holding what a's holds, so the clone's charges move
// nothing of a's.
func cloneAllocator(a *Allocator) *Allocator {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := &Allocator{size: a.size, inUse: a.inUse, highWater: a.highWater}
	if a.budget != nil {
		c.budget = &Budget{max: a.budget.max}
		c.budget.used.Store(a.budget.used.Load())
	}
	return c
}

// checkTransit runs Transit(n) on one clone of a and Alloc(n) followed by a
// Free of its charge on another, and requires the same error identity and
// text, Usage and budget use, a's accounting untouched, then the same answers
// to the next ten charges of sizes drawn from rng.
func checkTransit(t *testing.T, what string, a *Allocator, n int, rng *rand.Rand) {
	t.Helper()
	tr, af := cloneAllocator(a), cloneAllocator(a)
	before := useOf(a)
	terr := tr.Transit(n)
	c, aerr := af.Alloc(n)
	if aerr == nil {
		if err := af.Free(c); err != nil {
			t.Fatalf("%s: Free after Alloc(%d): %v", what, n, err)
		}
	}
	for _, kind := range []error{ErrOutOfMemory, ErrBudgetExceeded} {
		if errors.Is(terr, kind) != errors.Is(aerr, kind) {
			t.Fatalf("%s: Transit(%d) = %v, Alloc+Free %v", what, n, terr, aerr)
		}
	}
	if errText(terr) != errText(aerr) {
		t.Fatalf("%s: Transit(%d) = %q, Alloc+Free %q", what, n, errText(terr), errText(aerr))
	}
	if ts, as := useOf(tr), useOf(af); ts != as {
		t.Fatalf("%s: after Transit(%d) Usage %+v, Alloc+Free %+v", what, n, ts, as)
	}
	if after := useOf(a); after != before {
		t.Fatalf("%s: Transit(%d) on a clone moved the original: %+v, before %+v", what, n, after, before)
	}
	if tr.budget.Used() != af.budget.Used() {
		t.Fatalf("%s: after Transit(%d) the budget holds %d, Alloc+Free %d", what, n, tr.budget.Used(), af.budget.Used())
	}
	if tr.arena != nil {
		t.Fatalf("%s: Transit(%d) took an arena", what, n)
	}
	for i := 0; i < 10; i++ {
		m := []int{1, 8, 64, 136, 512, 1500, 4096}[rng.Intn(7)]
		tc, terr := tr.Alloc(m)
		ac, aerr := af.Alloc(m)
		if tc != ac || errText(terr) != errText(aerr) {
			t.Fatalf("%s: charge %d after Transit(%d): Alloc(%d) = %d, %v; after Alloc+Free %d, %v", what, i, n, m, tc, terr, ac, aerr)
		}
	}
}

// TestTransitMatchesAllocThenFree holds Transit to what it stands for — an
// Alloc freed at once — over seeded histories of Alloc, Free and summed-run
// Frees, half of them under a budget, and at the edges: n <= 0, n near
// MaxInt, an exhausted arena and an exhausted budget.
func TestTransitMatchesAllocThenFree(t *testing.T) {
	const arena, cap = 16 << 10, 12 << 10
	sizes := []int{-3, 0, 1, 8, 24, 64, 100, 136, 512, 1500, 4096, 9000, 20_000}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := New(arena)
		if seed%2 == 0 {
			a.SetBudget(NewBudget(cap))
		}
		var live []int
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				if off, err := a.Alloc(sizes[rng.Intn(len(sizes))]); err == nil {
					live = append(live, off)
				}
			case op < 8 && len(live) > 0:
				i := rng.Intn(len(live))
				_ = a.Free(live[i])
				live = slices.Delete(live, i, i+1)
			case len(live) > 1:
				rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				k := 1 + rng.Intn(len(live))
				sum := 0
				for _, c := range live[:k] {
					sum += c
				}
				if err := a.Free(sum); err != nil {
					t.Fatalf("seed %d: Free of a %d-charge run: %v", seed, k, err)
				}
				live = live[k:]
			}
			checkTransit(t, "seed history", a, sizes[rng.Intn(len(sizes))], rng)
		}
	}

	rng := rand.New(rand.NewSource(7))
	a := New(arena)
	for _, n := range []int{-1 << 20, -1, 0, math.MaxInt, math.MaxInt - align, math.MaxInt - align + 1, arena} {
		checkTransit(t, "edge", a, n, rng)
	}

	// An arena without room for even the minimum charge.
	full := New(arena)
	for n := arena; n >= align; {
		if _, err := full.Alloc(n); err != nil {
			n /= 2
		}
	}
	for _, n := range []int{0, 8, 100} {
		checkTransit(t, "exhausted arena", full, n, rng)
	}
	if err := full.Transit(8); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Transit on a full arena = %v, want ErrOutOfMemory", err)
	}

	// A budget spent to within one minimum charge.
	spent := New(arena)
	b := NewBudget(1024)
	spent.SetBudget(b)
	for b.Used()+2*(align+headerSize) <= b.Max() {
		if _, err := spent.Alloc(align); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{0, 8, 64, 2048} {
		checkTransit(t, "exhausted budget", spent, n, rng)
	}
	if err := spent.Transit(64); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Transit over the budget = %v, want ErrBudgetExceeded", err)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
