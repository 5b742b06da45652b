package memory

import (
	"math"
	"math/rand"
	"testing"
)

// TestAllocRunMatchesSequentialAllocs holds AllocRun to what it stands for —
// one Alloc per request, in order — over seeded size lists, shard sizes,
// histories and budgets: a run admitted leaves the same charges, bytes in
// use, high-water mark and budget use as the Allocs, and a run refused changes
// nothing and is refused only where one of the Allocs would be.
func TestAllocRunMatchesSequentialAllocs(t *testing.T) {
	sizes := []int{-5, 0, 1, 7, 8, 9, 24, 64, 100, 136, 512, 1500, 4096, 9000}
	admitted, refused := 0, 0
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := New(64 + rng.Intn(96<<10))
		if rng.Intn(2) == 0 {
			b := NewBudget(int64(64 + rng.Intn(64<<10)))
			a.SetBudget(b)
			// A sibling shard's use of the same budget.
			b.used.Store(int64(rng.Intn(int(b.max) / 2)))
		}
		for i := rng.Intn(20); i > 0; i-- {
			_, _ = a.Alloc(sizes[rng.Intn(len(sizes))])
		}
		run := make([]int, 1+rng.Intn(rng.Intn(80)+1))
		for i := range run {
			run[i] = sizes[rng.Intn(len(sizes))]
			if rng.Intn(200) == 0 {
				run[i] = math.MaxInt - rng.Intn(2*align)
			}
		}

		seq := cloneAllocator(a)
		var charges []int
		seqRefused := false
		for _, n := range run {
			c, err := seq.Alloc(n)
			seqRefused = seqRefused || err != nil
			charges = append(charges, c)
		}

		total, summable := 0, true
		for _, n := range run {
			c, ok := Charge(n)
			if !ok || total > math.MaxInt-c {
				summable = false
				break
			}
			total += c
		}
		if !summable {
			if !seqRefused {
				t.Fatalf("seed %d: Charge cannot sum %v, but every Alloc of it succeeded", seed, run)
			}
			continue
		}

		r := cloneAllocator(a)
		if !r.AllocRun(total, len(run)) {
			refused++
			if !seqRefused {
				t.Fatalf("seed %d: AllocRun(%d, %d) refused a run every Alloc of which succeeded (%+v)", seed, total, len(run), useOf(a))
			}
			if rs, as := useOf(r), useOf(a); rs != as || r.budget.Used() != a.budget.Used() {
				t.Fatalf("seed %d: a refused run moved the shard: %+v (budget %d), before %+v (budget %d)", seed, rs, r.budget.Used(), as, a.budget.Used())
			}
			continue
		}
		admitted++
		if seqRefused {
			t.Fatalf("seed %d: AllocRun admitted %v, but an Alloc of it was refused", seed, run)
		}
		for i, n := range run {
			if c, _ := Charge(n); c != charges[i] {
				t.Fatalf("seed %d: Charge(%d) = %d, Alloc charged %d", seed, n, c, charges[i])
			}
		}
		if rs, ss := useOf(r), useOf(seq); rs != ss || r.budget.Used() != seq.budget.Used() {
			t.Fatalf("seed %d: after the run %+v (budget %d), after the Allocs %+v (budget %d)", seed, rs, r.budget.Used(), ss, seq.budget.Used())
		}
	}
	if admitted < 50 || refused < 50 {
		t.Fatalf("%d runs admitted and %d refused: the seeds do not reach both outcomes", admitted, refused)
	}
}
