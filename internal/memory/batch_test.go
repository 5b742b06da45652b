package memory

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// TestFreeEachMatchesSequentialFree drives two allocators through the same
// seeded histories — one releasing each batch with FreeEach, the other with
// one Free per offset, stopping at the first refusal — and requires the same
// error, block list, Stats, budget use and next placements after every
// batch.  Batches are random subsets of the live blocks in random order, of
// one block up to dozens, and some carry a double free (an offset freed
// earlier, or twice in the batch) or an offset that was never allocated
// somewhere in the middle: FreeEach must stop there with ErrBadFree, the
// offsets before it freed and the rest still live.
func TestFreeEachMatchesSequentialFree(t *testing.T) {
	const arena, cap = 32 << 10, 24 << 10
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batch, seq := New(arena), New(arena)
		bb, sb := NewBudget(cap), NewBudget(cap)
		batch.SetBudget(bb)
		seq.SetBudget(sb)
		var live, dead []int
		refused := 0
		for round := 0; round < 60; round++ {
			// Grow: the same sizes on both sides land at the same offsets.
			for i := rng.Intn(24); i > 0; i-- {
				n := []int{1, 8, 24, 64, 100, 136, 512, 1500}[rng.Intn(8)]
				off, err := batch.Alloc(n)
				soff, serr := seq.Alloc(n)
				if off != soff || (err == nil) != (serr == nil) {
					t.Fatalf("seed %d round %d: Alloc(%d) = %d, %v and %d, %v", seed, round, n, off, err, soff, serr)
				}
				if err == nil {
					live = append(live, off)
				}
			}
			if len(live) == 0 {
				continue
			}
			k := 1
			if rng.Intn(4) != 0 {
				k = 1 + rng.Intn(len(live))
			}
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			offs := append([]int(nil), live[:k]...)
			if rng.Intn(5) == 0 {
				bad := arena + 8 // never an allocation's offset
				switch {
				case len(dead) > 0 && rng.Intn(2) == 0:
					bad = dead[rng.Intn(len(dead))]
				case rng.Intn(2) == 0:
					bad = offs[0]
				}
				at := rng.Intn(len(offs) + 1)
				offs = slices.Insert(offs, at, bad)
			}

			err := batch.FreeEach(offs)
			var serr error
			freed := 0
			for _, off := range offs {
				if serr = seq.Free(off); serr != nil {
					break
				}
				freed++
			}
			if errText(err) != errText(serr) {
				t.Fatalf("seed %d round %d: FreeEach(%v) = %v, sequential Free %v", seed, round, offs, err, serr)
			}
			if err != nil {
				refused++
				if !errors.Is(err, ErrBadFree) {
					t.Fatalf("seed %d round %d: FreeEach refused with %v, want ErrBadFree", seed, round, err)
				}
			}
			for _, off := range offs[:freed] {
				live = slices.DeleteFunc(live, func(l int) bool { return l == off })
				dead = append(dead, off)
			}
			if !slices.Equal(batch.blocks, seq.blocks) {
				t.Fatalf("seed %d round %d: block lists differ after FreeEach(%v):\n%v\n%v", seed, round, offs, batch.blocks, seq.blocks)
			}
			if bs, ss := batch.Stats(), seq.Stats(); bs != ss {
				t.Fatalf("seed %d round %d: Stats %+v, sequential %+v", seed, round, bs, ss)
			}
			if bb.Used() != sb.Used() {
				t.Fatalf("seed %d round %d: budget holds %d, sequential %d", seed, round, bb.Used(), sb.Used())
			}
			for i := 0; i < batch.firstFree; i++ {
				if batch.blocks[i].free {
					t.Fatalf("seed %d round %d: block %d is free below the first-free hint %d", seed, round, i, batch.firstFree)
				}
			}
		}
		if refused == 0 {
			t.Fatalf("seed %d: no batch carried a bad offset", seed)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
