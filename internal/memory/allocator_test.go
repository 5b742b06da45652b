package memory

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestAllocBasic(t *testing.T) {
	a := New(4096)
	off, err := a.Alloc(100)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if want := roundUp(100) + headerSize; off != want {
		t.Fatalf("Alloc(100) charged %d, want %d", off, want)
	}
	if got := a.InUse(); got != off {
		t.Fatalf("InUse = %d, want the charge %d", got, off)
	}
	if err := a.Free(off); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if got := a.InUse(); got != 0 {
		t.Fatalf("InUse after free = %d, want 0", got)
	}
}

func TestAllocRoundsUp(t *testing.T) {
	a := New(1024)
	off, err := a.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.InUse(); got != align+headerSize {
		t.Fatalf("InUse = %d, want %d", got, align+headerSize)
	}
	if err := a.Free(off); err != nil {
		t.Fatal(err)
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := New(256)
	var offs []int
	for {
		off, err := a.Alloc(32)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		offs = append(offs, off)
	}
	if len(offs) == 0 {
		t.Fatal("no allocations succeeded at all")
	}
	st := a.Stats()
	if st.Failures == 0 {
		t.Fatal("expected at least one recorded failure")
	}
	for _, off := range offs {
		if err := a.Free(off); err != nil {
			t.Fatalf("Free(%d): %v", off, err)
		}
	}
	// After freeing everything, a large allocation should succeed again.
	if _, err := a.Alloc(st.ArenaSize / 2); err != nil {
		t.Fatalf("allocation after full free failed: %v", err)
	}
}

func TestDoubleFree(t *testing.T) {
	a := New(1024)
	off, err := a.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(off); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(off); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free: got %v, want ErrBadFree", err)
	}
	if err := a.Free(12345); !errors.Is(err, ErrBadFree) {
		t.Fatalf("bogus free: got %v, want ErrBadFree", err)
	}
	// No sum of charges is below the minimum or off the packet granularity.
	if _, err := a.Alloc(100); err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{0, 8, 20, 111} {
		if err := a.Free(c); !errors.Is(err, ErrBadFree) {
			t.Fatalf("Free(%d) with %d in use: got %v, want ErrBadFree", c, a.InUse(), err)
		}
	}
	if got := a.InUse(); got != 112 {
		t.Fatalf("InUse = %d after refused frees, want 112", got)
	}
}

func TestHighWaterMark(t *testing.T) {
	a := New(4096)
	o1, _ := a.Alloc(512)
	o2, _ := a.Alloc(512)
	hw := a.Stats().HighWater
	if hw < 1024 {
		t.Fatalf("high water %d, want >= 1024", hw)
	}
	a.Free(o1)
	a.Free(o2)
	if a.Stats().HighWater != hw {
		t.Fatalf("high water changed after frees: %d != %d", a.Stats().HighWater, hw)
	}
	if a.InUse() != 0 {
		t.Fatalf("in use %d after freeing everything", a.InUse())
	}
}

// TestStatsAccounting checks the counts: InUse is the sum of the live
// charges, HighWater the most it ever was, Allocs and Failures the answers.
func TestStatsAccounting(t *testing.T) {
	a := New(1024)
	var offs []int
	for i := 0; i < 7; i++ {
		off, err := a.Alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	if _, err := a.Alloc(300); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Alloc(300) with %d of %d in use = %v, want ErrOutOfMemory", a.InUse(), a.Size(), err)
	}
	a.Free(offs[2])
	a.Free(offs[4])
	want := Stats{ArenaSize: 1024, InUse: 5 * 112, HighWater: 7 * 112, Allocs: 7, Failures: 1}
	if st := a.Stats(); st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
}

// Property: any sequence of allocations followed by freeing all of them
// returns the allocator to zero bytes in use.
func TestQuickAllocFreeAll(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := New(1 << 20)
		var offs []int
		for _, s := range sizes {
			n := int(s%2048) + 1
			off, err := a.Alloc(n)
			if err != nil {
				// Exhaustion is acceptable behaviour; stop allocating.
				break
			}
			offs = append(offs, off)
		}
		for _, off := range offs {
			if err := a.Free(off); err != nil {
				return false
			}
		}
		return a.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: live allocations never overlap each other — in a byte count,
// their charges never sum past the arena, and InUse is that sum.
func TestQuickNoOverlap(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(1 << 12)
		var live []int
		sum := 0
		for i := 0; i < int(count); i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				if err := a.Free(live[k]); err != nil {
					return false
				}
				sum -= live[k]
				live = append(live[:k], live[k+1:]...)
				continue
			}
			n := rng.Intn(512) + 1
			off, err := a.Alloc(n)
			if err != nil {
				if !errors.Is(err, ErrOutOfMemory) || sum+roundUp(n)+headerSize <= a.Size() {
					return false
				}
				continue
			}
			live = append(live, off)
			sum += off
		}
		return sum <= a.Size() && a.InUse() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	a := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off, err := a.Alloc(128)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(off); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocOverflowGuard covers the roundUp overflow: sizes near MaxInt would
// wrap into a negative request that a compare against the free bytes accepts.
// They must fail cleanly with ErrOutOfMemory.
func TestAllocOverflowGuard(t *testing.T) {
	a := New(4096)
	for _, n := range []int{math.MaxInt, math.MaxInt - 1, math.MaxInt - align + 1, math.MaxInt - align} {
		off, err := a.Alloc(n)
		if !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("Alloc(%d) = (%d, %v), want ErrOutOfMemory", n, off, err)
		}
	}
	st := a.Stats()
	if st.Failures != 4 {
		t.Errorf("Failures = %d, want 4", st.Failures)
	}
	// The arena must remain fully usable after the rejected requests.
	off, err := a.Alloc(64)
	if err != nil {
		t.Fatalf("Alloc(64) after overflow attempts: %v", err)
	}
	if err := a.Free(off); err != nil {
		t.Fatal(err)
	}
}

// TestAggregate checks the multi-shard stats roll-up used by the per-cluster
// message-heap shards.
func TestAggregate(t *testing.T) {
	a, b := New(4096), New(8192)
	offA, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Alloc(200); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(offA); err != nil {
		t.Fatal(err)
	}
	got := Aggregate(a.Stats(), b.Stats())
	if got.ArenaSize != 4096+8192 {
		t.Errorf("ArenaSize = %d, want %d", got.ArenaSize, 4096+8192)
	}
	if got.InUse != b.Stats().InUse {
		t.Errorf("InUse = %d, want %d (only shard b holds storage)", got.InUse, b.Stats().InUse)
	}
	if got.HighWater != a.Stats().HighWater+b.Stats().HighWater {
		t.Errorf("HighWater = %d, want per-shard sum", got.HighWater)
	}
	if got.Allocs != 2 {
		t.Errorf("Allocs = %d, want 2", got.Allocs)
	}
	if empty := Aggregate(); empty != (Stats{}) {
		t.Errorf("Aggregate() = %+v, want zero", empty)
	}
}

// TestChargeRefusedOnlyWhenBytesSpent: a shard refuses a charge only when its
// bytes are spent.  Free bytes split into holes, each smaller than a request
// but together more than its charge, still take it; the last 16 bytes take a
// minimum charge and refuse one 8 bytes larger; a full shard refuses even
// the minimum; sizes near MaxInt are refused; every refusal is counted.
func TestChargeRefusedOnlyWhenBytesSpent(t *testing.T) {
	a := New(1024)
	var charges []int
	for i := 0; i < 8; i++ {
		c, err := a.Alloc(120) // 128 bytes charged: eight fill the shard
		if err != nil {
			t.Fatalf("Alloc %d of 8: %v", i, err)
		}
		charges = append(charges, c)
	}
	if a.InUse() != a.Size() {
		t.Fatalf("InUse = %d after eight 128-byte charges, want %d", a.InUse(), a.Size())
	}
	// Three holes of 128 bytes, none next to another.
	for _, i := range []int{0, 2, 4} {
		if err := a.Free(charges[i]); err != nil {
			t.Fatal(err)
		}
	}
	failures := a.Stats().Failures
	refuse := func(n int, why string) {
		t.Helper()
		if _, err := a.Alloc(n); !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("%s: Alloc(%d) = %v, want ErrOutOfMemory", why, n, err)
		}
		failures++
	}
	if c, err := a.Alloc(200); err != nil || c != 208 {
		t.Fatalf("Alloc(200) with 384 bytes free in 128-byte holes = %d, %v; want a 208-byte charge", c, err)
	}
	if _, err := a.Alloc(152); err != nil {
		t.Fatalf("Alloc(152) with 176 bytes free: %v", err)
	}
	if free := a.Size() - a.InUse(); free != 16 {
		t.Fatalf("%d bytes free, want 16", free)
	}
	refuse(16, "a 24-byte charge in the last 16 bytes")
	if c, err := a.Alloc(8); err != nil || c != 16 {
		t.Fatalf("Alloc(8) in the last 16 bytes = %d, %v; want a 16-byte charge", c, err)
	}
	refuse(0, "the minimum charge on a full shard")
	refuse(math.MaxInt, "a size near MaxInt")
	refuse(math.MaxInt-align, "a size near MaxInt")
	if st := a.Stats(); st.Failures != failures || st.InUse != st.ArenaSize || st.HighWater != st.ArenaSize {
		t.Fatalf("Stats = %+v, want %d failures and the shard full", st, failures)
	}
}

// TestConcurrentChargesBalance: goroutines on two shards sharing one budget
// mix Alloc, Transit, runs admitted by AllocRun, single Frees and summed-run
// Frees.  No shard's high
// water passes its size nor the budget its cap, the counters agree with the
// answers the goroutines got, and once everything is given back both shards
// and the budget read zero.
func TestConcurrentChargesBalance(t *testing.T) {
	const workers, steps = 8, 4000
	// The small shard fills before the budget does, the large one mostly
	// after it, so both kinds of refusal come up.
	b := NewBudget(5 << 10)
	shards := []*Allocator{New(2 << 10), New(8 << 10)}
	for _, s := range shards {
		s.SetBudget(b)
	}
	var oom, overBudget, granted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			s := shards[w%len(shards)]
			var live []int
			for step := 0; step < steps; step++ {
				var err error
				n := []int{0, 8, 64, 136, 512, 1500}[rng.Intn(6)]
				switch op := rng.Intn(11); {
				case op == 10:
					// A run of charges admitted at once, as an inbound run is:
					// a refusal moves nothing, so only the grant is counted.
					run, total := 1+rng.Intn(4), 0
					charges := make([]int, run)
					for i := range charges {
						charges[i], _ = Charge([]int{0, 8, 64, 136, 512, 1500}[rng.Intn(6)])
						total += charges[i]
					}
					if s.AllocRun(total, run) {
						live = append(live, charges...)
						granted.Add(int64(run))
					}
					continue
				case op < 5:
					var c int
					if c, err = s.Alloc(n); err == nil {
						live = append(live, c)
					}
				case op < 6:
					err = s.Transit(n)
				case op < 8 && len(live) > 0:
					i := rng.Intn(len(live))
					if ferr := s.Free(live[i]); ferr != nil {
						t.Errorf("Free(%d): %v", live[i], ferr)
					}
					live = slices.Delete(live, i, i+1)
					continue
				case len(live) > 0:
					k := 1 + rng.Intn(len(live))
					sum := 0
					for _, c := range live[:k] {
						sum += c
					}
					if ferr := s.Free(sum); ferr != nil {
						t.Errorf("Free of a %d-charge run (%d bytes): %v", k, sum, ferr)
					}
					live = live[k:]
					continue
				default:
					continue
				}
				switch {
				case err == nil:
					granted.Add(1)
				case errors.Is(err, ErrOutOfMemory):
					oom.Add(1)
				case errors.Is(err, ErrBudgetExceeded):
					overBudget.Add(1)
				default:
					t.Errorf("unexpected refusal: %v", err)
				}
				if hw := s.Stats().HighWater; hw > s.Size() {
					t.Errorf("high water %d past the shard's %d bytes", hw, s.Size())
				}
				if u := b.Used(); u > b.Max() {
					t.Errorf("budget holds %d past its cap %d", u, b.Max())
				}
			}
			for _, c := range live {
				if err := s.Free(c); err != nil {
					t.Errorf("Free(%d) at the end: %v", c, err)
				}
			}
		}(w)
	}
	wg.Wait()
	st := Aggregate(shards[0].Stats(), shards[1].Stats())
	if st.InUse != 0 || b.Used() != 0 {
		t.Fatalf("after every charge was given back the shards hold %d bytes and the budget %d", st.InUse, b.Used())
	}
	if int64(st.Allocs) != granted.Load() || int64(st.Failures) != oom.Load()+overBudget.Load() {
		t.Fatalf("Stats %+v; the goroutines were granted %d and refused %d", st, granted.Load(), oom.Load()+overBudget.Load())
	}
	if oom.Load()+overBudget.Load() == 0 {
		t.Fatal("the run never filled a shard or the budget")
	}
}
