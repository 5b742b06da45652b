package pfi

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// cacheProg builds a distinct, valid program per index so each compiles to
// its own unit.
func cacheProg(i int) string {
	return fmt.Sprintf("TASKTYPE MAIN\n      PRINT *, %d\nEND TASKTYPE\n", i)
}

func TestUnitCacheHitSharesUnit(t *testing.T) {
	c := NewUnitCache(1 << 20)
	p1, hit1, err := c.CompileTrace(cacheProg(0))
	if err != nil {
		t.Fatal(err)
	}
	p2, hit2, err := c.CompileTrace(cacheProg(0))
	if err != nil {
		t.Fatal(err)
	}
	if hit1 || !hit2 {
		t.Fatalf("hit flags = %v, %v; want miss then hit", hit1, hit2)
	}
	if p1.unit != p2.unit {
		t.Fatal("cache hit did not share the compiled unit")
	}
	if p1 == p2 {
		t.Fatal("cache hit returned the same Program; run state must be fresh")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry", s)
	}
}

// TestUnitCacheEvicts is the regression test for the unbounded unitCache
// sync.Map this cache replaced: inserting more units than the weight bound
// admits must evict in LRU order, and the evicted unit must actually leave
// the cache (entry count and weight stay bounded; recompiling it is a miss).
func TestUnitCacheEvicts(t *testing.T) {
	// Size the bound to hold roughly three of these programs.
	u, err := CompileUncached(cacheProg(0))
	if err != nil {
		t.Fatal(err)
	}
	per := u.unit.weight
	if per <= 0 {
		t.Fatalf("unit weight = %d; want positive", per)
	}
	c := NewUnitCache(3*per + per/2)

	const n = 10
	for i := 0; i < n; i++ {
		if _, _, err := c.CompileTrace(cacheProg(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries > 3 {
		t.Fatalf("cache holds %d entries after %d inserts; want <= 3", s.Entries, n)
	}
	if s.Weight > s.MaxBytes {
		t.Fatalf("cache weight %d exceeds bound %d", s.Weight, s.MaxBytes)
	}
	if s.Evictions != int64(n-s.Entries) {
		t.Fatalf("evictions = %d; want %d", s.Evictions, n-s.Entries)
	}

	// The oldest program must be gone (recompiling it misses), the newest
	// still resident (hits).
	if _, hit, err := c.CompileTrace(cacheProg(n - 1)); err != nil || !hit {
		t.Fatalf("newest program: hit=%v err=%v; want cache hit", hit, err)
	}
	if _, hit, err := c.CompileTrace(cacheProg(0)); err != nil || hit {
		t.Fatalf("oldest program: hit=%v err=%v; want miss after eviction", hit, err)
	}
}

func TestUnitCacheLRUOrder(t *testing.T) {
	u, err := CompileUncached(cacheProg(0))
	if err != nil {
		t.Fatal(err)
	}
	per := u.unit.weight
	c := NewUnitCache(2*per + per/2)
	for i := 0; i < 2; i++ {
		if _, _, err := c.CompileTrace(cacheProg(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch program 0 so program 1 becomes least recently used, then insert
	// a third: 1 must be the victim.
	if _, hit, _ := c.CompileTrace(cacheProg(0)); !hit {
		t.Fatal("expected hit on resident program 0")
	}
	if _, _, err := c.CompileTrace(cacheProg(2)); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := c.CompileTrace(cacheProg(0)); !hit {
		t.Fatal("recently used program 0 was evicted")
	}
	if _, hit, _ := c.CompileTrace(cacheProg(2)); !hit {
		t.Fatal("just-inserted program 2 was evicted")
	}
}

// TestUnitCacheOversizedEntry: a single unit heavier than the whole bound
// still compiles and stays resident until the next insert displaces it.
func TestUnitCacheOversizedEntry(t *testing.T) {
	c := NewUnitCache(1) // absurdly small bound
	if _, hit, err := c.CompileTrace(cacheProg(0)); err != nil || hit {
		t.Fatalf("hit=%v err=%v; want clean miss-compile", hit, err)
	}
	if _, hit, _ := c.CompileTrace(cacheProg(0)); !hit {
		t.Fatal("oversized entry was not retained as the sole resident")
	}
	if _, _, err := c.CompileTrace(cacheProg(1)); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d; want 1 (newest survives, oldest evicted)", s.Entries)
	}
}

func TestUnitCacheConcurrent(t *testing.T) {
	c := NewUnitCache(0)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				if _, err := c.Compile(cacheProg(i % 5)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Entries != 5 {
		t.Fatalf("entries = %d; want 5", s.Entries)
	}
}

// TestUnitCacheSingleFlight submits one never-seen source from many
// goroutines at once.  Exactly one of them compiles it: one miss, everyone
// else a hit over the same compiled unit — where the cache used to let every
// early arrival miss and compile its own.  The program is long enough that
// the first compile is still running when the others arrive.
func TestUnitCacheSingleFlight(t *testing.T) {
	var src strings.Builder
	src.WriteString("TASKTYPE MAIN\n      INTEGER X\n")
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&src, "      X = X + %d * (X - %d)\n", i, i+1)
	}
	src.WriteString("END TASKTYPE\n")

	const n = 16
	c := NewUnitCache(0)
	start := make(chan struct{})
	progs := make([]*Program, n)
	hits := make([]bool, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			p, hit, err := c.CompileTrace(src.String())
			if err != nil {
				t.Error(err)
				return
			}
			progs[g], hits[g] = p, hit
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	reportedMisses := 0
	for g := range progs {
		if progs[g].unit != progs[0].unit {
			t.Fatalf("submission %d got its own compiled unit", g)
		}
		if !hits[g] {
			reportedMisses++
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != n-1 || s.Entries != 1 || reportedMisses != 1 {
		t.Fatalf("stats = %+v, %d submissions told they missed; want 1 miss, %d hits, 1 entry", s, reportedMisses, n-1)
	}

	// A source that does not compile is not cached: everyone who asked while
	// the one attempt ran shares its error, and nobody is told "hit".
	bad := "TASKTYPE MAIN\n" + strings.Repeat("      X = 1 +\n", 2000) + "END TASKTYPE\n"
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		go func() {
			_, hit, err := c.CompileTrace(bad)
			if hit {
				err = fmt.Errorf("failed compile reported as a hit")
			} else if err == nil {
				err = fmt.Errorf("malformed program compiled")
			} else {
				err = nil
			}
			errs <- err
		}()
	}
	for g := 0; g < n; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if s := c.Stats(); s.Entries != 1 || s.Hits != n-1 {
		t.Fatalf("stats after failed compiles = %+v; want still 1 entry and %d hits", s, n-1)
	}
}
