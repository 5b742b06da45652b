package stats

import (
	"sync"
	"testing"
)

func TestCountersBasics(t *testing.T) {
	s := NewCounters()
	a := s.Counter("alpha")
	b := s.Counter("beta")
	a.Inc()
	a.Add(4)
	b.Add(2)
	if s.Counter("alpha") != a {
		t.Error("Counter should return the same counter for the same name")
	}
	if got := s.Get("alpha"); got != 5 {
		t.Errorf("alpha = %d, want 5", got)
	}
	if got := s.Get("missing"); got != 0 {
		t.Errorf("missing = %d, want 0", got)
	}
	snap := s.Snapshot()
	if snap["alpha"] != 5 || snap["beta"] != 2 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestCountersConcurrent(t *testing.T) {
	s := NewCounters()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.Counter("shared")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := s.Get("shared"); got != 8000 {
		t.Errorf("shared = %d, want 8000", got)
	}
}

// TestCountersRace mixes registration, bumps and snapshots from parallel
// goroutines; under -race this is the concurrency guard for
// the shared counter set.
func TestCountersRace(t *testing.T) {
	s := NewCounters()
	names := []string{"a", "b", "c", "d", "e"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				s.Counter(names[(g+j)%len(names)]).Inc()
				if j%50 == 0 {
					s.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, v := range s.Snapshot() {
		total += v
	}
	if total != 8*500 {
		t.Errorf("total = %d, want %d", total, 8*500)
	}
	if got := s.Snapshot(); len(got) != len(names) {
		t.Errorf("names = %v", got)
	}
}
