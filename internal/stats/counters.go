package stats

import (
	"sync"
	"sync/atomic"
)

// Counter is one monotonically named run-time counter.  The zero value is
// ready to use; Add and Load are safe for concurrent use, so hot interpreter
// and run-time paths can hold a *Counter and bump it without locking.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.n.Load() }

// Counters is a named set of activity counters.  It backs the interpreter
// counters of internal/pfi, which count whether or not a metrics registry is
// collecting; pfi.Program.Snapshot folds them into the run's metric snapshot
// for reporting.
type Counters struct {
	mu     sync.Mutex
	byName map[string]*Counter
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{byName: make(map[string]*Counter)}
}

// Counter returns the counter with the given name, registering it on first
// use.  The returned pointer may be retained and bumped lock-free.
func (s *Counters) Counter(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.byName[name]; ok {
		return c
	}
	c := &Counter{}
	s.byName[name] = c
	return c
}

// Get returns the current count of the named counter (0 if never registered).
func (s *Counters) Get(name string) int64 {
	s.mu.Lock()
	c, ok := s.byName[name]
	s.mu.Unlock()
	if !ok {
		return 0
	}
	return c.Load()
}

// Snapshot returns the current value of every registered counter.
func (s *Counters) Snapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.byName))
	for name, c := range s.byName {
		out[name] = c.Load()
	}
	return out
}
