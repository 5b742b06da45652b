package pfi

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
)

// DefaultCacheBytes is the weight bound of the package-level compile cache
// and of any UnitCache built with NewUnitCache(0).  Compiled units weigh a
// few KB each (see unitWeight), so the default holds on the order of a
// thousand distinct programs — far more than a CLI run or test suite needs,
// small enough that a long-lived daemon cannot grow without limit.
const DefaultCacheBytes = 16 << 20

// UnitCache memoises compiled units by source text so repeated Compile calls
// on the same program skip lexing, parsing, and code generation.  Unlike the
// process-wide sync.Map it replaces, a UnitCache is an explicit handle — a
// serving daemon shares one across every tenant, while fuzzers and
// benchmarks build private caches (or use CompileUncached) so their garbage
// cannot pollute anyone else's — and it is bounded: entries are evicted in
// least-recently-used order once the summed compiled-unit weight exceeds the
// configured maximum.
//
// A UnitCache is safe for concurrent use.
type UnitCache struct {
	mu       sync.Mutex
	maxBytes int64
	weight   int64
	ll       *list.List               // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element // source text -> element
	flights  map[string]*flight       // source text -> its first compile, while that runs

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	src  string
	unit *compiledUnit
}

// flight is one source's first compile in progress.  Callers that arrive
// while it runs wait on done and share its outcome instead of compiling the
// same text again.
type flight struct {
	done chan struct{}
	unit *compiledUnit
	err  error
}

// NewUnitCache builds a cache bounded to maxBytes of compiled-unit weight;
// maxBytes <= 0 selects DefaultCacheBytes.
func NewUnitCache(maxBytes int64) *UnitCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &UnitCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		flights:  make(map[string]*flight),
	}
}

// Compile parses and compiles src, consulting and populating the cache.  A
// hit returns a fresh Program (own counters, own error state) over the
// shared compiled unit without re-parsing.
func (c *UnitCache) Compile(src string) (*Program, error) {
	p, _, err := c.CompileTrace(src)
	return p, err
}

// CompileTrace is Compile plus a report of whether the unit came from the
// cache, so callers (the serving daemon) can attribute hit/miss traffic per
// tenant.  Concurrent first submissions of one source are single-flighted:
// exactly one compiles (the miss), the others wait for it and count as hits.
// Errors are not cached; those who waited on a failed compile share its error
// and count as misses.
func (c *UnitCache) CompileTrace(src string) (*Program, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[src]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return newProgram(el.Value.(*cacheEntry).unit), true, nil
	}
	f, joined := c.flights[src]
	if !joined {
		f = &flight{done: make(chan struct{}), err: errCompileAbandoned}
		c.flights[src] = f
	}
	c.mu.Unlock()
	if joined {
		<-f.done
	} else {
		c.land(src, f)
	}
	hit := joined && f.err == nil
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	if f.err != nil {
		return nil, false, f.err
	}
	return newProgram(f.unit), hit, nil
}

// errCompileAbandoned is what waiters see if the compile they waited on
// panicked out of compileUnit instead of returning.
var errCompileAbandoned = errors.New("pfi: the compile this submission waited on did not finish")

// land runs the flight's compile, publishes the unit and releases whoever is
// waiting on it — also when compileUnit panics, so nobody waits forever.
func (c *UnitCache) land(src string, f *flight) {
	defer func() {
		c.mu.Lock()
		delete(c.flights, src)
		if f.err == nil {
			c.insert(src, f.unit)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.unit, f.err = compileUnit(src)
}

// insert stores a freshly compiled unit, evicting least-recently-used
// entries until the cache is back under its weight bound.  The entry being
// inserted is never evicted, so a single unit heavier than the whole bound
// still compiles and caches (and is evicted by the next insert).  The caller
// holds c.mu, and the flight it is landing guarantees src has no entry yet.
func (c *UnitCache) insert(src string, u *compiledUnit) {
	el := c.ll.PushFront(&cacheEntry{src: src, unit: u})
	c.entries[src] = el
	c.weight += u.weight
	for c.weight > c.maxBytes && c.ll.Len() > 1 {
		back := c.ll.Back()
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, ent.src)
		c.weight -= ent.unit.weight
		c.evictions.Add(1)
	}
}

// CacheStats is a snapshot of a UnitCache's accounting.
type CacheStats struct {
	Hits      int64 // lookups that found a compiled unit
	Misses    int64 // lookups that had to compile
	Evictions int64 // units dropped to stay under the weight bound
	Entries   int   // compiled units currently cached
	Weight    int64 // summed weight of cached units, in bytes
}

// Stats returns a snapshot of the cache's counters.
func (c *UnitCache) Stats() CacheStats {
	c.mu.Lock()
	entries := c.ll.Len()
	weight := c.weight
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Weight:    weight,
	}
}

// defaultCache backs the package-level Compile, preserving its historical
// behaviour (repeated `pisces run`, benchmark loops, and test suites share
// compiled units process-wide) while bounding what used to be an unbounded
// sync.Map.
var defaultCache = NewUnitCache(0)
