//go:build !race

package serve

import (
	"runtime"
	"testing"
)

// TestSessionStorageBudget keeps a session's storage at what its program
// uses.  1,024 sessions of a small cross-cluster program through a daemon of
// the default geometry, compile cache warm:
//
//	                          arenas zeroed    this test    budget
//	bytes allocated/session      2,010,756      ~24,900      30,000
//	live heap, 512 retained    101,397,608   ~1,520,000   16,000,000
//
// The first column's bytes were two 864 KB heap-shard arenas zeroed per
// session and a 192 KB flight-recorder ring, the ring pinned for as long as
// the session was retained.  A session's heap shards are accounting only now
// and take no arena at all; what is live is the retained sessions' records
// and the pooled headers and frames.  A VM makes its four 256-bucket
// histograms (some 8 KB) on the first observation with metrics on, which a
// daemon session never makes: building them at every boot again would take
// a session past the budget.  Nor does a VM make a PE's CPU before it
// spawns a process there: most of the FLEX/32's twenty PEs never run one.
// Not run under -race, whose allocator and
// sync.Pool behave differently; GOMAXPROCS is left as found.
func TestSessionStorageBudget(t *testing.T) {
	const sessions, batch = 1024, 64
	m := New(daemonShape(Config{}))
	defer drainAll(t, m)
	srcs := make([]string, batch)
	for i := range srcs {
		srcs[i] = echoSrc
	}
	runBatch := func() { runToDone(t, m, "t", srcs...) }
	runBatch() // warm the compile cache and the pools

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for done := 0; done < sessions; done += batch {
		runBatch()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / sessions
	if per >= 30_000 {
		t.Errorf("a session allocates %d B, budget 30,000 (arenas zeroed: 2,010,756)", per)
	}

	if n := len(m.Sessions()); n != retainedSessions {
		t.Fatalf("%d sessions retained, want %d", n, retainedSessions)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc >= 16_000_000 {
		t.Errorf("live heap with %d sessions retained is %d B, budget 16,000,000 (arenas zeroed: 101,397,608)", retainedSessions, after.HeapAlloc)
	}
	t.Logf("%d B allocated per session, %d B live with %d retained", per, after.HeapAlloc, retainedSessions)
}
