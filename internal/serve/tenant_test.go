package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
)

// corpusPrograms returns the conformance corpus minus timeout.pf, whose
// hour-long DELAY is virtual-clock only: the daemon runs programs on the
// real-time goroutine backend, where that delay would sleep for real.
func corpusPrograms(t *testing.T) ([]string, map[string]string) {
	t.Helper()
	names, srcs := conformance.Corpus()
	out := names[:0:0]
	for _, n := range names {
		if n == "timeout.pf" {
			continue
		}
		out = append(out, n)
	}
	return out, srcs
}

// harnessShape is the conformance harness machine: two clusters of eight
// with a force on cluster 1, so force corpus programs have members.
func harnessShape(cfg Config) Config {
	cfg.Clusters = 2
	cfg.Slots = 8
	cfg.ForceCluster = 1
	cfg.ForcePEs = []int{7, 8}
	cfg.AcceptTimeout = 30 * time.Second
	return cfg
}

// soloOutputs runs every corpus program alone — one worker, empty daemon —
// and returns the reference output per program.
func soloOutputs(t *testing.T, names []string, srcs map[string]string) map[string]string {
	t.Helper()
	m := New(harnessShape(Config{MaxActive: 1}))
	defer drainAll(t, m)
	out := make(map[string]string, len(names))
	for _, name := range names {
		s, err := m.Submit(Request{Tenant: "solo", Source: srcs[name]})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		waitSession(t, s)
		if st, serr := s.State(); st != StateDone {
			t.Fatalf("%s solo run failed: state=%q err=%v", name, st, serr)
		}
		out[name] = string(s.Output())
	}
	return out
}

// TestConcurrentTenantConformance is the multi-tenant conformance sweep: the
// whole corpus submitted three times over by concurrent tenants into one
// daemon with eight active workers.  Every tenant's output must be
// byte-identical to the program's solo run — sessions sharing a process, a
// compile cache and a wall clock must not observe each other.  Run under
// -race this is also the isolation check on the shared compiled units.
//
// All three rounds go in at once, against a cold cache: the cache
// single-flights a source's first compile, so "one compile per distinct
// program" is exact no matter which worker got there first.
func TestConcurrentTenantConformance(t *testing.T) {
	names, srcs := corpusPrograms(t)
	solo := soloOutputs(t, names, srcs)
	// The one row whose reference needs pinning, not just comparing: on this
	// backend a session whose tasks end in fire-and-forget INITIATEs used to
	// race its own shutdown, and solo and concurrent runs could lose the same
	// child.
	if got, want := solo["lastinit.pf"], "MAIN STARTS\nCHILD RAN 7\nLEAF RAN 8\n"; got != want {
		t.Errorf("lastinit.pf solo session printed:\n%swant:\n%s", got, want)
	}

	const rounds = 3
	m := New(harnessShape(Config{
		MaxActive:     8,
		QueueDepth:    2 * rounds * len(names),
		TenantMetrics: true,
	}))
	defer drainAll(t, m)

	type result struct {
		name    string
		tenant  string
		session *Session
	}
	var mu sync.Mutex
	var results []result
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for _, name := range names {
			tenant := fmt.Sprintf("t%d-%s", round, name)
			wg.Add(1)
			go func(name, tenant string) {
				defer wg.Done()
				s, err := m.Submit(Request{Tenant: tenant, Source: srcs[name]})
				if err != nil {
					t.Errorf("%s: submit: %v", tenant, err)
					return
				}
				mu.Lock()
				results = append(results, result{name, tenant, s})
				mu.Unlock()
			}(name, tenant)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(results) != rounds*len(names) {
		t.Fatalf("admitted %d sessions; want %d", len(results), rounds*len(names))
	}
	for _, r := range results {
		waitSession(t, r.session)
		if st, serr := r.session.State(); st != StateDone {
			t.Errorf("%s: state=%q err=%v; want done", r.tenant, st, serr)
			continue
		}
		if got := string(r.session.Output()); got != solo[r.name] {
			t.Errorf("%s: concurrent output differs from solo run\n--- solo ---\n%s--- concurrent ---\n%s",
				r.tenant, solo[r.name], got)
		}
	}

	// Every program compiled once; every other submission of it — concurrent
	// with that compile or after it — came from the shared cache.
	cs := m.Cache().Stats()
	if cs.Misses != int64(len(names)) {
		t.Errorf("cache misses = %d; want %d (one per distinct program)", cs.Misses, len(names))
	}
	if want := int64((rounds - 1) * len(names)); cs.Hits != want {
		t.Errorf("cache hits = %d; want %d (every other submission shares a unit)", cs.Hits, want)
	}
}

// hogSrc floods MAIN's in-queue with results it never accepts; under a tiny
// HeapBytes quota the sends trip the tenant's budget long before the shared
// arena is under pressure.
const hogSrc = `TASKTYPE MAIN
      INTEGER W
      SIGNAL RESULT
      SIGNAL DONE
      DO 10 W = 1, 8
        ON ANY INITIATE WORKER(W)
10    CONTINUE
      ACCEPT 8 OF DONE
      PRINT *, 'HOG SURVIVED'
END TASKTYPE

TASKTYPE WORKER(ME)
      INTEGER ME, I
      DO 20 I = 1, 400
        TO PARENT SEND RESULT(ME, I)
20    CONTINUE
      TO PARENT SEND DONE
END TASKTYPE
`

// TestQuotaIsolation: one tenant with a deliberately tiny heap quota
// overflows it; the violation fails that tenant alone, and eight good
// tenants running alongside produce byte-identical output to their solo
// runs.
func TestQuotaIsolation(t *testing.T) {
	names, srcs := corpusPrograms(t)
	solo := soloOutputs(t, names, srcs)

	m := New(harnessShape(Config{MaxActive: 9, QueueDepth: 32}))
	defer drainAll(t, m)

	hog, err := m.Submit(Request{
		Tenant: "hog",
		Source: hogSrc,
		Limits: core.Limits{HeapBytes: 8 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	good := make([]*Session, 0, 8)
	goodNames := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		name := names[i%len(names)]
		s, err := m.Submit(Request{Tenant: fmt.Sprintf("good%d", i), Source: srcs[name]})
		if err != nil {
			t.Fatal(err)
		}
		good = append(good, s)
		goodNames = append(goodNames, name)
	}

	waitSession(t, hog)
	st, herr := hog.State()
	if st != StateFailed {
		t.Fatalf("hog state = %q (err=%v); want failed", st, herr)
	}
	if !errors.Is(herr, core.ErrLimitExceeded) {
		t.Fatalf("hog error = %v; want ErrLimitExceeded", herr)
	}
	var le *core.LimitError
	if !errors.As(herr, &le) || le.Resource != core.LimitHeap {
		t.Fatalf("hog violation = %v; want heap", herr)
	}
	if out := string(hog.Output()); strings.Contains(out, "HOG SURVIVED") {
		t.Fatalf("hog printed its success line past a heap violation:\n%s", out)
	}

	for i, s := range good {
		waitSession(t, s)
		if st, serr := s.State(); st != StateDone {
			t.Errorf("good%d (%s): state=%q err=%v; want done", i, goodNames[i], st, serr)
			continue
		}
		if got := string(s.Output()); got != solo[goodNames[i]] {
			t.Errorf("good%d (%s): output perturbed by the hog's violation\n--- solo ---\n%s--- shared ---\n%s",
				i, goodNames[i], solo[goodNames[i]], got)
		}
	}
	if m.mQuota.Load() != 1 {
		t.Errorf("quota counter = %d; want 1", m.mQuota.Load())
	}
}
