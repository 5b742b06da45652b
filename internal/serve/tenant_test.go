package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/sim"
)

// corpusPrograms returns the conformance corpus a daemon on b can run.  On
// the real backend that is all of it but timeout.pf, whose hour-long DELAY
// would sleep for real; under a sim.Scheduler the delay is virtual.
func corpusPrograms(b backend.Backend) ([]string, map[string]string) {
	names, srcs := conformance.Corpus()
	out := names[:0:0]
	for _, n := range names {
		if n != "timeout.pf" || b.Deterministic() {
			out = append(out, n)
		}
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

// soloOutputs runs every corpus program alone — one session at a time on an
// otherwise empty daemon on b — and returns the reference output per program.
func soloOutputs(t *testing.T, b backend.Backend) map[string]string {
	t.Helper()
	names, srcs := corpusPrograms(b)
	m := newManager(harnessShape(Config{MaxActive: 1}), b)
	sessions := make([]*Session, len(names))
	for i, name := range names {
		sessions[i] = submit(t, m, Request{Tenant: "solo", Source: srcs[name]})
	}
	drainAll(t, m)
	out := make(map[string]string, len(names))
	for i, s := range sessions {
		if st, serr := s.State(); st != StateDone {
			t.Fatalf("%s solo run failed: state=%q err=%v", names[i], st, serr)
		}
		out[names[i]] = string(s.Output())
	}
	return out
}

// tenantSweep is the multi-tenant conformance sweep: the corpus submitted
// three times over by as many tenants into one daemon on b that runs eight
// sessions at once.  Every tenant's output must be byte-identical to the
// program's solo run — sessions sharing a process, a compile cache and a
// clock must not observe each other.  On the real backend the tenants submit
// from goroutines of their own; a sim.Scheduler takes them from the one
// driver goroutine.
//
// All three rounds go in at once, against a cold cache: the cache
// single-flights a source's first compile, so "one compile per distinct
// program" is exact no matter which session got there first.
// It returns what the daemon wrote to its History and Log writers.
func tenantSweep(t *testing.T, b backend.Backend, solo map[string]string) (history, log string) {
	t.Helper()
	const rounds = 3
	names, srcs := corpusPrograms(b)
	var hist, logs bytes.Buffer
	m := newManager(harnessShape(Config{
		MaxActive:     8,
		QueueDepth:    2 * rounds * len(names),
		TenantMetrics: true,
		History:       &hist,
		Log:           &logs,
	}), b)

	sessions := make([]*Session, rounds*len(names))
	var wg sync.WaitGroup
	for i := range sessions {
		submit := func() {
			s, err := m.Submit(Request{Tenant: fmt.Sprintf("t%d", i), Source: srcs[names[i%len(names)]]})
			if err != nil {
				t.Errorf("t%d: submit: %v", i, err)
			}
			sessions[i] = s
		}
		if b.Deterministic() {
			submit()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			submit()
		}()
	}
	wg.Wait()
	drainAll(t, m)
	if t.Failed() {
		t.FailNow()
	}
	for i, s := range sessions {
		name := names[i%len(names)]
		if st, serr := s.State(); st != StateDone {
			t.Errorf("t%d (%s): state=%q err=%v; want done", i, name, st, serr)
		} else if got := string(s.Output()); got != solo[name] {
			t.Errorf("t%d (%s): concurrent output differs from solo run\n--- solo ---\n%s--- concurrent ---\n%s",
				i, name, solo[name], got)
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
	return hist.String(), logs.String()
}

// TestConcurrentTenantConformance runs the tenant sweep on the real backend.
// Run under -race this is the isolation check on the compiled units that
// truly concurrent sessions share.
func TestConcurrentTenantConformance(t *testing.T) {
	solo := soloOutputs(t, backend.Default())
	// The one row whose reference needs pinning, not just comparing: on this
	// backend a session whose tasks end in fire-and-forget INITIATEs used to
	// race its own shutdown, and solo and concurrent runs could lose the same
	// child.
	if got, want := solo["lastinit.pf"], "MAIN STARTS\nCHILD RAN 7\nLEAF RAN 8\n"; got != want {
		t.Errorf("lastinit.pf solo session printed:\n%swant:\n%s", got, want)
	}
	tenantSweep(t, backend.Default(), solo)
}

// TestSimTenantConformance runs the tenant sweep, timeout.pf included, under
// seeds 1..8, twice per seed.  The journal is the seed's artefact: both runs
// of a seed write the same History and Log bytes, virtual times included,
// and the seeds do not all finish the sessions in one order.
func TestSimTenantConformance(t *testing.T) {
	orders := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		solo := soloOutputs(t, sim.New(seed))
		history, log := tenantSweep(t, sim.New(seed), solo)
		if history2, log2 := tenantSweep(t, sim.New(seed), solo); history2+log2 != history+log {
			t.Fatalf("seed %d: two runs wrote different journals\n--- first ---\n%s%s--- again ---\n%s%s",
				seed, history, log, history2, log2)
		}
		var order []string
		for _, line := range strings.Split(history, "\n") {
			var rec historyRecord
			if json.Unmarshal([]byte(line), &rec) == nil {
				order = append(order, rec.ID)
			}
		}
		orders[strings.Join(order, " ")] = true
	}
	if len(orders) < 2 {
		t.Error("every seed finished the sessions in the same order")
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

// quotaIsolation: one tenant with a deliberately tiny heap quota overflows
// it; the violation fails that tenant alone, and eight good tenants running
// alongside on b produce byte-identical output to their solo runs.
func quotaIsolation(t *testing.T, newBackend func() backend.Backend) {
	names, srcs := corpusPrograms(newBackend())
	solo := soloOutputs(t, newBackend())
	m := newManager(harnessShape(Config{MaxActive: 9, QueueDepth: 32}), newBackend())

	hog := submit(t, m, Request{Tenant: "hog", Source: hogSrc, Limits: core.Limits{HeapBytes: 8 << 10}})
	good := make([]*Session, 8)
	for i := range good {
		good[i] = submit(t, m, Request{Tenant: fmt.Sprintf("good%d", i), Source: srcs[names[i]]})
	}
	drainAll(t, m)

	var le *core.LimitError
	if st, herr := hog.State(); st != StateFailed || !errors.Is(herr, core.ErrLimitExceeded) || !errors.As(herr, &le) || le.Resource != core.LimitHeap {
		t.Fatalf("hog state = %q (err=%v); want failed on the heap limit", st, herr)
	}
	if out := string(hog.Output()); strings.Contains(out, "HOG SURVIVED") {
		t.Fatalf("hog printed its success line past a heap violation:\n%s", out)
	}

	for i, s := range good {
		if st, serr := s.State(); st != StateDone {
			t.Errorf("good%d (%s): state=%q err=%v; want done", i, names[i], st, serr)
			continue
		}
		if got := string(s.Output()); got != solo[names[i]] {
			t.Errorf("good%d (%s): output perturbed by the hog's violation\n--- solo ---\n%s--- shared ---\n%s",
				i, names[i], solo[names[i]], got)
		}
	}
	if m.mQuota.Load() != 1 {
		t.Errorf("quota counter = %d; want 1", m.mQuota.Load())
	}
}

func TestQuotaIsolation(t *testing.T) { quotaIsolation(t, backend.Default) }

// TestSimQuotaIsolation is TestQuotaIsolation under seeds 1..8.
func TestSimQuotaIsolation(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		quotaIsolation(t, func() backend.Backend { return sim.New(seed) })
	}
}
