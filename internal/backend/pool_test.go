package backend

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"
)

// idleCount is the length of b's idle list.
func idleCount(b *goroutineBackend) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.idle)
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// newTestBackend returns a fresh goroutine backend whose parked workers are
// made to exit when the test ends, and waits until they have, so that no
// test counts another's goroutines.
func newTestBackend(t *testing.T) *goroutineBackend {
	b := &goroutineBackend{}
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		b.mu.Lock()
		idle := b.idle
		b.idle = nil
		b.mu.Unlock()
		for _, w := range idle {
			w <- runtime.Goexit
		}
		waitFor(t, "the parked workers exit", func() bool { return runtime.NumGoroutine() <= base })
	})
	return b
}

// goroutineID is the calling goroutine's number, read from its stack header
// ("goroutine 42 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// TestSequentialSpawnsShareOneWorker: a process spawned after the previous
// one finished and its goroutine parked runs on that goroutine, so a chain
// of processes grows one stack, not one each.
func TestSequentialSpawnsShareOneWorker(t *testing.T) {
	b := newTestBackend(t)
	ran := make(chan string, 1)
	var first string
	for i := 0; i < 10; i++ {
		b.Spawn("seq", func() { ran <- goroutineID() })
		id := <-ran
		waitFor(t, "the worker parks", func() bool { return idleCount(b) == 1 })
		if i == 0 {
			first = id
		} else if id != first {
			t.Fatalf("spawn %d ran on goroutine %s, the first on %s", i, id, first)
		}
	}
}

// TestIdleWorkersAreCapped: a burst of maxIdleWorkers+16 processes that
// are all running at once, then all finish, leaves at most maxIdleWorkers
// goroutines parked; the rest exit.
func TestIdleWorkersAreCapped(t *testing.T) {
	b := newTestBackend(t)
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	var started, finished sync.WaitGroup
	const burst = maxIdleWorkers + 16
	started.Add(burst)
	finished.Add(burst)
	for i := 0; i < burst; i++ {
		b.Spawn("burst", func() {
			started.Done()
			<-release
			finished.Done()
		})
	}
	started.Wait()
	close(release)
	finished.Wait()
	// Every worker has either parked or exited once the live count above
	// the base is no more than the idle count.
	waitFor(t, "every worker parks or exits", func() bool {
		return runtime.NumGoroutine()-base <= idleCount(b)
	})
	if n := idleCount(b); n > maxIdleWorkers {
		t.Fatalf("%d workers idle after a burst of %d, cap %d", n, burst, maxIdleWorkers)
	}
}

// held is a finished process's captured state, large enough to be its own
// heap object.
type held struct{ payload [256]byte }

// spawnHolding spawns a process whose fn captures a fresh object, waits
// for it to run, and returns a weak pointer to the object.
func spawnHolding(b *goroutineBackend) weak.Pointer[held] {
	obj := new(held)
	done := make(chan struct{})
	b.Spawn("pin", func() {
		obj.payload[0] = 1
		close(done)
	})
	<-done
	return weak.Make(obj)
}

// TestIdleWorkerPinsNothing: an object a finished process captured is
// collectable while its worker is parked, whether that worker was started
// for the process or reused for it.  A parked worker holding its last fn
// would keep a finished session's whole VM alive.
func TestIdleWorkerPinsNothing(t *testing.T) {
	b := newTestBackend(t)
	for _, path := range []string{"started", "reused"} {
		wp := spawnHolding(b)
		waitFor(t, "the worker parks", func() bool { return idleCount(b) == 1 })
		runtime.GC()
		runtime.GC()
		if wp.Value() != nil {
			t.Fatalf("a %s worker parked holding its finished fn's captured object", path)
		}
	}
}
