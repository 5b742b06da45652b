package backend

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRealClockIsOneMonotonicRead: the goroutine backend's clock is the
// anchor's wall time plus the monotonic time since, so its readings never
// decrease — on any goroutine, in wall nanoseconds as in monotonic order —
// start at the wall clock, carry a monotonic part, and advance exactly as
// time.Since does.
func TestRealClockIsOneMonotonicRead(t *testing.T) {
	start := time.Now()
	first := Now()
	if skew := first.Round(0).Sub(start.Round(0)); skew < -5*time.Millisecond || skew > 5*time.Millisecond {
		t.Errorf("a reading is %v off the wall clock at test start, want within 5ms", skew)
	}
	if !strings.Contains(first.String(), " m=") {
		t.Errorf("a reading carries no monotonic part: %s", first)
	}
	if bn := Default().Now(); bn.Round(0).Sub(first.Round(0)) != bn.Sub(first) {
		t.Error("the goroutine backend's Now is not the package clock: its wall and monotonic readings drift apart")
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := Now()
			for i := 0; i < 100_000; i++ {
				now := Now()
				if now.Before(prev) || now.UnixNano() < prev.UnixNano() {
					t.Errorf("reading %d went backwards: %s after %s", i, now, prev)
					return
				}
				prev = now
			}
		}()
	}
	wg.Wait()

	a, sinceA := Now(), time.Since(start)
	time.Sleep(10 * time.Millisecond)
	sinceB, b := time.Since(start), Now()
	elapsed, since := b.Sub(a), sinceB-sinceA
	if elapsed < 10*time.Millisecond || elapsed < since || elapsed-since > 5*time.Millisecond {
		t.Errorf("over a 10ms sleep b.Sub(a) = %v, time.Since moved %v", elapsed, since)
	}
	if wall := b.Round(0).Sub(a.Round(0)); wall != elapsed {
		t.Errorf("wall readings moved %v where the monotonic ones moved %v: not one clock", wall, elapsed)
	}
}

// BenchmarkRealClock is the stamp every flight-recorder event and -stats
// timer pays on the goroutine backend; BenchmarkWallClock is the baseline it
// replaced.
func BenchmarkRealClock(b *testing.B) {
	for b.Loop() {
		Now()
	}
}

func BenchmarkWallClock(b *testing.B) {
	for b.Loop() {
		time.Now()
	}
}

// TestWaitTimeout: the timer a blocked WaitTimeout reuses never carries an
// expiry into the next wait.  A thousand rounds of timeout, pulse, timeout,
// where the pulse either stops a pending timer or wins a wait whose timer
// then expires before the waiter runs again — on one P, the scheduler runs
// expired timers before the woken waiter, so a timer channel with pre-1.23
// semantics (GODEBUG=asynctimerchan=1) holds a stale expiry after Stop, and
// the next wait returns at once.  Every timeout must wait its full duration.
func TestWaitTimeout(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const d = 100 * time.Microsecond
	e := Default().NewEvent()
	timeout := func(round int, what string) {
		t.Helper()
		t0 := Now()
		if e.WaitTimeout(d) {
			t.Fatalf("round %d: %s: WaitTimeout reported a pulse nobody sent", round, what)
		}
		if waited := Now().Sub(t0); waited < d {
			t.Fatalf("round %d: %s: WaitTimeout(%v) timed out after %v", round, what, d, waited)
		}
	}
	for round := 0; round < 1000; round++ {
		timeout(round, "first wait")
		go e.Pulse()
		if !e.WaitTimeout(time.Minute) {
			t.Fatalf("round %d: the pulse was lost", round)
		}
		// The pulse wins the wait, then the pulser holds the P until the
		// timer has expired.  Whichever the wait saw, the pulse is consumed
		// before the next one, by this wait or by WaitTimeout(0).
		t0, pulsed := Now(), make(chan struct{})
		go func() {
			e.Pulse()
			for Now().Sub(t0) < 2*d {
			}
			close(pulsed)
		}()
		if !e.WaitTimeout(d) {
			<-pulsed
			if !e.WaitTimeout(0) {
				t.Fatalf("round %d: a pulse racing the expiry was lost", round)
			}
		}
		<-pulsed
		timeout(round, "wait after a pulse outran the expiry")
	}
}

// TestEventPulseMemory: a pulse delivered with no waiter is consumed by the
// next wait (the lost-wakeup guarantee ACCEPT depends on), and pulses
// collapse rather than accumulate.
func TestEventPulseMemory(t *testing.T) {
	e := Default().NewEvent()
	e.Pulse()
	e.Pulse() // collapses into the pending one
	if !e.WaitTimeout(0) {
		t.Fatal("pending pulse not consumed by WaitTimeout")
	}
	if e.WaitTimeout(time.Millisecond) {
		t.Fatal("second wait consumed a pulse that should have collapsed")
	}
}

// TestEventWake: a waiter blocked in Wait is woken by Pulse.
func TestEventWake(t *testing.T) {
	e := Default().NewEvent()
	done := make(chan bool, 1)
	go func() { done <- e.WaitTimeout(5 * time.Second) }()
	time.Sleep(time.Millisecond)
	e.Pulse()
	if !<-done {
		t.Fatal("waiter reported timeout despite pulse")
	}
}

// TestGate: one-shot broadcast semantics, idempotent Open, WaitOr on either
// gate.
func TestGate(t *testing.T) {
	b := Default()
	g := b.NewGate()
	if g.IsOpen() {
		t.Fatal("fresh gate open")
	}
	g.Open()
	g.Open() // idempotent
	if !g.IsOpen() {
		t.Fatal("opened gate not open")
	}
	g.Wait() // must not block

	a, o := b.NewGate(), b.NewGate()
	done := make(chan struct{})
	go func() { a.WaitOr(o); close(done) }()
	o.Open()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitOr did not return when the other gate opened")
	}
}

// TestSemDoubleRelease: the token protocol LOCK variables rely on — Release
// of a free semaphore reports false.
func TestSemDoubleRelease(t *testing.T) {
	s := Default().NewSem()
	if !s.TryAcquire() {
		t.Fatal("fresh sem token unavailable")
	}
	if s.TryAcquire() {
		t.Fatal("second TryAcquire got the held token")
	}
	if !s.Release() {
		t.Fatal("release of held token failed")
	}
	if s.Release() {
		t.Fatal("double release succeeded")
	}
}

// TestTimer: AfterFunc fires, Stop prevents firing.
func TestTimer(t *testing.T) {
	b := Default()
	fired := make(chan struct{})
	b.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("AfterFunc never fired")
	}
	stopped := b.AfterFunc(time.Hour, func() { t.Error("stopped timer fired") })
	if !stopped.Stop() {
		t.Fatal("Stop of pending timer reported false")
	}
}
