package mmos

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/flex"
	"repro/internal/sim"
)

// newKernel returns a kernel on the goroutine backend and the machine whose
// PEs its processes are spawned on.
func newKernel(t testing.TB) (*Kernel, *flex.Machine) {
	t.Helper()
	return NewKernelOn(backend.Default()), flex.MustNewMachine(flex.DefaultConfig())
}

// backends runs f once on each scheduling backend: the goroutine one and a
// seeded deterministic scheduler.
func backends(t *testing.T, f func(t *testing.T, b backend.Backend)) {
	t.Run("goroutine", func(t *testing.T) { f(t, backend.Default()) })
	t.Run("sim", func(t *testing.T) { f(t, sim.New(1)) })
}

func TestSpawnRunsBody(t *testing.T) {
	k, m := newKernel(t)
	pe := m.PE(3)
	var ran atomic.Bool
	p, err := k.Spawn(pe, "worker", 0, func(p *Proc) {
		ran.Store(true)
		p.Charge(5)
	})
	if err != nil {
		t.Fatal(err)
	}
	p.WaitExited()
	if !ran.Load() {
		t.Fatal("body did not run")
	}
	if p.State() != Exited {
		t.Fatalf("state = %v, want Exited", p.State())
	}
	if pe.Ticks() < 5 {
		t.Fatalf("ticks = %d, want >= 5", pe.Ticks())
	}
	if n := pe.BoundProcs(); n != 0 {
		t.Fatalf("%d procs bound to the PE after the only one exited", n)
	}
}

func TestSpawnOnUnixPERejected(t *testing.T) {
	k, m := newKernel(t)
	if _, err := k.Spawn(m.PE(1), "bad", 0, func(*Proc) {}); err == nil {
		t.Fatal("spawn on Unix PE should fail")
	}
	if _, err := k.Spawn(nil, "bad", 0, func(*Proc) {}); err == nil {
		t.Fatal("spawn on nil PE should fail")
	}
}

func TestSpawnChargesLocalMemory(t *testing.T) {
	k, m := newKernel(t)
	pe := m.PE(4)
	release := make(chan struct{})
	p, err := k.Spawn(pe, "holder", 4096, func(p *Proc) {
		p.BlockFn(func() { <-release })
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the process to block so memory is definitely charged.
	waitState(t, p, Blocked)
	used, _ := pe.LocalStats()
	if used != 4096 {
		t.Fatalf("local used = %d, want 4096", used)
	}
	close(release)
	p.WaitExited()
	used, _ = pe.LocalStats()
	if used != 0 {
		t.Fatalf("local used after exit = %d, want 0", used)
	}

	// A spawn whose local memory cannot be satisfied must fail cleanly.
	if _, err := k.Spawn(pe, "huge", flex.LocalMemoryBytes+1, func(*Proc) {}); err == nil {
		t.Fatal("expected local memory exhaustion at spawn")
	}
}

func waitState(t *testing.T, p *Proc, want State) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("process on PE %d never reached state %v (now %v)", p.pe.ID(), want, p.State())
}

// TestSinglePEMultiprogramming verifies that two processes bound to the same
// PE never execute simultaneously: the observed concurrency inside the
// critical body is always 1.
func TestSinglePEMultiprogramming(t *testing.T) {
	k, m := newKernel(t)
	pe := m.PE(5)
	var inside, maxInside atomic.Int32
	var wg sync.WaitGroup
	body := func(p *Proc) {
		for i := 0; i < 50; i++ {
			cur := inside.Add(1)
			for {
				prev := maxInside.Load()
				if cur <= prev || maxInside.CompareAndSwap(prev, cur) {
					break
				}
			}
			inside.Add(-1)
			p.Yield()
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		p, err := k.Spawn(pe, "mp", 0, func(p *Proc) { defer wg.Done(); body(p) })
		if err != nil {
			t.Fatal(err)
		}
		_ = p
	}
	wg.Wait()
	if maxInside.Load() != 1 {
		t.Fatalf("observed %d processes running simultaneously on one PE", maxInside.Load())
	}
}

// TestTwoPEsRunConcurrently verifies that processes on different PEs can
// overlap in time.
func TestTwoPEsRunConcurrently(t *testing.T) {
	k, m := newKernel(t)
	var both sync.WaitGroup
	both.Add(2)
	barrier := make(chan struct{})
	meet := func(p *Proc) {
		both.Done()
		p.BlockFn(func() { <-barrier })
	}
	p1, err := k.Spawn(m.PE(3), "a", 0, meet)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := k.Spawn(m.PE(4), "b", 0, meet)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { both.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("processes on different PEs failed to run concurrently")
	}
	close(barrier)
	p1.WaitExited()
	p2.WaitExited()
}

// TestCPUExclusion holds each PE's CPU to one process at a time on both
// backends: two processes on one PE each hold the CPU across a scheduling
// point of the backend, and neither ever finds the other inside.
func TestCPUExclusion(t *testing.T) {
	backends(t, func(t *testing.T, b backend.Backend) {
		k := NewKernelOn(b)
		pe := flex.MustNewMachine(flex.DefaultConfig()).PE(5)
		var inside atomic.Int32
		var overlaps atomic.Int32
		body := func(p *Proc) {
			for i := 0; i < 50; i++ {
				if inside.Add(1) != 1 {
					overlaps.Add(1)
				}
				b.Yield()
				runtime.Gosched()
				inside.Add(-1)
				p.Yield()
			}
		}
		var ps []*Proc
		for i := 0; i < 2; i++ {
			p, err := k.Spawn(pe, fmt.Sprintf("holder%d", i), 0, body)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		for _, p := range ps {
			p.WaitExited()
		}
		if n := overlaps.Load(); n != 0 {
			t.Fatalf("two processes held PE %d's CPU at once %d times", pe.ID(), n)
		}
	})
}

// TestCPUMutualExclusionConcurrent counts in a plain variable that only the
// PE's CPU guards (the race detector watches it): eight processes, 200
// increments each, none lost.
func TestCPUMutualExclusionConcurrent(t *testing.T) {
	backends(t, func(t *testing.T, b backend.Backend) {
		k := NewKernelOn(b)
		pe := flex.MustNewMachine(flex.DefaultConfig()).PE(3)
		const workers, iters = 8, 200
		counter := 0
		var ps []*Proc
		for w := 0; w < workers; w++ {
			p, err := k.Spawn(pe, "counter", 0, func(p *Proc) {
				for i := 0; i < iters; i++ {
					counter++
					p.Yield() // one tick
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		for _, p := range ps {
			p.WaitExited()
		}
		if counter != workers*iters {
			t.Fatalf("counter = %d, want %d (the CPU did not exclude)", counter, workers*iters)
		}
		if pe.Ticks() != workers*iters {
			t.Fatalf("ticks = %d, want %d", pe.Ticks(), workers*iters)
		}
	})
}

// TestReleaseWithoutHoldPanics releases a PE's CPU twice from one process:
// the second release panics and names the PE.
func TestReleaseWithoutHoldPanics(t *testing.T) {
	backends(t, func(t *testing.T, b backend.Backend) {
		k := NewKernelOn(b)
		pe := flex.MustNewMachine(flex.DefaultConfig()).PE(4)
		var got any
		p, err := k.Spawn(pe, "releaser", 0, func(p *Proc) {
			defer func() { got = recover() }()
			p.releaseCPU()
			p.releaseCPU()
		})
		if err != nil {
			t.Fatal(err)
		}
		p.WaitExited()
		if msg, _ := got.(string); !strings.Contains(msg, "PE 4 ") {
			t.Fatalf("double release: recovered %v, want a panic naming PE 4", got)
		}
	})
}

func TestBlockReleasesCPU(t *testing.T) {
	k, m := newKernel(t)
	pe := m.PE(6)
	wake := make(chan struct{})
	blocker, err := k.Spawn(pe, "blocker", 0, func(p *Proc) {
		p.BlockFn(func() { <-wake })
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, Blocked)

	// While the first process is blocked, another process on the same PE
	// must be able to run to completion.
	var ran atomic.Bool
	runner, err := k.Spawn(pe, "runner", 0, func(p *Proc) { ran.Store(true) })
	if err != nil {
		t.Fatal(err)
	}
	runner.WaitExited()
	if !ran.Load() {
		t.Fatal("second process did not run while first was blocked")
	}
	close(wake)
	blocker.WaitExited()
}

func TestProcsViews(t *testing.T) {
	k, m := newKernel(t)
	release := make(chan struct{})
	var ps []*Proc
	for i := 0; i < 3; i++ {
		p, err := k.Spawn(m.PE(3+i), "view", 0, func(p *Proc) {
			p.BlockFn(func() { <-release })
		})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		waitState(t, p, Blocked)
	}
	for i := 0; i < 3; i++ {
		if got := m.PE(3 + i).BoundProcs(); got != 1 {
			t.Fatalf("bound procs on PE %d = %d, want 1", 3+i, got)
		}
	}
	close(release)
	for i, p := range ps {
		p.WaitExited()
		if p.State() != Exited {
			t.Fatalf("state after exit = %v, want Exited", p.State())
		}
		if got := m.PE(3 + i).BoundProcs(); got != 0 {
			t.Fatalf("bound procs on PE %d after exit = %d, want 0", 3+i, got)
		}
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{Ready: "READY", Running: "RUNNING", Blocked: "BLOCKED", Exited: "EXITED", State(99): "State(99)"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func BenchmarkSpawnExit(b *testing.B) {
	k, m := newKernel(b)
	pe := m.PE(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := k.Spawn(pe, "bench", 0, func(*Proc) {})
		if err != nil {
			b.Fatal(err)
		}
		p.WaitExited()
	}
}

func BenchmarkYield(b *testing.B) {
	k, m := newKernel(b)
	pe := m.PE(3)
	done := make(chan struct{})
	_, err := k.Spawn(pe, "bench", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
		close(done)
	})
	if err != nil {
		b.Fatal(err)
	}
	<-done
}
