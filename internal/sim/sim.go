// Package sim is the deterministic simulation backend for the PISCES
// run-time: a cooperative, single-threaded scheduler in which at most one
// task executes at any moment, the next runnable task is chosen by a seeded
// PRNG, and a virtual clock replaces wall time.  Running the same program
// with the same seed reproduces the same interleaving — and therefore the
// same output, the same trace event order, and the same TIMEDOUT decisions —
// byte for byte; sweeping seeds explores distinct legal schedules.
//
// # Execution model
//
// Tasks still run on goroutines (task bodies are arbitrary Go functions and
// cannot be re-entered piecemeal), but a strict baton protocol serialises
// them: a task goroutine only executes between receiving a grant from the
// scheduler and handing the baton back at its next blocking point, so there
// is no actual parallelism and no data race between tasks.
//
// Two calling contexts exist.  Code inside a spawned task parks itself on a
// primitive and hands the baton back.  The external driver — the test or CLI
// goroutine that booted the VM and calls blocking VM APIs like WaitTask — is
// not a task; its waits pump the scheduler loop (pick a ready task, grant,
// wait for the baton) until the awaited condition holds.  A deterministic run
// therefore requires a single driver goroutine; this is the natural shape of
// every test and of `pisces run`.
//
// # Virtual time
//
// The clock never advances while any task is runnable.  When every task is
// parked and the awaited condition still does not hold, the scheduler jumps
// the clock to the earliest pending timer and fires it (an ACCEPT DELAY
// expiring, the run time limit).  Timeouts thus fire exactly when the system
// has quiesced, which makes TIMEDOUT schedule-independent for programs whose
// message flow does not race their own delays — and instant, regardless of
// how many wall-clock seconds the DELAY names.
//
// # Deadlocks
//
// If no task is runnable, no timer is pending, and the driver's condition is
// still unsatisfied, the run can never proceed.  The scheduler panics with a
// *Deadlock carrying the seed and every parked task's name and wait state;
// harnesses recover it and report the seed for replay.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/backend"
)

// epoch is the virtual clock's start: the month the ICPP'87 paper appeared.
var epoch = time.Date(1987, time.August, 1, 0, 0, 0, 0, time.UTC)

// Deadlock is the panic value raised when the simulation can make no further
// progress.  It is a panic rather than an error because it surfaces from
// arbitrary blocking points deep inside the run-time; conformance harnesses
// recover it.
type Deadlock struct {
	Seed int64
	// Tasks lists the parked tasks as "name [state]" strings.
	Tasks []string
	// Waiting describes what the external driver was waiting for.
	Waiting string
}

func (d *Deadlock) Error() string {
	return fmt.Sprintf("sim: deadlock (seed %d) while driver waits for %s; parked tasks: %s",
		d.Seed, d.Waiting, strings.Join(d.Tasks, ", "))
}

// Scheduler is the deterministic backend.  Create one with New and pass it
// in core.Options.Backend.  The VMs of one in-process mesh may share one
// scheduler — their tasks then interleave in one seeded schedule — driven,
// like a single VM, from one goroutine.
type Scheduler struct {
	mu   sync.Mutex
	seed int64
	rng  *rand.Rand
	now  time.Time

	ready    []*task
	current  *task
	handback chan struct{}

	timers   timerHeap
	timerSeq int

	taskSeq int
	live    map[int]*task

	// waiting names the condition the driver is currently pumping for, for
	// deadlock reports.
	waiting string

	// dead poisons the scheduler after a deadlock: parked tasks can never be
	// resumed coherently, so later driver waits re-raise the deadlock instead
	// of hanging (a recovering harness's deferred Shutdown hits this path).
	dead *Deadlock

	steps int64
}

// New returns a deterministic scheduler seeded with seed.
func New(seed int64) *Scheduler {
	return &Scheduler{
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		now:      epoch,
		handback: make(chan struct{}),
		live:     make(map[int]*task),
	}
}

// Seed returns the seed the scheduler was created with.
func (s *Scheduler) Seed() int64 { return s.seed }

// Steps returns the number of scheduling decisions taken so far, a cheap
// fingerprint of how much work a run performed.
func (s *Scheduler) Steps() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steps
}

// task is one spawned task under the scheduler's control.
type task struct {
	id    int
	name  string
	grant chan struct{}
	// parked is true while the task is handed back and waiting on a
	// primitive (not in the ready set, not running).
	parked bool
	// waitSeq invalidates stale waiter registrations: a primitive may hold a
	// reference to a task from an earlier wait (a barrier waiting on both
	// allIn and aborted, say); the wake is honoured only if the sequence
	// still matches.
	waitSeq  uint64
	signaled bool
	state    string
}

// waiterRef identifies one registered wait of one task.
type waiterRef struct {
	t   *task
	seq uint64
}

// ---------------------------------------------------------------------------
// Backend interface

// Spawn registers fn as a new task, initially ready.  It never runs before
// the current task blocks or the driver pumps.
func (s *Scheduler) Spawn(name string, fn func()) {
	s.mu.Lock()
	s.taskSeq++
	t := &task{id: s.taskSeq, name: name, grant: make(chan struct{}), state: "ready"}
	s.live[t.id] = t
	s.ready = append(s.ready, t)
	s.mu.Unlock()

	go func() {
		<-t.grant
		fn()
		s.mu.Lock()
		t.state = "exited"
		delete(s.live, t.id)
		s.current = nil
		s.mu.Unlock()
		s.handback <- struct{}{}
	}()
}

// NewEvent returns a deterministic pulse event.
func (s *Scheduler) NewEvent() backend.Event { return &simEvent{s: s} }

// NewGate returns a deterministic one-shot gate.
func (s *Scheduler) NewGate() backend.Gate { return &simGate{s: s} }

// NewSem returns a deterministic binary semaphore with its token available.
func (s *Scheduler) NewSem() backend.Sem { return &simSem{s: s, avail: true} }

// NewWaitGroup returns a deterministic wait group.
func (s *Scheduler) NewWaitGroup() backend.WaitGroup { return &simWG{s: s} }

// NewCond returns a deterministic condition variable over l.
func (s *Scheduler) NewCond(l sync.Locker) backend.Cond { return &simCond{s: s, l: l} }

// AfterFunc schedules fn on the virtual clock.
func (s *Scheduler) AfterFunc(d time.Duration, fn func()) backend.Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &simTimer{s: s, e: s.addTimerLocked(d, false, fn)}
}

// Now returns the virtual clock reading.
func (s *Scheduler) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Yield re-enters the calling task into the ready set and lets the scheduler
// pick the next runner (possibly the same task).  Called from the driver it
// is a no-op.
func (s *Scheduler) Yield() {
	s.mu.Lock()
	t := s.current
	if t == nil {
		s.mu.Unlock()
		return
	}
	s.ready = append(s.ready, t)
	s.parkLocked(t, "ready")
	s.mu.Unlock()
}

// Deterministic reports true.
func (s *Scheduler) Deterministic() bool { return true }

// ---------------------------------------------------------------------------
// Scheduling core

// parkLocked hands the baton from the current task back to the driver and
// blocks until the task is granted again.  Callers hold s.mu and must have
// registered the task with whatever will wake it; s.mu is re-held on return.
func (s *Scheduler) parkLocked(t *task, state string) {
	t.state = state
	s.current = nil
	s.mu.Unlock()
	s.handback <- struct{}{}
	<-t.grant
	s.mu.Lock()
}

// beginWaitLocked starts a new wait of the current task and returns its
// registration reference.  It panics when called outside a task: primitives
// that support driver-side waiting handle that case themselves.
func (s *Scheduler) beginWaitLocked(what string) waiterRef {
	t := s.current
	if t == nil {
		panic("sim: " + what + " outside a scheduled task (blocking primitive used from a second driver goroutine?)")
	}
	t.waitSeq++
	t.parked = true
	t.signaled = false
	return waiterRef{t: t, seq: t.waitSeq}
}

// wakeLocked moves a registered waiter to the ready set.  It reports false
// for stale registrations (the task was woken by something else since).
func (s *Scheduler) wakeLocked(w waiterRef, signaled bool) bool {
	if !w.t.parked || w.t.waitSeq != w.seq {
		return false
	}
	w.t.parked = false
	w.t.signaled = signaled
	w.t.state = "ready"
	s.ready = append(s.ready, w.t)
	return true
}

// stepLocked performs one scheduling decision: run one ready task until it
// hands the baton back, or fire the earliest timer.  It reports false when
// neither is possible.  s.mu is held on entry and exit but released while a
// task runs.
func (s *Scheduler) stepLocked() bool {
	s.steps++
	if len(s.ready) > 0 {
		i := 0
		if len(s.ready) > 1 {
			i = s.rng.Intn(len(s.ready))
		}
		t := s.ready[i]
		s.ready = append(s.ready[:i], s.ready[i+1:]...)
		t.state = "running"
		s.current = t
		s.mu.Unlock()
		t.grant <- struct{}{}
		<-s.handback
		s.mu.Lock()
		return true
	}
	for s.timers.Len() > 0 {
		e := heap.Pop(&s.timers).(*timerEntry)
		if e.canceled {
			continue
		}
		e.fired = true
		if e.at.After(s.now) {
			s.now = e.at
		}
		if e.locked {
			e.fn()
		} else {
			fn := e.fn
			s.mu.Unlock()
			fn()
			s.mu.Lock()
		}
		return true
	}
	return false
}

// runUntilLocked pumps the scheduler on behalf of the external driver until
// cond (evaluated with s.mu held) is true, panicking with a *Deadlock when no
// progress is possible.  The panic is raised with s.mu released so that
// recovering code can still call (poisoned) scheduler operations.
func (s *Scheduler) runUntilLocked(what string, cond func() bool) {
	prev := s.waiting
	s.waiting = what
	for !cond() {
		if s.dead != nil {
			d := s.dead
			s.mu.Unlock()
			panic(d)
		}
		if !s.stepLocked() {
			d := s.deadlockLocked()
			s.dead = d
			s.mu.Unlock()
			panic(d)
		}
	}
	s.waiting = prev
}

// deadlockLocked builds the deadlock report.  Callers hold s.mu.
func (s *Scheduler) deadlockLocked() *Deadlock {
	d := &Deadlock{Seed: s.seed, Waiting: s.waiting}
	if d.Waiting == "" {
		d.Waiting = "(unnamed condition)"
	}
	ids := make([]int, 0, len(s.live))
	for id := range s.live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		t := s.live[id]
		d.Tasks = append(d.Tasks, fmt.Sprintf("%s [%s]", t.name, t.state))
	}
	return d
}

// ---------------------------------------------------------------------------
// Timers

type timerEntry struct {
	at       time.Time
	seq      int
	canceled bool
	fired    bool
	// locked timers run with s.mu held (internal wait timeouts); unlocked
	// ones run user callbacks with the lock released.
	locked bool
	fn     func()
}

type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timerEntry)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// addTimerLocked registers a timer d from virtual-now.  Callers hold s.mu.
func (s *Scheduler) addTimerLocked(d time.Duration, locked bool, fn func()) *timerEntry {
	if d < 0 {
		d = 0
	}
	s.timerSeq++
	e := &timerEntry{at: s.now.Add(d), seq: s.timerSeq, locked: locked, fn: fn}
	heap.Push(&s.timers, e)
	return e
}

type simTimer struct {
	s *Scheduler
	e *timerEntry
}

func (t *simTimer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.e.fired || t.e.canceled {
		return false
	}
	t.e.canceled = true
	return true
}

// ---------------------------------------------------------------------------
// Event

type simEvent struct {
	s       *Scheduler
	pending bool
	hasW    bool
	w       waiterRef
	tm      *timerEntry
}

func (e *simEvent) Pulse() {
	s := e.s
	s.mu.Lock()
	if e.hasW {
		w := e.w
		e.hasW = false
		if e.tm != nil {
			e.tm.canceled = true
			e.tm = nil
		}
		s.wakeLocked(w, true)
	} else {
		e.pending = true
	}
	s.mu.Unlock()
}

func (e *simEvent) Wait() { e.WaitTimeout(-1) }

func (e *simEvent) WaitTimeout(d time.Duration) bool {
	s := e.s
	s.mu.Lock()
	if e.pending {
		e.pending = false
		s.mu.Unlock()
		return true
	}
	ref := s.beginWaitLocked("Event.Wait")
	e.w, e.hasW = ref, true
	if d >= 0 {
		e.tm = s.addTimerLocked(d, true, func() {
			if e.hasW && e.w == ref {
				e.hasW = false
				e.tm = nil
				s.wakeLocked(ref, false)
			}
		})
	}
	s.parkLocked(ref.t, "event-wait")
	ok := ref.t.signaled
	s.mu.Unlock()
	return ok
}

// ---------------------------------------------------------------------------
// Gate

type simGate struct {
	s       *Scheduler
	open    bool
	waiters []waiterRef
}

func (g *simGate) Open() {
	s := g.s
	s.mu.Lock()
	if !g.open {
		g.open = true
		for _, w := range g.waiters {
			s.wakeLocked(w, true)
		}
		g.waiters = nil
	}
	s.mu.Unlock()
}

func (g *simGate) IsOpen() bool {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.open
}

func (g *simGate) Wait() {
	s := g.s
	s.mu.Lock()
	switch {
	case g.open:
	case s.current == nil:
		s.runUntilLocked("gate", func() bool { return g.open })
	default:
		ref := s.beginWaitLocked("Gate.Wait")
		g.waiters = append(g.waiters, ref)
		s.parkLocked(ref.t, "gate-wait")
	}
	s.mu.Unlock()
}

func (g *simGate) WaitOr(other backend.Gate) {
	o := other.(*simGate)
	s := g.s
	s.mu.Lock()
	switch {
	case g.open || o.open:
	case s.current == nil:
		s.runUntilLocked("gate", func() bool { return g.open || o.open })
	default:
		ref := s.beginWaitLocked("Gate.WaitOr")
		g.waiters = append(g.waiters, ref)
		o.waiters = append(o.waiters, ref)
		s.parkLocked(ref.t, "gate-wait")
	}
	s.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Sem

type simSem struct {
	s       *Scheduler
	avail   bool
	waiters []waiterRef
}

func (m *simSem) TryAcquire() bool {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	if m.avail {
		m.avail = false
		return true
	}
	return false
}

func (m *simSem) Acquire() {
	s := m.s
	s.mu.Lock()
	if m.avail {
		m.avail = false
		s.mu.Unlock()
		return
	}
	ref := s.beginWaitLocked("Sem.Acquire")
	m.waiters = append(m.waiters, ref)
	s.parkLocked(ref.t, "sem-wait")
	// The releaser transferred the token to us directly.
	s.mu.Unlock()
}

func (m *simSem) Release() bool {
	s := m.s
	s.mu.Lock()
	defer s.mu.Unlock()
	// Hand the token to the first still-valid waiter, FIFO, so lock holders
	// rotate deterministically; scheduling diversity comes from the ready-set
	// PRNG pick, not from racing the token.
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		if s.wakeLocked(w, true) {
			return true
		}
	}
	if m.avail {
		return false
	}
	m.avail = true
	return true
}

// ---------------------------------------------------------------------------
// WaitGroup

type simWG struct {
	s       *Scheduler
	n       int
	waiters []waiterRef
}

func (w *simWG) Add(delta int) {
	s := w.s
	s.mu.Lock()
	w.n += delta
	if w.n < 0 {
		s.mu.Unlock()
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		for _, ref := range w.waiters {
			s.wakeLocked(ref, true)
		}
		w.waiters = nil
	}
	s.mu.Unlock()
}

func (w *simWG) Done() { w.Add(-1) }

func (w *simWG) Wait() {
	s := w.s
	s.mu.Lock()
	switch {
	case w.n == 0:
	case s.current == nil:
		s.runUntilLocked("waitgroup", func() bool { return w.n == 0 })
	default:
		ref := s.beginWaitLocked("WaitGroup.Wait")
		w.waiters = append(w.waiters, ref)
		s.parkLocked(ref.t, "waitgroup-wait")
	}
	s.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Cond

// simCond parks its waiters on the scheduler.  The lock is released only
// once the waiter is registered, and no other task runs until the waiter
// parks, so no wake-up falls between the two.  A driver-side Wait pumps the
// scheduler until a Signal or Broadcast reaches it.
type simCond struct {
	s       *Scheduler
	l       sync.Locker
	waiters []waiterRef
	drivers []*bool
}

func (c *simCond) Wait() {
	s := c.s
	s.mu.Lock()
	if s.current == nil {
		woken := false
		c.drivers = append(c.drivers, &woken)
		c.l.Unlock()
		// A deadlock panics out of the pump: the caller gets its lock back.
		defer c.l.Lock()
		s.runUntilLocked("cond", func() bool { return woken })
		s.mu.Unlock()
		return
	}
	ref := s.beginWaitLocked("Cond.Wait")
	c.waiters = append(c.waiters, ref)
	c.l.Unlock()
	s.parkLocked(ref.t, "cond-wait")
	s.mu.Unlock()
	c.l.Lock()
}

func (c *simCond) Signal() { c.wake(false) }

func (c *simCond) Broadcast() { c.wake(true) }

// wake readies the first waiter, or every one, in arrival order.
func (c *simCond) wake(all bool) {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		if s.wakeLocked(w, true) && !all {
			return
		}
	}
	for _, woken := range c.drivers {
		*woken = true
	}
	c.drivers = nil
}
