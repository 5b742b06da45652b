// Package backend defines the scheduling substrate the PISCES run-time
// executes on.  Every point where the run-time creates concurrency (spawning
// an MMOS process) or blocks (an ACCEPT wait, a barrier, a lock, waiting for
// an initiation reply or a terminated task) goes through a Backend, so the
// whole virtual machine can be lifted off raw goroutines and onto a
// deterministic scheduler without touching the run-time's logic.
//
// Two implementations exist:
//
//   - the goroutine backend in this package (the default), which maps every
//     primitive onto the same channel constructions the run-time used before
//     the backend existed — buffered-channel pulse events, closed-channel
//     gates, real timers — and runs each MMOS process on a goroutine of its
//     own, where a finished process's goroutine runs the next one;
//   - the cooperative single-threaded scheduler in internal/sim, which runs
//     at most one task at a time, picks the next runnable task with a seeded
//     PRNG, and replaces wall-clock timeouts with a virtual clock, making
//     every run with the same seed byte-identical.
//
// The primitives are deliberately small and usage-shaped rather than fully
// general:
//
//   - Event is a single-waiter pulse with memory (the in-queue wake and kill
//     notification of one task);
//   - Gate is a one-shot broadcast (task done, barrier phases, force abort,
//     initiation replies);
//   - Sem is a binary semaphore (LOCK variables, the per-PE CPU);
//   - WaitGroup counts outstanding work (user tasks, force members);
//   - Cond is a condition variable over a Go lock (a node's lanes, stages
//     and waits on its peers).
//
// A deterministic backend distinguishes two calling contexts: code running
// inside a spawned task, and the external "driver" (the test, the CLI, the
// interpreter's Run loop) that booted the VM.  Driver-side waits pump the
// scheduler until the condition holds; task-side waits park the task and hand
// control back to the scheduler.  The goroutine backend has no such
// distinction — everything simply blocks.
package backend

import (
	"sync"
	"time"
)

// Backend is a scheduling substrate: it spawns tasks and manufactures the
// blocking primitives they synchronise with.
type Backend interface {
	// Spawn starts fn as a new concurrently scheduled task.  The name is
	// used for diagnostics (deadlock reports, displays).
	Spawn(name string, fn func())
	// NewEvent returns a fresh pulse event (single waiter).
	NewEvent() Event
	// NewGate returns a fresh one-shot broadcast gate.
	NewGate() Gate
	// NewSem returns a fresh binary semaphore with its token available.
	NewSem() Sem
	// NewWaitGroup returns a fresh wait group.
	NewWaitGroup() WaitGroup
	// NewCond returns a condition variable over l.
	NewCond(l sync.Locker) Cond
	// AfterFunc arranges for fn to run once after duration d (virtual time
	// under a deterministic backend).
	AfterFunc(d time.Duration, fn func()) Timer
	// Now returns the current time: the real clock (the package's Now) for
	// the goroutine backend, the virtual clock for a deterministic one.
	Now() time.Time
	// Yield offers a scheduling point: under a deterministic backend the
	// calling task re-enters the ready set and another task may be picked;
	// the goroutine backend lets the Go scheduler decide.
	Yield()
	// Deterministic reports whether this backend serialises execution and
	// virtualises time (the sim backend).  The one run-time path that asks
	// is the interpreter's per-statement yield, which only a serialising
	// backend needs.
	Deterministic() bool
}

// Event is a pulse notification with one-deep memory, used where exactly one
// task waits: a Pulse delivered while nobody waits is remembered and consumed
// by the next Wait.  Multiple pulses collapse into one, so waiters must
// re-check their condition in a loop, exactly as with a buffered(1) channel.
//
// Pulse may be called from any goroutine, but Wait and WaitTimeout are the
// one waiter's: no two of them may run at once on the same event.  The
// goroutine backend relies on that to keep a single timer per event for
// WaitTimeout — the task's in-queue wake, which only the task itself waits on.
type Event interface {
	// Pulse wakes the waiter if there is one, else marks the event pending.
	Pulse()
	// Wait blocks until a pulse is (or already was) delivered.
	Wait()
	// WaitTimeout is Wait bounded by d; it reports false if the timeout
	// elapsed first.  A negative d waits forever.
	WaitTimeout(d time.Duration) bool
}

// Gate is a one-shot broadcast: once opened it stays open and every past and
// future Wait returns immediately.  Opening an open gate is a no-op.
type Gate interface {
	Open()
	IsOpen() bool
	// Wait blocks until the gate is open.  Under a deterministic backend a
	// driver-side Wait pumps the scheduler.
	Wait()
	// WaitOr blocks until this gate or other is open.  Both gates must come
	// from the same backend.
	WaitOr(other Gate)
}

// Sem is a binary semaphore whose token starts available.  Release reports
// false if the token was already free (a double release), which the LOCK
// run-time turns into the paper's "unlock of a lock which is not locked"
// error.
type Sem interface {
	TryAcquire() bool
	Acquire()
	Release() bool
}

// WaitGroup counts outstanding work, like sync.WaitGroup.
type WaitGroup interface {
	Add(delta int)
	Done()
	Wait()
}

// Cond is a condition variable, like sync.Cond: Wait is called with its lock
// held, releases it while parked and re-takes it before returning.  A task
// may hold a Go lock only while it runs, never across a park, so under a
// deterministic backend the lock is never contended.
type Cond interface {
	Wait()
	Signal()
	Broadcast()
}

// Timer is a stoppable pending AfterFunc.
type Timer interface {
	// Stop cancels the timer; it reports false if the timer already fired
	// or was stopped.
	Stop() bool
}

// ---------------------------------------------------------------------------
// Goroutine backend: the default substrate, semantically identical to the
// pre-backend run-time.

// goroutineBackend implements Backend over raw goroutines, channels, and real
// timers.  Its one state is the list of idle workers: goroutines whose
// process finished and that wait, each on its own channel, to run a later
// Spawn's fn.  Go frees a goroutine's grown stack when it exits, so a fresh
// goroutine per process would grow every session's stacks again; a worker
// keeps the stack its last process grew.
type goroutineBackend struct {
	mu   sync.Mutex
	idle []chan func() // most recently parked last: its stack is the warmest
}

// maxIdleWorkers caps the idle list; a worker that finds it full exits.  A
// serving daemon runs at most 4 sessions at once, each of at most 9
// processes (the large serve template), so 36 goroutines finish together in
// the worst steady case; the cap leaves room for a few times that.
const maxIdleWorkers = 128

var defaultBackend Backend = &goroutineBackend{}

// Default returns the goroutine backend.
func Default() Backend { return defaultBackend }

// Spawn hands fn to the most recently parked idle worker, or starts a
// goroutine when none is idle.  The name is unused: a goroutine has none.
func (b *goroutineBackend) Spawn(name string, fn func()) {
	b.mu.Lock()
	if n := len(b.idle); n > 0 {
		w := b.idle[n-1]
		b.idle[n-1] = nil
		b.idle = b.idle[:n-1]
		b.mu.Unlock()
		w <- fn // buffered: the worker may not be receiving yet
		return
	}
	b.mu.Unlock()
	go b.work(fn)
}

// work runs fn, then parks in the idle list until Spawn hands it the next,
// or exits when the list is full.
func (b *goroutineBackend) work(fn func()) {
	var next chan func()
	for {
		// fn is dead once it returns (the receive below overwrites it), so a
		// parked worker pins nothing its finished process captured; a
		// session's tasks close over its whole VM.
		fn()
		if next == nil {
			next = make(chan func(), 1)
		}
		b.mu.Lock()
		if len(b.idle) >= maxIdleWorkers {
			b.mu.Unlock()
			return
		}
		b.idle = append(b.idle, next)
		b.mu.Unlock()
		fn = <-next
	}
}

func (*goroutineBackend) NewEvent() Event { return &gEvent{ch: make(chan struct{}, 1)} }

func (*goroutineBackend) NewGate() Gate { return &gGate{ch: make(chan struct{})} }

func (*goroutineBackend) NewSem() Sem {
	s := &gSem{ch: make(chan struct{}, 1)}
	s.ch <- struct{}{}
	return s
}

func (*goroutineBackend) NewWaitGroup() WaitGroup { return &sync.WaitGroup{} }

func (*goroutineBackend) NewCond(l sync.Locker) Cond { return sync.NewCond(l) }

func (*goroutineBackend) AfterFunc(d time.Duration, fn func()) Timer { return time.AfterFunc(d, fn) }

func (*goroutineBackend) Now() time.Time { return Now() }

// anchor is the one wall-clock reading the real clock is built on, taken
// when the package loads.  It carries a monotonic reading, so time.Since on
// it reads the monotonic clock alone.
var anchor = time.Now()

// Now is the real clock every goroutine-backend VM, registry and recorder
// reads: the wall time at anchor plus the monotonic time since.  That is one
// vDSO clock read (monotonic) where a fresh reading of the time package is
// two (wall and monotonic), and the result still carries both readings, so
// Sub, Before, timers and UnixNano behave as they do on a fresh one.  Within
// one process its readings never go backwards; they do not follow a
// wall-clock step made after the process started.
func Now() time.Time { return anchor.Add(time.Since(anchor)) }

func (*goroutineBackend) Yield() {}

func (*goroutineBackend) Deterministic() bool { return false }

// gEvent is the buffered(1)-channel pulse the in-queue wake always was.  t is
// WaitTimeout's timer, made on the first wait that needs one and Reset for
// every later one; the single-waiter contract (Event) makes it the waiter's
// alone.  Go 1.23 timer semantics (go.mod is 1.24) guarantee no expiry from
// before a Stop or Reset is received after it.
type gEvent struct {
	ch chan struct{}
	t  *time.Timer
}

func (e *gEvent) Pulse() {
	select {
	case e.ch <- struct{}{}:
	default:
	}
}

func (e *gEvent) Wait() { <-e.ch }

func (e *gEvent) WaitTimeout(d time.Duration) bool {
	if d < 0 {
		<-e.ch
		return true
	}
	// Fast path: a pending pulse needs no timer.
	select {
	case <-e.ch:
		return true
	default:
	}
	if e.t == nil {
		e.t = time.NewTimer(d)
	} else {
		e.t.Reset(d)
	}
	select {
	case <-e.ch:
		e.t.Stop()
		return true
	case <-e.t.C:
		return false
	}
}

// gGate is a closed-channel broadcast.
type gGate struct {
	once sync.Once
	ch   chan struct{}
}

func (g *gGate) Open() { g.once.Do(func() { close(g.ch) }) }

func (g *gGate) IsOpen() bool {
	select {
	case <-g.ch:
		return true
	default:
		return false
	}
}

func (g *gGate) Wait() { <-g.ch }

func (g *gGate) WaitOr(other Gate) {
	o := other.(*gGate)
	select {
	case <-g.ch:
	case <-o.ch:
	}
}

// gSem is a one-token channel, the shape of LOCK variables and PE CPUs.
type gSem struct{ ch chan struct{} }

func (s *gSem) TryAcquire() bool {
	select {
	case <-s.ch:
		return true
	default:
		return false
	}
}

func (s *gSem) Acquire() { <-s.ch }

func (s *gSem) Release() bool {
	select {
	case s.ch <- struct{}{}:
		return true
	default:
		return false
	}
}
