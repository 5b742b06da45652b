// Package mmos simulates MMOS, the "simple Unix-like kernel" that the FLEX/32
// runs on PEs 3-20 (paper, Section 11).  The PISCES 2 run-time library uses
// MMOS only for a few services: process creation and termination, terminal
// input/output, storage allocation, and "swapping the CPU among ready
// processes".  This package provides exactly those services over the
// simulated machine in internal/flex.
//
// A Proc is the kernel's view of one running program: it is bound to a PE,
// and it must hold the PE's CPU to execute.  The kernel holds that CPU, one
// backend semaphore per PE, on the goroutine backend and the deterministic
// one alike.  All PISCES blocking operations (ACCEPT waits, barriers,
// critical regions, waiting for a free slot) release the CPU while the
// process is blocked, which is what bounds the degree of multiprogramming on
// each PE to the slot counts chosen in the configuration.
package mmos

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/flex"
)

// State is the scheduling state of a process.
type State int32

// Process states.
const (
	// Ready means the process exists but does not currently hold its PE's CPU.
	Ready State = iota
	// Running means the process holds its PE's CPU.
	Running
	// Blocked means the process is waiting on an event (message arrival,
	// barrier, lock, slot) and has released the CPU.
	Blocked
	// Exited means the process has terminated.
	Exited
)

// String returns the conventional short name of the state.
func (s State) String() string {
	switch s {
	case Ready:
		return "READY"
	case Running:
		return "RUNNING"
	case Blocked:
		return "BLOCKED"
	case Exited:
		return "EXITED"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Kernel is the per-machine MMOS instance.  It holds each PE's CPU: a
// backend semaphore, made on the first Spawn onto the PE, which a process
// holds while it runs.
type Kernel struct {
	backend backend.Backend

	mu   sync.Mutex
	cpus map[*flex.PE]backend.Sem
}

// NewKernelOn creates a kernel that spawns its processes through the given
// scheduling backend.
func NewKernelOn(b backend.Backend) *Kernel {
	return &Kernel{backend: b, cpus: make(map[*flex.PE]backend.Sem)}
}

// cpuFor returns the CPU processes on pe must hold to execute.
func (k *Kernel) cpuFor(pe *flex.PE) backend.Sem {
	k.mu.Lock()
	defer k.mu.Unlock()
	s, ok := k.cpus[pe]
	if !ok {
		s = k.backend.NewSem()
		k.cpus[pe] = s
	}
	return s
}

// Proc is one MMOS process.
type Proc struct {
	kernel *Kernel
	pe     *flex.PE
	cpu    backend.Sem

	state  atomic.Int32
	exited backend.Gate

	localBytes int // local memory charged at spawn, released at exit
}

// Spawn creates a process named name on PE pe and runs body as a new
// backend task.  localBytes of the PE's local memory are charged to the process
// for its lifetime (program text + data, as in the paper's storage
// measurements).  The body receives the Proc and runs with the CPU already
// held; it must use Yield/Block for scheduling points and must not return
// while blocked.  Spawn returns once the process exists (not once it has run).
func (k *Kernel) Spawn(pe *flex.PE, name string, localBytes int, body func(*Proc)) (*Proc, error) {
	if pe == nil {
		return nil, fmt.Errorf("mmos: spawn %q on nil PE", name)
	}
	if pe.IsUnix() {
		return nil, fmt.Errorf("mmos: PE %d runs Unix only and cannot host PISCES processes", pe.ID())
	}
	if localBytes > 0 {
		if err := pe.AllocLocal(localBytes); err != nil {
			return nil, fmt.Errorf("mmos: spawn %q: %w", name, err)
		}
	}

	p := &Proc{kernel: k, pe: pe, exited: k.backend.NewGate(), localBytes: localBytes}
	p.state.Store(int32(Ready))
	p.cpu = k.cpuFor(pe)

	pe.BindProc()

	k.backend.Spawn(name, func() {
		p.acquireCPU()
		defer p.exit()
		body(p)
	})
	return p, nil
}

// exit tears the process down: releases the CPU if held, releases local
// memory, and marks the process exited.
func (p *Proc) exit() {
	if State(p.state.Load()) == Running {
		p.releaseCPU()
	}
	p.state.Store(int32(Exited))
	if p.localBytes > 0 {
		p.pe.FreeLocal(p.localBytes)
	}
	p.pe.UnbindProc()
	p.exited.Open()
}

// State returns the process's scheduling state.
func (p *Proc) State() State { return State(p.state.Load()) }

// WaitExited blocks until the process has exited.  It is safe in both
// scheduling contexts: task code parks; the external driver pumps.
func (p *Proc) WaitExited() { p.exited.Wait() }

func (p *Proc) acquireCPU() {
	p.cpu.Acquire()
	p.state.Store(int32(Running))
}

func (p *Proc) releaseCPU() {
	p.state.Store(int32(Ready))
	p.giveCPU()
}

// giveCPU hands the PE's CPU back.  Only its holder may: a release of a CPU
// nobody holds is a run-time fault, reported with the PE, as LOCK reports an
// unlock of a lock which is not locked.
func (p *Proc) giveCPU() {
	if !p.cpu.Release() {
		panic(fmt.Sprintf("mmos: PE %d released while not held", p.pe.ID()))
	}
}

// Charge advances the PE clock by n ticks on behalf of this process.  The
// caller must be Running.
func (p *Proc) Charge(n int64) {
	p.pe.Charge(n)
}

// Yield releases the CPU so other ready processes on the same PE can run,
// then re-acquires it.  This is MMOS "swapping the CPU among ready
// processes"; the PISCES run-time yields at every statement-level runtime
// call so the slot-bounded multiprogramming of a cluster's primary PE is
// visible in the simulation.
func (p *Proc) Yield() {
	p.Charge(1)
	p.releaseCPU()
	// Re-enter the backend's ready set between releasing and re-acquiring
	// the CPU: with an uncontended CPU token the release/acquire pair alone
	// never parks, so without this a deterministic backend would get no
	// scheduling point out of a yield (a force member alone on its PE would
	// run its whole region uninterleaved).  A no-op on the goroutine backend.
	p.kernel.backend.Yield()
	p.acquireCPU()
}

// BlockFn releases the CPU, runs wait (which must block until the awaited
// condition holds), then re-acquires the CPU.  Every blocking PISCES
// primitive is built on it so that a blocked task never occupies its PE.
func (p *Proc) BlockFn(wait func()) {
	p.state.Store(int32(Blocked))
	p.giveCPU()
	wait()
	p.cpu.Acquire()
	p.state.Store(int32(Running))
}
