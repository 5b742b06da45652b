package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/flex"
	"repro/internal/loops"
	"repro/internal/mmos"
	"repro/internal/obs"
)

// Lock is a Pisces Fortran LOCK variable: "Variables whose values are 'locks'
// that may be used to control entry and exit of CRITICAL statements"
// (Section 7).  Locks live in shared memory and are visible to every member
// of a force.
type Lock struct {
	vm   *VM
	name string
	sem  backend.Sem // holds one token when unlocked
}

// Name returns the lock variable's name.
func (l *Lock) Name() string { return l.name }

// lockOn acquires the lock on behalf of a process, blocking without the CPU
// while the lock is held elsewhere.
func (l *Lock) lockOn(p *mmos.Proc, holder TaskID, pe *flex.PE) {
	if !l.sem.TryAcquire() {
		if p != nil {
			p.BlockFn(l.sem.Acquire)
		} else {
			l.sem.Acquire()
		}
	}
	if p != nil {
		p.Charge(costLockOp)
	}
	l.vm.emit(&obs.Event{Kind: obs.Lock, Task: obs.TaskRef(holder), Type: l.name}, pe)
}

// unlockOn releases the lock.
func (l *Lock) unlockOn(p *mmos.Proc, holder TaskID, pe *flex.PE) {
	if p != nil {
		p.Charge(costLockOp)
	}
	l.vm.emit(&obs.Event{Kind: obs.Unlock, Task: obs.TaskRef(holder), Type: l.name}, pe)
	if !l.sem.Release() {
		panic(fmt.Sprintf("core: unlock of %q which is not locked", l.name))
	}
}

// NewLock creates a LOCK variable.  Its small shared-memory footprint is
// charged to the SHARED COMMON region.
func (t *Task) NewLock(name string) (*Lock, error) {
	t.checkKilled()
	if err := t.vm.machine.Shared().AllocCommon(8); err != nil {
		return nil, fmt.Errorf("core: allocating LOCK %q: %w", name, err)
	}
	return &Lock{vm: t.vm, name: name, sem: t.vm.backend.NewSem()}, nil
}

// Common is a SHARED COMMON block: "An ordinary Fortran COMMON block, but
// allocated in shared memory so that all force members see the same block"
// (Section 7).  It holds named REAL and INTEGER variables and arrays; every
// force member sees the same storage.  Synchronisation is the program's
// responsibility, through BARRIER and CRITICAL, exactly as in the paper.
type Common struct {
	name  string
	reals []float64
	ints  []int64
	bytes int
}

// Name returns the COMMON block's name.
func (c *Common) Name() string { return c.name }

// Reals returns the block's REAL array.
func (c *Common) Reals() []float64 { return c.reals }

// Ints returns the block's INTEGER array.
func (c *Common) Ints() []int64 { return c.ints }

// Real reads REAL element i.
func (c *Common) Real(i int) float64 { return c.reals[i] }

// SetReal writes REAL element i.
func (c *Common) SetReal(i int, v float64) { c.reals[i] = v }

// Int reads INTEGER element i.
func (c *Common) Int(i int) int64 { return c.ints[i] }

// SetInt writes INTEGER element i.
func (c *Common) SetInt(i int, v int64) { c.ints[i] = v }

// NewSharedCommon allocates a SHARED COMMON block with nReals REAL and nInts
// INTEGER elements.  The storage is charged statically to the shared-memory
// SHARED COMMON region (Section 11: "SHARED COMMON blocks are allocated
// statically in shared memory").
func (t *Task) NewSharedCommon(name string, nReals, nInts int) (*Common, error) {
	t.checkKilled()
	if nReals < 0 || nInts < 0 {
		return nil, fmt.Errorf("core: SHARED COMMON %q with negative extent", name)
	}
	bytes := 8*nReals + 8*nInts
	if err := t.vm.machine.Shared().AllocCommon(bytes); err != nil {
		return nil, fmt.Errorf("core: allocating SHARED COMMON %q: %w", name, err)
	}
	return &Common{name: name, reals: make([]float64, nReals), ints: make([]int64, nInts), bytes: bytes}, nil
}

// Force represents one executed FORCESPLIT: the set of members running the
// same post-split region concurrently.  Members communicate through shared
// variables (SHARED COMMON blocks and captured Go variables) and synchronise
// through barriers and critical regions (Section 7).
type Force struct {
	task    *Task
	members int

	mu  sync.Mutex
	ops []any // collective-operation instances, indexed per member

	aborted backend.Gate // opened by Abort
}

// Members returns the number of force members.  "The number of parallel tasks
// in a force is determined when the program is executed, not when the program
// is written" — it equals 1 (the primary) plus the number of secondary PEs
// the configuration gives the task's cluster.
func (f *Force) Members() int { return f.members }

// ForceMember is the per-member context passed to the post-split region.
type ForceMember struct {
	force  *Force
	index  int
	proc   *mmos.Proc
	pe     *flex.PE
	opIdx  int
	taskID TaskID
}

// Member returns this member's index, 0 .. Members()-1.  Member 0 is the
// primary member (the original task).
func (m *ForceMember) Member() int { return m.index }

// Members returns the force size.
func (m *ForceMember) Members() int { return m.force.members }

// IsPrimary reports whether this member is the primary (the original task).
func (m *ForceMember) IsPrimary() bool { return m.index == 0 }

// Task returns the task that executed the FORCESPLIT.  Only the primary
// member may use it for message operations after the split region ends.
func (m *ForceMember) Task() *Task { return m.force.task }

// Charge adds n ticks of simulated computation to this member's PE.
func (m *ForceMember) Charge(n int64) {
	if m.proc != nil {
		m.proc.Charge(n)
	}
}

// PE returns the processor number this member runs on.
func (m *ForceMember) PE() int { return m.pe.ID() }

// Yield releases the member's PE so co-scheduled work can run; under a
// deterministic backend it is a scheduling point the seeded picker can use to
// interleave other tasks or members.
func (m *ForceMember) Yield() {
	if m.proc != nil {
		m.proc.Yield()
	}
}

// ForceSplit executes a FORCESPLIT statement: the task splits into a force
// whose members all run the region function concurrently, the original task
// continuing as the primary member and one new member starting on each
// secondary PE allocated to the cluster.  ForceSplit returns when every
// member has finished the region; the original task then continues alone.
//
// With no secondary PEs configured, the region runs in the original task only
// ("A task executing a FORCESPLIT in cluster 1 will then cause no parallel
// splitting", Section 9).
func (t *Task) ForceSplit(region func(*ForceMember)) error {
	t.checkKilled()
	cl := t.rec.cluster
	members := cl.forceSize()
	f := &Force{task: t, members: members, aborted: t.vm.backend.NewGate()}

	// Reserve each member's local-memory footprint up front so that either
	// the whole force starts or the FORCESPLIT fails cleanly before any
	// member has run (a partially started force would deadlock at its first
	// barrier).
	for i := 1; i < members; i++ {
		if err := cl.secondaries[i-1].AllocLocal(t.rec.localBytes); err != nil {
			for j := 1; j < i; j++ {
				cl.secondaries[j-1].FreeLocal(t.rec.localBytes)
			}
			return fmt.Errorf("core: FORCESPLIT in cluster %d: %w", cl.cfg.Number, err)
		}
	}

	t.Charge(costForceSplit)
	t.vm.emit(&obs.Event{Kind: obs.ForceSplit, Task: obs.TaskRef(t.ID()), A: int64(members)}, cl.primary)

	wg := t.vm.backend.NewWaitGroup()
	panics := make([]any, members)
	for i := 1; i < members; i++ {
		pe := cl.secondaries[i-1]
		member := &ForceMember{force: f, index: i, pe: pe, taskID: t.ID()}
		wg.Add(1)
		_, err := t.vm.kernel.Spawn(pe, fmt.Sprintf("force/%s#%d", t.ID(), i), 0, func(p *mmos.Proc) {
			defer wg.Done()
			defer pe.FreeLocal(t.rec.localBytes)
			defer func() { panics[member.index] = recover() }()
			member.proc = p
			p.Charge(costForceMember)
			region(member)
		})
		if err != nil {
			// Spawn without a memory charge only fails for malformed PEs,
			// which the configuration validation precludes; treat it as fatal.
			wg.Done()
			pe.FreeLocal(t.rec.localBytes)
			panic(fmt.Sprintf("core: force member %d of %s could not start: %v", i, t.ID(), err))
		}
	}

	primary := &ForceMember{force: f, index: 0, proc: t.rec.getProc(), pe: cl.primary, taskID: t.ID()}
	var primaryPanic any
	func() {
		defer func() { primaryPanic = recover() }()
		region(primary)
	}()

	// Wait for the secondaries without holding the primary PE.
	t.blockFn(wg.Wait)

	if primaryPanic != nil {
		panic(primaryPanic)
	}
	for i, p := range panics {
		if p == nil {
			continue
		}
		if _, isKill := p.(killSentinel); isKill {
			panic(killSentinel{})
		}
		return fmt.Errorf("core: force member %d failed: %v", i, p)
	}
	return nil
}

// collectiveOp returns the shared instance of the member's next collective
// construct, creating it if this member arrives first.  Members execute the
// same program text, so their n-th collective constructs correspond.
func (m *ForceMember) collectiveOp(create func() any) any {
	f := m.force
	idx := m.opIdx
	m.opIdx++
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.ops) <= idx {
		f.ops = append(f.ops, nil)
	}
	if f.ops[idx] == nil {
		f.ops[idx] = create()
	}
	return f.ops[idx]
}

// Abort marks the force as no longer able to synchronise: every BARRIER —
// including any a member is already blocked in — degrades to a non-waiting
// statement whose body still runs on the primary member.  A member that must
// skip part of the region containing collective operations (an interpreter
// member whose statement failed, for instance) calls Abort so the remaining
// members are not stranded waiting for arrivals that will never come.
func (m *ForceMember) Abort() { m.force.aborted.Open() }

// Aborted reports whether the force has been aborted.
func (m *ForceMember) Aborted() bool { return m.force.aborted.IsOpen() }

// barrierInstance is one BARRIER statement execution.
type barrierInstance struct {
	mu      sync.Mutex
	arrived int
	allIn   backend.Gate // opened when every member has arrived
	bodyRun backend.Gate // opened when the primary has run the barrier body
}

// Barrier executes a BARRIER statement: "All members of the force pause on
// reaching the start of the barrier.  When all have arrived, the primary
// force member executes the statement sequence, and then all force members
// continue."  A nil body is an empty barrier.
func (m *ForceMember) Barrier(body func()) {
	f := m.force
	if m.Aborted() {
		// An aborted force cannot synchronise: do not wait for (or count
		// toward) arrivals, but keep the primary's body running so the
		// region's output still flows.  The check precedes collectiveOp — a
		// member that skipped part of the region has a misaligned op index,
		// and pairing it with another statement's instance would panic.
		if m.IsPrimary() && body != nil {
			body()
		}
		return
	}
	be := f.task.vm.backend
	b := m.collectiveOp(func() any {
		return &barrierInstance{allIn: be.NewGate(), bodyRun: be.NewGate()}
	}).(*barrierInstance)

	m.Charge(costBarrier)
	f.task.vm.emit(&obs.Event{Kind: obs.Barrier, Task: obs.TaskRef(m.taskID), A: int64(m.index)}, m.pe)

	b.mu.Lock()
	b.arrived++
	last := b.arrived == f.members
	b.mu.Unlock()
	if last {
		b.allIn.Open()
	} else {
		m.block(func() { b.allIn.WaitOr(f.aborted) })
	}

	if m.IsPrimary() {
		if body != nil {
			body()
		}
		b.bodyRun.Open()
	} else {
		m.block(func() { b.bodyRun.WaitOr(f.aborted) })
	}
}

// block releases the member's PE while wait runs.
func (m *ForceMember) block(wait func()) {
	if m.proc != nil {
		m.proc.BlockFn(wait)
	} else {
		wait()
	}
}

// Critical executes a CRITICAL statement: the lock variable is fetched; if
// unlocked it is locked and the statement sequence executed, otherwise the
// member waits until the lock becomes unlocked.
func (m *ForceMember) Critical(l *Lock, body func()) {
	l.lockOn(m.proc, m.taskID, m.pe)
	defer l.unlockOn(m.proc, m.taskID, m.pe)
	body()
}

// Presched executes a PRESCHED DO loop: in a force of N members, member I
// takes iterations I, N+I, 2*N+I, ... of the loop (lo, hi, step).
func (m *ForceMember) Presched(lo, hi, step int, body func(i int)) error {
	idxs, err := loops.Presched(lo, hi, step, m.index, m.force.members)
	if err != nil {
		return err
	}
	for _, i := range idxs {
		body(i)
	}
	return nil
}

// selfschedCounter is the shared iteration counter of one SELFSCHED loop.
type selfschedCounter struct {
	next atomic.Int64
}

func (c *selfschedCounter) Next() (int, bool) {
	v := c.next.Add(1) - 1
	return int(v), true
}

// Selfsched executes a SELFSCHED DO loop: each member takes the "next"
// iteration of those remaining when it arrives at the loop, until all
// iterations are complete.  It returns the number of iterations this member
// executed, which is how the loop's load balance is measured.
func (m *ForceMember) Selfsched(lo, hi, step int, body func(i int)) (int, error) {
	if m.Aborted() {
		// Degraded mode (see Abort): op indices may be misaligned, so the
		// shared counter cannot be paired up.  No member runs any iteration —
		// running them locally could double-execute work another member
		// claimed from the shared counter just before observing the abort.
		return 0, nil
	}
	ctr := m.collectiveOp(func() any { return &selfschedCounter{} }).(*selfschedCounter)
	return loops.Selfsched(lo, hi, step, ctr, body)
}

// Parseg executes a PARSEG statement: the Ith force member executes the Ith,
// N+Ith, 2N+Ith, ... statement sequences.
func (m *ForceMember) Parseg(segments ...func()) error {
	idxs, err := loops.Segments(len(segments), m.index, m.force.members)
	if err != nil {
		return err
	}
	for _, i := range idxs {
		segments[i]()
	}
	return nil
}
