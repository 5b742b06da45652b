package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/memory"
	"repro/internal/obs"
)

// Limits is a per-tenant resource policy for one VM.  The paper's run-time
// shares one FLEX/32 between every program; a serving daemon shares one
// process between every tenant, so each VM carries the quota its tenant may
// consume.  A zero field is unlimited; the zero Limits value turns the whole
// mechanism off (single-program runs pay nothing).
//
// A violated limit fail-stops the tenant, not the process: the first
// violation is recorded, every user task of the offending VM is killed, and
// the typed *LimitError is reported through LimitViolation — sibling VMs in
// the same daemon never notice.
type Limits struct {
	// HeapBytes caps the tenant's live message-heap bytes summed across all
	// of its cluster shards (enforced at shard charge time).
	HeapBytes int64
	// MaxTasks caps the cumulative number of user tasks initiated over the
	// run (enforced at task spawn).
	MaxTasks int64
	// WallClock caps the run's elapsed time from VM boot (enforced by a
	// run-loop timer on the VM's backend clock).
	WallClock time.Duration
	// OutputBytes caps bytes written to the user terminal; output past the
	// cap is dropped (enforced in the terminal funnel).
	OutputBytes int64
}

// Limit resource names, the Resource field of LimitError.
const (
	LimitHeap      = "heap"
	LimitTasks     = "tasks"
	LimitWallClock = "wallclock"
	LimitOutput    = "output"
)

// ErrLimitExceeded is the sentinel every limit violation matches with
// errors.Is, whatever the resource.
var ErrLimitExceeded = errors.New("core: tenant resource limit exceeded")

// LimitError reports which per-tenant limit a VM violated.  It matches
// ErrLimitExceeded; heap violations additionally match ErrHeapExhausted at
// the failing send site (the send failed for want of heap — that the cause
// was policy rather than arena is what Resource records).
type LimitError struct {
	Resource string // which limit: LimitHeap, LimitTasks, ...
	Limit    int64  // the configured cap (nanoseconds for wallclock)
	Used     int64  // usage observed at the violation, when known
}

func (e *LimitError) Error() string {
	if e.Resource == LimitWallClock {
		return fmt.Sprintf("tenant limit exceeded: %s cap %v elapsed", e.Resource, time.Duration(e.Limit))
	}
	if e.Used > 0 {
		return fmt.Sprintf("tenant limit exceeded: %s cap %d, used %d", e.Resource, e.Limit, e.Used)
	}
	return fmt.Sprintf("tenant limit exceeded: %s cap %d", e.Resource, e.Limit)
}

func (e *LimitError) Is(target error) bool { return target == ErrLimitExceeded }

// recordLimit notes a limit violation and fail-stops the tenant.  The first
// violation wins (later ones are usually its cascade) and triggers the kill
// sweep exactly once.  Kill only marks tasks and pulses their wake events,
// so recordLimit is safe from any context — a task's own send path, the
// terminal funnel, a backend timer.
func (vm *VM) recordLimit(e *LimitError) {
	vm.limitMu.Lock()
	first := vm.limitErr == nil
	if first {
		vm.limitErr = e
	}
	vm.limitMu.Unlock()
	if !first {
		return
	}
	vm.emit(&obs.Event{Kind: obs.Limit, A: limitResourceCode(e.Resource), B: e.Limit}, nil)
	vm.systemPrintf("*** PISCES: %v: terminating run\n", e)
	for _, info := range vm.RunningTasks() {
		if !info.Controller {
			_ = vm.Kill(info.ID)
		}
	}
	if vm.opts.FailureSink != nil {
		vm.opts.FailureSink("limit: " + e.Resource)
	}
}

// limitResources is the one table between a LimitError's resource name and
// the stable small integer the flight recorder's fixed-size events carry: a
// resource's code is its index, and 0 is no resource.
var limitResources = [...]string{1: LimitHeap, 2: LimitTasks, 3: LimitWallClock, 4: LimitOutput}

func limitResourceCode(resource string) int64 {
	for code, name := range limitResources {
		if name == resource {
			return int64(code)
		}
	}
	return 0
}

// LimitResourceName names the resource a flight-recorder limit event's code
// stands for, for `pisces blackbox`.
func LimitResourceName(code int64) string {
	if code > 0 && code < int64(len(limitResources)) {
		return limitResources[code]
	}
	return fmt.Sprintf("resource#%d", code)
}

// LimitViolation returns the first per-tenant limit this VM violated, as a
// *LimitError (matching ErrLimitExceeded), or nil.  The serving layer
// consults it after the run to distinguish "program finished" from "tenant
// exceeded its quota".
func (vm *VM) LimitViolation() error {
	vm.limitMu.Lock()
	defer vm.limitMu.Unlock()
	if vm.limitErr == nil {
		return nil
	}
	return vm.limitErr
}

// heapErr wraps a shard-charge failure for the sender.  All callers used to
// wrap with ErrHeapExhausted only; a budget-caused failure is still heap
// exhaustion from the sender's point of view, but it additionally records
// the quota violation and carries the typed LimitError so errors.Is finds
// both sentinels.
func (vm *VM) heapErr(err error) error {
	if errors.Is(err, memory.ErrBudgetExceeded) {
		le := &LimitError{Resource: LimitHeap, Limit: vm.opts.Limits.HeapBytes, Used: vm.heapBudget.Used()}
		vm.recordLimit(le)
		return fmt.Errorf("%w: %w", ErrHeapExhausted, le)
	}
	return fmt.Errorf("%w: %v", ErrHeapExhausted, err)
}

// taskLimitExceeded reports whether admitting one more user task would
// violate MaxTasks.  The count is of every user task admitted so far (a
// recovery's re-creation is not a new one), so the cap bounds total work,
// not just concurrency — a fork bomb trips it even if tasks exit fast.  The
// caller records the violation (after answering the initiator, so the
// refusal reaches it before the kill sweep can unwind it).
func (vm *VM) taskLimitExceeded() *LimitError {
	max := vm.opts.Limits.MaxTasks
	if max <= 0 {
		return nil
	}
	if used := vm.initiated.Load(); used >= max {
		return &LimitError{Resource: LimitTasks, Limit: max, Used: used}
	}
	return nil
}

// chargeOutput admits n bytes of user-terminal output against OutputBytes,
// reporting false (drop the write) once the cap is crossed.
func (vm *VM) chargeOutput(n int) bool {
	max := vm.opts.Limits.OutputBytes
	if max <= 0 {
		return true
	}
	used := vm.outputUsed.Add(int64(n))
	if used <= max {
		return true
	}
	vm.recordLimit(&LimitError{Resource: LimitOutput, Limit: max, Used: used})
	return false
}

// wallClockExpired is the WallClock timer body.
func (vm *VM) wallClockExpired() {
	vm.recordLimit(&LimitError{Resource: LimitWallClock, Limit: int64(vm.opts.Limits.WallClock)})
}
