// Package pisces is the public API of the PISCES 2 parallel programming
// environment reproduction.  It re-exports the pieces an application needs:
//
//   - configurations (the programmer-controlled mapping of the virtual
//     machine onto the simulated FLEX/32 hardware, Section 9 of the paper),
//   - the virtual machine itself with tasktypes, INITIATE/SEND/ACCEPT
//     message passing, forces, and windows (Sections 4-8),
//   - the execution environment (Section 11) and the tracing facility
//     (Section 12),
//   - the Pisces Fortran preprocessor (Section 10).
//
// A minimal program:
//
//	cfg := pisces.SimpleConfiguration(2, 4)
//	vm, err := pisces.NewVM(cfg, pisces.Options{UserOutput: os.Stdout})
//	if err != nil { ... }
//	defer vm.Shutdown()
//
//	vm.Register("hello", func(t *pisces.Task) {
//		t.Printf("hello from task %s in cluster %d\n", t.ID(), t.Cluster())
//	})
//	vm.Run("hello", pisces.OnCluster(2))
//
// See the examples directory for window-based data partitioning, forces, and
// dynamic task pipelines.
package pisces

import (
	"io"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/flex"
	"repro/internal/obs"
	"repro/internal/pfc"
	"repro/internal/pfi"
	"repro/internal/rect"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Core virtual-machine types.
type (
	// VM is a booted PISCES 2 virtual machine.
	VM = core.VM
	// Options tune the virtual machine.
	Options = core.Options
	// Task is the run-time context of one running task.
	Task = core.Task
	// TaskID identifies a task as <cluster, slot, unique>.
	TaskID = core.TaskID
	// TaskType describes a registered tasktype.
	TaskType = core.TaskType
	// Placement is the ON <cluster> part of an INITIATE statement.
	Placement = core.Placement
	// Value is one message or task argument.
	Value = core.Value
	// Message is one received message.
	Message = core.Message
	// Handler is a HANDLER subroutine for a message type.
	Handler = core.Handler
	// AcceptSpec is the ACCEPT statement.
	AcceptSpec = core.AcceptSpec
	// AcceptResult reports what an ACCEPT processed.
	AcceptResult = core.AcceptResult
	// TypeCount names one message type in an ACCEPT statement.
	TypeCount = core.TypeCount
	// Force and ForceMember are the FORCESPLIT constructs.
	Force = core.Force
	// ForceMember is the per-member context inside a force.
	ForceMember = core.ForceMember
	// Lock is a LOCK variable for CRITICAL sections.
	Lock = core.Lock
	// Common is a SHARED COMMON block.
	Common = core.Common
	// Window is a generalized pointer to a rectangular subregion of an array.
	Window = core.Window
	// Array is a two-dimensional REAL array owned by a task.
	Array = core.Array
	// Rect is the rectangular-subregion descriptor used by windows.
	Rect = rect.Rect
	// Configuration is a virtual-machine-to-hardware mapping.
	Configuration = config.Configuration
	// ClusterConfig is the mapping of one cluster onto hardware.
	ClusterConfig = config.Cluster
	// Environment is the menu-driven execution environment.
	Environment = exec.Environment
	// TaskInfo, PELoad, and SystemStorage are execution-environment views.
	TaskInfo = core.TaskInfo
	// PELoad describes one processor's loading.
	PELoad = core.PELoad
	// SystemStorage reports the Section 13 storage-overhead quantities.
	SystemStorage = core.SystemStorage
	// Limits is the per-tenant resource policy a VM enforces on its own
	// program (Options.Limits): heap bytes, cumulative tasks, wall-clock
	// time, terminal output.  Zero fields are unlimited.
	Limits = core.Limits
	// LimitError reports which per-tenant limit a VM violated; it matches
	// ErrLimitExceeded.
	LimitError = core.LimitError
)

// ErrLimitExceeded matches every per-tenant limit violation, whatever the
// resource (errors.Is).
var ErrLimitExceeded = core.ErrLimitExceeded

// NewVM boots a virtual machine for the configuration on a simulated
// FLEX/32 with the default (NASA Langley) hardware description.
func NewVM(cfg *Configuration, opts Options) (*VM, error) { return core.NewVM(cfg, opts) }

// Deterministic scheduling.
type (
	// SchedulerBackend is the pluggable scheduling substrate of a VM
	// (Options.Backend).  Nil selects the default goroutine backend.
	SchedulerBackend = backend.Backend
	// SimScheduler is the deterministic simulation backend: a cooperative
	// single-threaded scheduler driven by a seeded PRNG with a virtual
	// clock.  Same program + same seed = byte-identical run.
	SimScheduler = sim.Scheduler
	// SimDeadlock is the panic value a deterministic run raises when no task
	// can make progress.
	SimDeadlock = sim.Deadlock
)

// NewSimScheduler returns a deterministic scheduling backend seeded with
// seed, for core.Options.Backend / pisces.Options.Backend.  A scheduler
// belongs to exactly one VM, and a deterministic VM must be driven from a
// single goroutine.
func NewSimScheduler(seed int64) *SimScheduler { return sim.New(seed) }

// Forever and All are the special ACCEPT delay and count values; AnyMessage
// is the wildcard message type.
const (
	Forever    = core.Forever
	All        = core.All
	AnyMessage = core.AnyMessage
)

// Placements.
var (
	// OnCluster places a new task on a specific cluster ("CLUSTER <n>").
	OnCluster = core.OnCluster
	// Any lets the system choose a cluster ("ANY").
	Any = core.Any
	// Other places the task on a different cluster than the initiator's
	// ("OTHER").
	Other = core.Other
	// Same places the task on the initiator's cluster ("SAME").
	Same = core.Same
)

// Value constructors and accessors.
var (
	Int   = core.Int
	Real  = core.Real
	Bool  = core.Bool
	Str   = core.Str
	ID    = core.ID
	Ints  = core.Ints
	Reals = core.Reals
	Win   = core.Win

	AsInt   = core.AsInt
	AsReal  = core.AsReal
	AsBool  = core.AsBool
	AsStr   = core.AsStr
	AsID    = core.AsID
	AsInts  = core.AsInts
	AsReals = core.AsReals
	AsWin   = core.AsWin

	MustInt   = core.MustInt
	MustReal  = core.MustReal
	MustStr   = core.MustStr
	MustID    = core.MustID
	MustReals = core.MustReals
	MustWin   = core.MustWin
)

// ParseTaskID parses the "cluster.slot.unique" textual form of a taskid.
func ParseTaskID(s string) (TaskID, error) { return core.ParseTaskID(s) }

// NewRect returns the rectangle [r1..r2] x [c1..c2] (1-based, inclusive).
func NewRect(r1, r2, c1, c2 int) Rect { return rect.New(r1, r2, c1, c2) }

// WholeRect returns the rectangle covering an entire rows x cols array.
func WholeRect(rows, cols int) Rect { return rect.Whole(rows, cols) }

// SimpleConfiguration returns an n-cluster configuration with `slots` user
// slots per cluster and no force PEs, mapped onto PEs 3..(2+n).
func SimpleConfiguration(n, slots int) *Configuration { return config.Simple(n, slots) }

// Section9Configuration returns the worked mapping example of Section 9 of
// the paper (4 clusters, forces on PEs 7-20).
func Section9Configuration() *Configuration { return config.Section9Example() }

// LoadConfiguration reads a configuration saved by Configuration.Save.
func LoadConfiguration(r io.Reader) (*Configuration, error) { return config.Load(r) }

// NewEnvironment creates a menu-driven execution environment over a VM.
func NewEnvironment(vm *VM, out io.Writer) *Environment { return exec.New(vm, out) }

// ExecMenu returns the execution environment's option menu text.
func ExecMenu() string { return exec.Menu() }

// Preprocess translates Pisces Fortran source into standard Fortran 77 with
// calls on the PISCES run-time library.
func Preprocess(src string) (string, error) {
	res, err := pfc.Preprocess(src, pfc.Options{})
	if err != nil {
		return "", err
	}
	return res.Fortran, nil
}

// The Pisces Fortran interpreter (internal/pfi): .pf programs executed
// directly on an in-memory VM, no Fortran compiler required.
type (
	// InterpretedProgram is a compiled Pisces Fortran program.
	InterpretedProgram = pfi.Program
	// InterpretOptions select the entry tasktype; it is placed ANY.
	InterpretOptions = pfi.Options
)

// CompileSource compiles Pisces Fortran source text for direct interpretation
// on a VM.  Register the result on a VM (or call Run) to execute it.
// Compiled code is cached by source text: compiling the same program again
// returns a fresh program (its own activity counters and error state) over
// the shared slot-compiled code, skipping lexing and parsing entirely.
func CompileSource(src string) (*InterpretedProgram, error) { return pfi.Compile(src) }

// CompileSourceUncached compiles without consulting or populating the
// compiled-code cache.  It exists for benchmarks and tools that measure the
// true compilation cost; applications should use CompileSource.
func CompileSourceUncached(src string) (*InterpretedProgram, error) {
	return pfi.CompileUncached(src)
}

// Compile caching.  CompileSource shares one bounded process-wide cache; a
// long-running service (the serving daemon, a test harness) builds its own
// CompileCache so its tenants share compiled units with each other but not
// with unrelated code in the same process.
type (
	// CompileCache is a bounded LRU cache of compiled programs, keyed by
	// source text and safe for concurrent use.
	CompileCache = pfi.UnitCache
	// CompileCacheStats is a snapshot of a CompileCache's hit/miss/eviction
	// accounting.
	CompileCacheStats = pfi.CacheStats
)

// NewCompileCache builds a compile cache bounded to maxBytes of compiled
// program weight; maxBytes <= 0 selects the default bound.
func NewCompileCache(maxBytes int64) *CompileCache { return pfi.NewUnitCache(maxBytes) }

// Interpret compiles Pisces Fortran source and runs it end-to-end on the VM:
// the program's tasktypes are registered, the main tasktype is initiated, and
// the call returns once every task the program started has terminated.  The
// returned program exposes the interpreter's activity counters.
func Interpret(vm *VM, src string, opts InterpretOptions, args ...Value) (*InterpretedProgram, error) {
	return pfi.Interpret(vm, src, opts, args...)
}

// Tracing.
type (
	// TraceEvent is one trace record.
	TraceEvent = trace.Event
	// TraceKind identifies a traceable event type.
	TraceKind = trace.Kind
	// TraceSink receives enabled trace events.
	TraceSink = trace.Sink
	// MemoryTraceSink retains trace events in memory.
	MemoryTraceSink = trace.MemorySink
	// WriterTraceSink writes trace lines to an io.Writer.
	WriterTraceSink = trace.WriterSink
)

// Traceable event kinds (Section 12).
const (
	TraceTaskInit     = trace.TaskInit
	TraceTaskTerm     = trace.TaskTerm
	TraceMsgSend      = trace.MsgSend
	TraceMsgAccept    = trace.MsgAccept
	TraceLock         = trace.Lock
	TraceUnlock       = trace.Unlock
	TraceBarrierEnter = trace.BarrierEnter
	TraceForceSplit   = trace.ForceSplit
)

// AnalyzeTrace summarises trace events for off-line study.
func AnalyzeTrace(events []TraceEvent) trace.Analysis { return trace.Analyze(events) }

// Runtime observability (internal/obs): a metric registry (atomic counters,
// gauges, and log-scale histograms) plus lightweight span capture, threaded
// through every layer of the message path.  Pass a registry through
// Options.Metrics and enable the concerns you want; disabled instrumentation
// costs one atomic load per site.  The registry is also where a VM counts
// what it did — tasks initiated and completed, messages sent and accepted,
// window traffic — as core.task.*, core.msg.* and core.window.* counters
// (read with ObsRegistry.Counter), so those are counted only with
// ObsMetrics on.
type (
	// ObsRegistry collects runtime metrics and spans (Options.Metrics).
	ObsRegistry = obs.Registry
	// ObsSnapshot is a point-in-time, name-sorted view of a registry.
	ObsSnapshot = obs.Snapshot
	// ObsMask selects which observability concerns are enabled.
	ObsMask = obs.Mask
)

// Observability enable bits for ObsRegistry.Enable.
const (
	// ObsMetrics enables the counters, gauges, and histograms.
	ObsMetrics = obs.Metrics
	// ObsSpans enables span capture (ObsRegistry.WriteChromeTrace).
	ObsSpans = obs.Spans
)

// NewObsRegistry returns an empty observability registry with everything
// disabled, for Options.Metrics.
func NewObsRegistry() *ObsRegistry { return obs.New() }

// FlightRecorder is the always-on forensic event ring (Options.FlightRecorder):
// a few atomic stores per routed send/accept/kill/limit event, dumpable as a
// blackbox blob for `pisces blackbox` after a failure.
type FlightRecorder = obs.Recorder

// NewFlightRecorder returns a flight recorder with the default ring geometry
// for the given node id (0 for single-process runs).
func NewFlightRecorder(nodeID int) *FlightRecorder { return obs.NewRecorder(nodeID, 0, 0) }

// FlexDefaultConfig returns the simulated FLEX/32 hardware description
// (20 PEs, 1 MiB local memory each, 2.25 MiB shared memory).
func FlexDefaultConfig() flex.Config { return flex.DefaultConfig() }
