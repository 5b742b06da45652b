package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/flex"
	"repro/internal/memory"
	"repro/internal/mmos"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Errors returned by the run-time.
var (
	// ErrUnknownTaskType is returned when initiating a tasktype that was
	// never registered.
	ErrUnknownTaskType = errors.New("core: unknown tasktype")
	// ErrNoSuchTask is returned when sending to a taskid that is not running.
	ErrNoSuchTask = errors.New("core: no such task")
	// ErrNoSuchCluster is returned for placements naming a cluster that is
	// not part of the configuration.
	ErrNoSuchCluster = errors.New("core: no such cluster")
	// ErrNoOtherCluster is returned for the OTHER placement when the
	// configuration has a single cluster.
	ErrNoOtherCluster = errors.New("core: no other cluster available")
	// ErrVMTerminated is returned for operations on a VM that has shut down.
	ErrVMTerminated = errors.New("core: virtual machine terminated")
	// ErrHeapExhausted wraps message-heap allocation failures.
	ErrHeapExhausted = errors.New("core: shared-memory message heap exhausted")
	// ErrKilled is reported for tasks terminated by KILL A TASK or by the
	// run's time limit.
	ErrKilled = errors.New("core: task killed")
)

// TaskType is a registered task type: a name and the Go function that serves
// as the Pisces Fortran tasktype body.
type TaskType struct {
	// Name is the tasktype name used in INITIATE statements.
	Name string
	// Body is run for each initiated task of this type.
	Body func(*Task)
	// LocalBytes is the simulated local-memory footprint of one task of this
	// type; 0 uses DefaultTaskLocalBytes.
	LocalBytes int
}

// Options tune the virtual machine.  The zero value gives sensible defaults.
type Options struct {
	// UserOutput receives lines sent "TO USER"; nil discards them.
	UserOutput io.Writer
	// AcceptTimeout is the system-provided timeout used when an ACCEPT
	// statement has no DELAY clause.  Zero means 5 seconds.
	AcceptTimeout time.Duration
	// SystemLocalBytes is the per-PE local-memory footprint of the PISCES
	// system; zero means DefaultSystemLocalBytes.
	SystemLocalBytes int
	// TraceSinks receive the Section 12 trace lines, in addition to any sinks
	// added later through Obs().AddTraceSink.  Sinks and trace switches
	// belong to the registry, so VMs handed one Metrics registry share them.
	TraceSinks []trace.Sink
	// Backend selects the scheduling substrate tasks run on.  Nil uses the
	// default goroutine backend; a deterministic backend (internal/sim) makes
	// the whole run reproducible from its seed.  A deterministic VM must be
	// driven from a single goroutine; the VMs of one in-process mesh may
	// share one deterministic backend, driven from that one goroutine.
	Backend backend.Backend
	// Hosted restricts the clusters whose tasks actually run in this process
	// (distributed mode, internal/node).  Nil hosts every configured cluster.
	// The VM still boots the full configuration — controllers of non-hosted
	// clusters run as inert ghosts so taskid assignment stays identical on
	// every node — but traffic for a non-hosted cluster travels through
	// Remote instead of being delivered locally.
	Hosted []int
	// Remote carries cross-cluster messages for clusters this VM does not
	// host.  Required when Hosted excludes a configured cluster.  Transports
	// that need the VM (to deliver inbound frames) are constructed first and
	// bound to it after NewVM returns; nothing routes until tasks run.
	Remote Transport
	// Metrics receives run-time metrics and spans.  Nil creates a private
	// disabled registry, so instrumented paths never nil-check; callers that
	// want the data pass a registry and enable the families they care about.
	// The VM rebinds the registry clock to its backend, so under a
	// deterministic backend all timestamps are virtual time.
	Metrics *obs.Registry
	// HA enables fault tolerance: tasks number their outbound sends, receivers
	// keep duplicate-suppression floors and an ACCEPT consumption log, and the
	// VM exposes Checkpoint/AdoptClusters/Restore (see ha.go).  Costs a map
	// append per ACCEPT-consumed message, so it is opt-in.
	HA bool
	// Limits is the per-tenant resource policy this VM enforces on its own
	// program: heap bytes, cumulative task count, wall-clock time, terminal
	// output.  The zero value (and any zero field) is unlimited.  A violation
	// fail-stops this VM's user tasks and is reported by LimitViolation; the
	// process — and any sibling VM in a serving daemon — is unaffected.
	Limits Limits
	// InterceptWire routes EVERY cross-cluster message through Remote, even
	// between clusters hosted here.  Fault/latency-injecting transports use
	// it to exercise network schedules under the deterministic backend.
	// Sends to tasks that are not running still fail at the sender
	// (ErrNoSuchTask, as on the direct path), but the destination shard is
	// charged at delivery rather than reserved at send time, so a receiver
	// whose heap fills drops the delayed message instead of failing the
	// sender with ErrHeapExhausted — the one intentional semantic difference
	// of intercepted delivery.
	InterceptWire bool
	// NodeID is this process's node id in a distributed mesh (0 standalone).
	// It seeds the high bits of causal edge ids, so edges generated by
	// different nodes never collide when their traces and flight-recorder
	// dumps are merged.
	NodeID int
	// FlightRecorder, when non-nil, receives a structured event for every
	// routed send, cross-cluster accept, kill and limit violation.  The VM
	// rebinds its clock to the backend, so under a deterministic backend the
	// ring contents are seed-stable.  Nil records nothing (one branch per
	// site).
	FlightRecorder *obs.Recorder
	// FailureSink, when non-nil, is called once with a short reason string
	// the first time this VM fail-stops its tenant (a *LimitError kill
	// sweep).  The serving and CLI layers use it to dump the flight recorder
	// at the moment of failure.
	FailureSink func(reason string)
}

// VM is one booted PISCES 2 virtual machine: a configuration mapped onto a
// simulated FLEX/32, with controllers running and tasktypes registered.
type VM struct {
	machine *flex.Machine
	kernel  *mmos.Kernel
	cfg     *config.Configuration
	opts    Options
	backend backend.Backend

	mu        sync.Mutex
	tasktypes map[string]TaskType
	tasks     map[TaskID]*taskRec
	clusters  map[int]*clusterRT
	started   bool
	stopped   bool

	// routeClosed refuses cross-cluster sends once Shutdown has landed all
	// traffic and is about to stop the controllers (see routeMessage).
	routeClosed atomic.Bool

	// Distributed-mode state (see transport.go): the hosted cluster set (nil
	// hosts everything), the remote transport for clusters hosted elsewhere,
	// and the pending-reply table correlating routed initiate requests with
	// their reply frames.  hosted is read lock-free on every routing decision
	// and replaced wholesale (under vm.mu, copy-on-write) when a buddy node
	// adopts a dead peer's clusters.
	hosted         atomic.Pointer[map[int]bool]
	home           int // lowest hosted cluster, resolved once at boot
	remote         Transport
	interceptAll   bool
	pendMu         sync.Mutex
	pendingReplies map[uint64]*initReply
	replySeq       atomic.Uint64

	arrays   *arrayStore
	files    *fileStore
	fileCtrl TaskID
	userCtrl TaskID

	// HA-mode state (ha.go): ha gates every fault-tolerance code path;
	// haGone keeps, per exited task, the admission floors it had at exit, so
	// a re-executed send to it can be told from a new one (see recordExit).
	// haGoneOld is the previous checkpoint interval's generation; Checkpoint
	// rotates them so the maps stay bounded.  Guarded by haGoneMu, not vm.mu:
	// the maps are consulted on initiate paths that hold a cluster lock.
	ha        bool
	haGoneMu  sync.Mutex
	haGone    map[TaskID]map[TaskID]uint64
	haGoneOld map[TaskID]map[TaskID]uint64

	uniqueCtr atomic.Int64
	// userTasks counts running user tasks plus the holds of fire-and-forget
	// initiate requests no task controller has answered yet; hold is the reply
	// such a request carries, which releases its hold in place of waking an
	// initiator, and holds counts the holds ever taken (see enqueue, WaitIdle).
	userTasks  backend.WaitGroup
	hold       *initReply
	holds      atomic.Int64
	tableBytes int

	// Causal edge ids: every routed (cross-cluster or cross-node) message is
	// stamped with edgeBase | edgeSeq so traces and flight-recorder dumps
	// from different nodes merge without collisions.  The intra-cluster fast
	// path is never stamped — it pays nothing.
	edgeBase uint64
	edgeSeq  atomic.Uint64

	timeLimitTimer backend.Timer

	// Per-tenant limit state (limits.go): the shared heap budget attached to
	// every shard, the WallClock timer, cumulative terminal output, and the
	// first recorded violation.
	heapBudget     *memory.Budget
	wallClockTimer backend.Timer
	outputUsed     atomic.Int64
	limitMu        sync.Mutex
	limitErr       *LimitError

	// Observability: the registry plus pre-resolved metric handles, so hot
	// paths pay one atomic mask load when disabled and no map lookups when
	// enabled (see internal/obs).
	om vmObs

	// statistics
	initiated   atomic.Int64
	completed   atomic.Int64
	msgsSent    atomic.Int64
	msgsAccpt   atomic.Int64
	windowOps   atomic.Int64
	windowBytes atomic.Int64
}

// vmObs bundles the observability registry with pre-resolved handles for
// every metric the core bumps on hot paths.  Resolution happens once at
// boot; the handles are plain atomics after that.
type vmObs struct {
	reg          *obs.Registry
	heapCharges  *obs.Counter   // core.heap.charge: messages charged to a shard
	heapRecovers *obs.Counter   // core.heap.recover: message storage recovered
	heapMsgBytes *obs.Histogram // core.heap.msg.bytes: charged message sizes
	acceptWait   *obs.Histogram // core.accept.wait.ns: time blocked in ACCEPT
	encodeNS     *obs.Histogram // codec.encode.ns: argument packet encode time
	decodeNS     *obs.Histogram // codec.decode.ns: argument packet decode time
}

func (o *vmObs) init(reg *obs.Registry, b backend.Backend) {
	if reg == nil {
		reg = obs.New()
	}
	reg.SetClock(b.Now)
	o.reg = reg
	o.heapCharges = reg.Counter("core.heap.charge")
	o.heapRecovers = reg.Counter("core.heap.recover")
	o.heapMsgBytes = reg.Histogram("core.heap.msg.bytes", "B")
	o.acceptWait = reg.Histogram("core.accept.wait.ns", "ns")
	o.encodeNS = reg.Histogram("codec.encode.ns", "ns")
	o.decodeNS = reg.Histogram("codec.decode.ns", "ns")
}

// Obs returns the VM's observability registry (never nil after boot).
func (vm *VM) Obs() *obs.Registry { return vm.om.reg }

// metricsOn is the hot-path guard: one atomic load.
func (vm *VM) metricsOn() bool { return vm.om.reg.Has(obs.Metrics) }

// newEdge mints a causal edge id for one routed message: the node id in the
// high 16 bits, a per-VM sequence below.  Edge ids are never zero, so zero
// means "unstamped" everywhere they travel.
func (vm *VM) newEdge() uint64 { return vm.edgeBase | vm.edgeSeq.Add(1) }

// FlightRecorder returns the recorder the VM was booted with, nil if none.
func (vm *VM) FlightRecorder() *obs.Recorder { return vm.om.reg.Recorder() }

// NewVM boots a virtual machine for the given configuration on a fresh
// simulated FLEX/32 with the default hardware description.
func NewVM(cfg *config.Configuration, opts Options) (*VM, error) {
	return NewVMOn(flex.MustNewMachine(flex.DefaultConfig()), cfg, opts)
}

// NewVMOn boots a virtual machine for the given configuration on an existing
// simulated machine.  It validates the configuration, allocates the system
// tables in shared memory, charges the PISCES system's local-memory footprint
// to every PE the configuration uses, and starts the controller tasks.
func NewVMOn(machine *flex.Machine, cfg *config.Configuration, opts Options) (*VM, error) {
	if err := cfg.Validate(machine.Config()); err != nil {
		return nil, err
	}
	if opts.AcceptTimeout <= 0 {
		opts.AcceptTimeout = 5 * time.Second
	}
	if opts.SystemLocalBytes <= 0 {
		opts.SystemLocalBytes = DefaultSystemLocalBytes
	}
	if opts.Backend == nil {
		opts.Backend = backend.Default()
	}
	vm := &VM{
		machine:   machine,
		kernel:    mmos.NewKernelOn(machine, opts.Backend),
		cfg:       cfg.Clone(),
		opts:      opts,
		backend:   opts.Backend,
		tasktypes: make(map[string]TaskType),
		tasks:     make(map[TaskID]*taskRec),
		clusters:  make(map[int]*clusterRT),
		ha:        opts.HA,
	}
	vm.om.init(opts.Metrics, opts.Backend)
	// Attach after init: the registry clock is already the backend's, so the
	// recorder inherits virtual time under a deterministic backend.
	vm.om.reg.AttachRecorder(opts.FlightRecorder)
	vm.om.reg.AddTraceSink(opts.TraceSinks...)
	vm.edgeBase = uint64(opts.NodeID) << 48
	vm.userTasks = vm.backend.NewWaitGroup()
	vm.hold = &initReply{fn: func(TaskID) { vm.userTasks.Done() }}
	vm.arrays = newArrayStore()
	vm.files = newFileStore()
	vm.pendingReplies = make(map[uint64]*initReply)
	vm.remote = opts.Remote
	vm.interceptAll = opts.InterceptWire
	if opts.Hosted != nil {
		hosted := make(map[int]bool, len(opts.Hosted))
		for _, n := range opts.Hosted {
			if cfg.Cluster(n) == nil {
				return nil, fmt.Errorf("%w: hosted cluster %d", ErrNoSuchCluster, n)
			}
			hosted[n] = true
		}
		if len(hosted) == 0 {
			return nil, fmt.Errorf("core: a node must host at least one cluster")
		}
		if len(hosted) < len(cfg.Clusters) && vm.remote == nil {
			return nil, fmt.Errorf("core: clusters hosted elsewhere require a remote transport")
		}
		vm.hosted.Store(&hosted)
	}
	if vm.interceptAll && vm.remote == nil {
		return nil, fmt.Errorf("core: InterceptWire requires a remote transport")
	}

	for _, ev := range cfg.TraceEvents {
		k, err := trace.ParseKind(ev)
		if err != nil {
			return nil, err
		}
		vm.om.reg.TraceKind(k, true)
	}

	// System tables: one VM header, one record per cluster, one per slot
	// (including the controller slots).
	tableBytes := bytesVMHeader
	for _, cl := range cfg.Clusters {
		tableBytes += bytesClusterRecord + (cl.Slots+reservedSlots(cl.Number == lowestCluster(cfg)))*bytesSlotRecord
	}
	if err := machine.Shared().AllocTable(tableBytes); err != nil {
		return nil, fmt.Errorf("core: allocating system tables: %w", err)
	}
	vm.tableBytes = tableBytes

	// Charge the PISCES system's code+data to every PE the configuration uses.
	for _, pe := range cfg.UsedPEs() {
		if err := machine.PE(pe).AllocLocal(opts.SystemLocalBytes); err != nil {
			return nil, fmt.Errorf("core: loading PISCES system on PE %d: %w", pe, err)
		}
	}

	// Build the cluster run-time structures.
	for _, cl := range cfg.Clusters {
		rt, err := newClusterRT(vm, cl, cl.Number == lowestCluster(cfg))
		if err != nil {
			return nil, err
		}
		vm.clusters[cl.Number] = rt
	}

	// Shard the message heap per cluster so intra-cluster sends only ever
	// touch their own cluster's allocator lock; cross-cluster traffic moves
	// between shards through the wire codec (router.go).
	nums := cfg.ClusterNumbers()
	if err := machine.Shared().ShardHeap(len(nums)); err != nil {
		return nil, fmt.Errorf("core: sharding message heap: %w", err)
	}
	for i, n := range nums {
		vm.clusters[n].heap = machine.Shared().HeapShard(i)
	}

	// One tenant budget across every shard: per-cluster isolation bounds what
	// a cluster can hold, the budget bounds what the whole tenant can hold.
	if vm.opts.Limits.HeapBytes > 0 {
		vm.heapBudget = memory.NewBudget(vm.opts.Limits.HeapBytes)
		for _, n := range nums {
			vm.clusters[n].heap.SetBudget(vm.heapBudget)
		}
	}

	// The home cluster (the node's identity in frames sent by the execution
	// environment) is fixed for the VM's lifetime; resolve it once instead of
	// sorting the cluster set on every remote-routing decision.
	vm.home = nums[0]
	for _, n := range nums {
		if vm.hosts(n) {
			vm.home = n
			break
		}
	}

	if err := vm.startControllers(); err != nil {
		return nil, err
	}
	vm.mu.Lock()
	vm.started = true
	vm.mu.Unlock()

	if cfg.TimeLimit > 0 {
		vm.timeLimitTimer = vm.backend.AfterFunc(cfg.TimeLimit, vm.timeLimitExpired)
	}
	if vm.opts.Limits.WallClock > 0 {
		vm.wallClockTimer = vm.backend.AfterFunc(vm.opts.Limits.WallClock, vm.wallClockExpired)
	}
	return vm, nil
}

// reservedSlots returns the number of controller slots in a cluster: every
// cluster has a task controller; the terminal cluster additionally hosts the
// user controller and the file controller.
func reservedSlots(terminalCluster bool) int {
	if terminalCluster {
		return 3
	}
	return 1
}

func lowestCluster(cfg *config.Configuration) int {
	nums := cfg.ClusterNumbers()
	return nums[0]
}

// Machine returns the simulated FLEX/32 the VM runs on.
func (vm *VM) Machine() *flex.Machine { return vm.machine }

// Kernel returns the MMOS kernel.
func (vm *VM) Kernel() *mmos.Kernel { return vm.kernel }

// Backend returns the scheduling backend the VM runs on; transports use it
// so their timers and waits stay scheduler-visible under -sim.
func (vm *VM) Backend() backend.Backend { return vm.backend }

// Configuration returns (a copy of) the configuration the VM was booted with.
func (vm *VM) Configuration() *config.Configuration { return vm.cfg.Clone() }

// UserControllerID returns the taskid of the user controller; it is the
// parent of tasks initiated from the execution environment.
func (vm *VM) UserControllerID() TaskID { return vm.userCtrl }

// FileControllerID returns the taskid of the file controller, the owner of
// file-resident arrays.
func (vm *VM) FileControllerID() TaskID { return vm.fileCtrl }

// Register makes a tasktype available for initiation.  Registering a name
// twice replaces the previous definition; registration after tasks are
// running is allowed (the preprocessor emits all registrations up front).
func (vm *VM) Register(name string, body func(*Task)) {
	vm.RegisterType(TaskType{Name: name, Body: body})
}

// RegisterType registers a fully specified tasktype.
func (vm *VM) RegisterType(tt TaskType) {
	if tt.LocalBytes <= 0 {
		tt.LocalBytes = DefaultTaskLocalBytes
	}
	vm.mu.Lock()
	vm.tasktypes[tt.Name] = tt
	vm.mu.Unlock()
}

// taskType looks up a registered tasktype.
func (vm *VM) taskType(name string) (TaskType, bool) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	tt, ok := vm.tasktypes[name]
	return tt, ok
}

// TaskTypes returns the registered tasktype names, sorted.
func (vm *VM) TaskTypes() []string {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	out := make([]string, 0, len(vm.tasktypes))
	for name := range vm.tasktypes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// nextUnique returns the next unique number for a taskid.
func (vm *VM) nextUnique() int { return int(vm.uniqueCtr.Add(1)) }

// registerTask records a running task so messages can be routed to it.
func (vm *VM) registerTask(rec *taskRec) {
	vm.mu.Lock()
	vm.tasks[rec.id] = rec
	vm.mu.Unlock()
}

// unregisterTask removes a task from the routing table.
func (vm *VM) unregisterTask(id TaskID) {
	vm.mu.Lock()
	delete(vm.tasks, id)
	vm.mu.Unlock()
}

// lookupTask finds the record of a running task.
func (vm *VM) lookupTask(id TaskID) (*taskRec, bool) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	rec, ok := vm.tasks[id]
	return rec, ok
}

// cluster returns the run-time structure for cluster n.
func (vm *VM) cluster(n int) (*clusterRT, bool) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	cl, ok := vm.clusters[n]
	return cl, ok
}

// clusterNumbers returns the configured cluster numbers in ascending order.
func (vm *VM) clusterNumbers() []int {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	out := make([]int, 0, len(vm.clusters))
	for n := range vm.clusters {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// terminated reports whether the VM has been shut down.
func (vm *VM) terminated() bool {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return vm.stopped
}

// Initiate requests initiation of a top-level task from the execution
// environment (menu option "INITIATE A TASK").  The request is sent to the
// task controller of the placed cluster exactly as a task-issued INITIATE
// would be; the call then waits until a slot is assigned and returns the new
// task's id.  The new task's parent is the user controller, so its replies
// "TO PARENT" reach the user terminal.
func (vm *VM) Initiate(tasktype string, placement Placement, args ...Value) (TaskID, error) {
	if vm.terminated() {
		return NilTask, ErrVMTerminated
	}
	if _, ok := vm.taskType(tasktype); !ok {
		return NilTask, fmt.Errorf("%w: %q", ErrUnknownTaskType, tasktype)
	}
	cl, err := vm.placeCluster(placement, 0)
	if err != nil {
		return NilTask, err
	}
	reply := newInitReply(vm.backend)
	if _, _, err := vm.dispatch(nil, cl.controllerID, msgInitRequest, vm.userCtrl, initRequestArgs(tasktype, vm.userCtrl, args), 0, reply); err != nil {
		return NilTask, err
	}
	id := reply.wait()
	if id.IsNil() {
		return NilTask, ErrVMTerminated
	}
	return id, nil
}

// initReply carries a new task's id back to whoever requested its initiation:
// VM.Initiate and Task.InitiateWait wait on the gate, the task controller (or
// a failure path) delivers exactly once.  It replaces the raw reply channel so
// the wait is scheduler-visible under a deterministic backend.
type initReply struct {
	gate backend.Gate
	id   TaskID
	// fn, when set, replaces the gate: the reply is forwarded (a reply frame
	// back to the node that sent a routed initiate request) instead of waking
	// a local waiter.
	fn func(TaskID)
	// edge is the causal edge id of the routed initiate request this reply
	// answers (0 when unstamped); the requesting node ends the flow on it
	// when the reply lands, closing the cross-node round trip in the trace.
	edge uint64
}

func newInitReply(b backend.Backend) *initReply { return &initReply{gate: b.NewGate()} }

// deliver publishes the assigned id (NilTask on failure) and wakes the
// waiter.  A nil receiver (fire-and-forget INITIATE) is a no-op.
func (r *initReply) deliver(id TaskID) {
	if r == nil {
		return
	}
	if r.fn != nil {
		r.fn(id)
		return
	}
	r.id = id
	r.gate.Open()
}

// wait blocks until the reply has been delivered and returns the id.
func (r *initReply) wait() TaskID {
	r.gate.Wait()
	return r.id
}

// Deterministic reports whether the VM runs on a deterministic scheduling
// backend.  Run-time layers use it to insert extra cooperative scheduling
// points (the interpreter yields between statements) that would only cost
// time under the goroutine backend.
func (vm *VM) Deterministic() bool { return vm.backend.Deterministic() }

// Run initiates a top-level task, waits for it to terminate, and returns its
// id.  It is the convenience used by examples and experiments.
func (vm *VM) Run(tasktype string, placement Placement, args ...Value) (TaskID, error) {
	id, err := vm.Initiate(tasktype, placement, args...)
	if err != nil {
		return NilTask, err
	}
	return id, vm.WaitTask(id)
}

// WaitTask blocks until the task with the given id has terminated.  Waiting
// on an id that is not running returns immediately.
func (vm *VM) WaitTask(id TaskID) error {
	rec, ok := vm.lookupTask(id)
	if !ok {
		return nil
	}
	rec.done.Wait()
	return nil
}

// WaitIdle blocks until every user task initiated so far has terminated,
// counting a task from the moment its INITIATE request reaches its task
// controller's in-queue (the enqueue hold), not from the moment it starts: a
// task whose last statement is a fire-and-forget INITIATE leaves a child
// behind, not an idle machine.  Such a request may still be in a
// latency-injecting transport's delay line when its sender exits, so the wait
// lands in-flight traffic and goes round again until a flush lands no request.
func (vm *VM) WaitIdle() {
	for {
		vm.userTasks.Wait()
		held := vm.holds.Load()
		vm.flushTransports()
		if vm.holds.Load() == held {
			return
		}
	}
}

// FlushUserOutput blocks until the user controller has processed every
// message queued before the call, so terminal output sent with Println or
// SendUser has been written to the configured output.  It is a convenience
// for examples and experiments that interleave their own printing with task
// output.
func (vm *VM) FlushUserOutput() {
	rec, ok := vm.lookupTask(vm.userCtrl)
	if !ok {
		return
	}
	// Land in-flight cross-cluster traffic first: a task's terminal output
	// may still sit in a fault-injecting transport's delay line, and "queued
	// before the call" includes that.
	vm.flushTransports()
	gate := vm.backend.NewGate()
	msg := newMessage(msgUserSync, vm.userCtrl)
	msg.sync = gate
	if rec.queue.put(msg) != putOK {
		recycleMessage(msg)
		return
	}
	gate.Wait()
}

// placeCluster resolves a Placement to a cluster, given the initiating
// cluster (0 when the initiator is the execution environment).
func (vm *VM) placeCluster(p Placement, from int) (*clusterRT, error) {
	nums := vm.clusterNumbers()
	switch p.kind {
	case placeCluster:
		cl, ok := vm.cluster(p.cluster)
		if !ok {
			return nil, fmt.Errorf("%w: %d", ErrNoSuchCluster, p.cluster)
		}
		return cl, nil
	case placeSame:
		if from == 0 {
			from = nums[0]
		}
		cl, ok := vm.cluster(from)
		if !ok {
			return nil, fmt.Errorf("%w: %d", ErrNoSuchCluster, from)
		}
		return cl, nil
	case placeOther:
		best := vm.leastLoaded(nums, from)
		if best == nil {
			return nil, ErrNoOtherCluster
		}
		return best, nil
	default: // placeAny
		best := vm.leastLoaded(nums, 0)
		if best == nil {
			return nil, ErrNoSuchCluster
		}
		return best, nil
	}
}

// leastLoaded returns the cluster with the most free user slots, excluding
// cluster `exclude` (0 excludes nothing).  Ties go to the lowest number.
func (vm *VM) leastLoaded(nums []int, exclude int) *clusterRT {
	var best *clusterRT
	bestFree := -1
	for _, n := range nums {
		if n == exclude {
			continue
		}
		cl, ok := vm.cluster(n)
		if !ok {
			continue
		}
		if free := cl.freeSlots(); free > bestFree {
			best, bestFree = cl, free
		}
	}
	return best
}

// chargeMessageOn allocates the message's shared-memory footprint, size bytes
// (its packet-model size, which the caller already has: encodedSize of the
// list, or what decoding it counted), on the given heap shard — always the
// destination cluster's: the receiver's run-time recovers the storage when the
// message is accepted — makes the message its owner and counts the charge;
// releaseMessage is its inverse.
func (vm *VM) chargeMessageOn(heap *memory.Allocator, msg *Message, size int) error {
	c, err := heap.Alloc(size)
	if err != nil {
		return vm.heapErr(err)
	}
	msg.heapBytes = size
	msg.heapCharge = c
	msg.heapShard = heap
	if vm.metricsOn() {
		vm.om.heapCharges.Inc()
		vm.om.heapMsgBytes.Observe(int64(size))
	}
	return nil
}

// releaseMessage frees the message's shared-memory footprint from the shard
// it was charged to.  The message keeps heapBytes, which prices its accept.
func (vm *VM) releaseMessage(msg *Message) {
	if msg.heapBytes > 0 && msg.heapShard != nil {
		_ = msg.heapShard.Free(msg.heapCharge)
		msg.heapShard = nil
		if vm.metricsOn() {
			vm.om.heapRecovers.Inc()
		}
	}
}

// releaseRun frees the footprints of an ACCEPT run's messages in a single
// Free of their summed charges on heap — the accepting cluster's shard, which
// its in-queue is charged to — with any message charged elsewhere released on
// its own.
func (vm *VM) releaseRun(run []*Message, heap *memory.Allocator) {
	sum, n := 0, 0
	for _, m := range run {
		if m.heapShard != heap || m.heapBytes == 0 {
			vm.releaseMessage(m)
			continue
		}
		sum += m.heapCharge
		n++
		m.heapShard = nil
	}
	if n > 0 {
		_ = heap.Free(sum)
		if vm.metricsOn() {
			vm.om.heapRecovers.Add(int64(n))
		}
	}
}

// dropMessage disposes of a message no task will accept: its storage is
// recovered, the initiate reply it may carry is failed — so neither a waiting
// initiator nor an enqueue hold outlives the request — and its header goes
// back to the pool.
func (vm *VM) dropMessage(m *Message) {
	vm.releaseMessage(m)
	m.reply.deliver(NilTask)
	recycleMessage(m)
}

// timeLimitExpired enforces the configuration's execution time limit by
// killing every user task still running.
func (vm *VM) timeLimitExpired() {
	for _, info := range vm.RunningTasks() {
		if !info.Controller {
			_ = vm.Kill(info.ID)
		}
	}
}

// Shutdown terminates the run (menu option "TERMINATE THE RUN"): every user
// task is killed, controllers are stopped, and the system tables are
// released.  The VM cannot be used afterwards.
func (vm *VM) Shutdown() {
	vm.mu.Lock()
	if vm.stopped {
		vm.mu.Unlock()
		return
	}
	vm.stopped = true
	vm.mu.Unlock()

	if vm.timeLimitTimer != nil {
		vm.timeLimitTimer.Stop()
	}
	if vm.wallClockTimer != nil {
		vm.wallClockTimer.Stop()
	}

	// Snapshot every task record so the teardown below can also wait for the
	// underlying MMOS processes to exit.  The snapshot is sorted so kills,
	// shutdown messages, and their trace events happen in the same order
	// every run — map iteration order must not leak into deterministic runs.
	vm.mu.Lock()
	var all []*taskRec
	for _, rec := range vm.tasks {
		all = append(all, rec)
	}
	vm.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].id.less(all[j].id) })

	// Kill user tasks and wait for them to drain.
	for _, rec := range all {
		if !rec.isController {
			rec.kill()
		}
	}
	vm.userTasks.Wait()

	// Unblock anyone still waiting on a routed initiate reply (possibly a
	// request another node will never answer now).
	vm.failPendingReplies()

	// Land whatever a latency-injecting remote transport still holds, then
	// refuse further cross-cluster sends: no user task can send any more, and
	// everything still in flight must land (terminal output especially)
	// before the controllers are told to exit — a print delivered after the
	// user controller's shutdown message would be lost.
	vm.flushTransports()
	vm.routeClosed.Store(true)

	// Stop the controllers.
	for _, rec := range all {
		if !rec.isController {
			continue
		}
		msg := newMessage(msgShutdown, vm.userCtrl)
		// Shutdown must succeed even if the message heap is exhausted, so the
		// message is delivered without charging the heap.
		if rec.queue.put(msg) != putOK {
			recycleMessage(msg)
		}
	}
	for _, rec := range all {
		if rec.isController {
			rec.done.Wait()
		}
	}
	// Wait for the MMOS processes themselves so the kernel is quiescent when
	// Shutdown returns.
	for _, rec := range all {
		if p := rec.getProc(); p != nil {
			p.WaitExited()
		}
	}
	vm.machine.Shared().FreeTable(vm.tableBytes)
}

// Stats summarises run-time activity.
type Stats struct {
	TasksInitiated   int64
	TasksCompleted   int64
	MessagesSent     int64
	MessagesAccepted int64
}

// Stats returns run-time counters.
func (vm *VM) Stats() Stats {
	return Stats{
		TasksInitiated:   vm.initiated.Load(),
		TasksCompleted:   vm.completed.Load(),
		MessagesSent:     vm.msgsSent.Load(),
		MessagesAccepted: vm.msgsAccpt.Load(),
	}
}

// Placement is the <cluster> part of an INITIATE statement.
type Placement struct {
	kind    placementKind
	cluster int
}

type placementKind int

const (
	placeAny placementKind = iota
	placeCluster
	placeOther
	placeSame
)

// OnCluster places the new task on the given cluster number
// ("CLUSTER <number>").
func OnCluster(n int) Placement { return Placement{kind: placeCluster, cluster: n} }

// Any lets the system choose a cluster ("ANY").
func Any() Placement { return Placement{kind: placeAny} }

// Other places the new task on a cluster different from the initiator's
// ("OTHER").
func Other() Placement { return Placement{kind: placeOther} }

// Same places the new task on the initiator's cluster ("SAME").
func Same() Placement { return Placement{kind: placeSame} }

// String renders the placement in Pisces Fortran syntax.
func (p Placement) String() string {
	switch p.kind {
	case placeCluster:
		return fmt.Sprintf("CLUSTER %d", p.cluster)
	case placeOther:
		return "OTHER"
	case placeSame:
		return "SAME"
	default:
		return "ANY"
	}
}
