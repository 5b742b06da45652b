// Package conformance is the deterministic-scheduling conformance harness
// for the Pisces VM: it runs a corpus of Pisces Fortran programs on the
// internal/sim backend across many PRNG seeds and checks the two properties
// the deterministic backend promises —
//
//  1. seed stability: the same program with the same seed produces
//     byte-identical terminal output and an identical trace event order on
//     every run;
//  2. schedule independence: corpus programs are written so their *semantic*
//     output (sums, counts, final states) does not depend on message arrival
//     order, so their terminal output must be identical across all seeds
//     even though the underlying interleavings differ.
//
// A third invariant rides along: after Shutdown the shared-memory message
// heap must be fully recovered on every schedule, which turns the seed sweep
// into a leak hunt over interleavings.
//
// The corpus lives in corpus/*.pf (embedded).  Each program keeps to
// schedule-independent output; see the README section "Deterministic mode"
// for what that means when adding programs.
package conformance

import (
	"bytes"
	"embed"
	"fmt"
	"io/fs"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pfi"
	"repro/internal/sim"
	"repro/internal/trace"
)

//go:embed corpus/*.pf
var corpusFS embed.FS

// Corpus returns the embedded conformance programs as name -> source, names
// sorted for deterministic iteration.
func Corpus() ([]string, map[string]string) {
	entries, err := fs.ReadDir(corpusFS, "corpus")
	if err != nil {
		panic(err) // embedded directory cannot be missing
	}
	srcs := make(map[string]string, len(entries))
	var names []string
	for _, e := range entries {
		b, err := fs.ReadFile(corpusFS, "corpus/"+e.Name())
		if err != nil {
			panic(err)
		}
		names = append(names, e.Name())
		srcs[e.Name()] = string(b)
	}
	sort.Strings(names)
	return names, srcs
}

// Result captures everything observable about one deterministic run.
type Result struct {
	// Output is the user-terminal output.
	Output string
	// Trace is the rendered trace lines of every enabled event, in global
	// emission order.
	Trace []string
	// Steps is the number of scheduling decisions the run took.
	Steps int64
	// HeapInUse is the shared-memory message heap still allocated after
	// Shutdown, summed over every per-cluster shard; any non-zero value is a
	// leak on this schedule.
	HeapInUse int
	// HeapShardsInUse is the same quantity per heap shard (one entry per
	// cluster, in cluster order): the sweep asserts every shard is empty, so
	// a leak pinned to one cluster's shard is reported as such.
	HeapShardsInUse []int
	// Err is the program's compile- or run-time error, if any.
	Err error
	// Deadlock is non-nil when the schedule wedged (it is also wrapped in
	// Err).
	Deadlock *sim.Deadlock
	// ObsSnapshot and ObsTrace are the encoded metric snapshot and the
	// Chrome trace-event JSON of a RunInstrumented run (nil otherwise).
	// Under the sim backend every timestamp in them comes from the virtual
	// clock, so both must be byte-identical across runs of the same seed.
	ObsSnapshot []byte
	ObsTrace    []byte
	// RecorderDump is the encoded flight-recorder blackbox of a RunRecorded
	// run (nil otherwise).  Every timestamp in it is virtual, so it must be
	// byte-identical across runs of the same seed.
	RecorderDump []byte
	// VirtualElapsed is the virtual time the program took (from VM boot to
	// the end of the program, before shutdown).  Kill schedules are phrased
	// as fractions of a reference run's elapsed time.
	VirtualElapsed time.Duration
}

// KillRecovery reports what a RunKill recovery actually did, so the sweep
// can assert the kill landed mid-run rather than on an idle cluster.
type KillRecovery struct {
	// Victims is the number of tasks FailClusters killed.
	Victims int
	// Checkpoints is how many periodic checkpoints completed before the kill.
	Checkpoints int
	// Replayed is the number of retained post-checkpoint frames re-injected
	// after the restore.
	Replayed int
	// Err is a checkpoint/restore error raised inside the kill schedule.
	Err error
}

// harnessCache is the conformance harness's own compile-cache handle: sweep
// runs share compiled corpus units with each other (a 32-seed sweep compiles
// each program once) but not with the process-wide pfi cache, so harness
// traffic can neither pollute nor be polluted by other tests in the same
// test binary.
var harnessCache = pfi.NewUnitCache(0)

// Run executes one Pisces Fortran program on a fresh VM under the sim
// backend with the given seed and full tracing, and returns the observables.
// A deadlocked schedule is reported in the result, not panicked; the output
// and trace produced up to the deadlock are preserved for diagnosis.  (The
// VM of a deadlocked run is deliberately not shut down: its scheduler is
// poisoned and its parked tasks can never be resumed, so teardown would only
// re-raise the deadlock.  The handful of parked goroutines are abandoned.)
func Run(src string, seed int64) Result { return run(src, seed, false, nil, nil) }

// RunInstrumented is Run with the full observability surface switched on:
// metrics AND spans collected at every instrumented layer.  The sweep uses it
// to assert instrumentation is transparent (program output and schedule
// unchanged) and deterministic (snapshot and trace byte-stable per seed).
func RunInstrumented(src string, seed int64) Result {
	reg := obs.New()
	reg.Enable(obs.Metrics | obs.Spans)
	return run(src, seed, false, reg, nil)
}

// RunRecorded is Run with the flight recorder attached.  The sweep uses it to
// assert the recorder is schedule-transparent (recording changes neither the
// output nor the step count of any schedule) and that its dump — every
// timestamp virtual — is byte-stable per seed.
func RunRecorded(src string, seed int64) Result {
	return run(src, seed, false, nil, obs.NewRecorder(0, 0, 0))
}

// RunObserved is Run with every sink of the emission path on at once: the
// Section 12 trace (all kinds, as in every harness run), the flight recorder,
// and metrics plus spans.  It is the combination emit makes primary — one
// event fanned to all three — which neither RunInstrumented (no recorder) nor
// RunRecorded (no spans) covers; the sweep asserts it is schedule-transparent,
// seed-stable, and that each artefact equals the one its single-sink run
// produces, so no sink can see another.
func RunObserved(src string, seed int64) Result {
	reg := obs.New()
	reg.Enable(obs.Metrics | obs.Spans)
	return run(src, seed, false, reg, obs.NewRecorder(0, 0, 0))
}

// RunFault is Run with the node runtime's deterministic fault/latency
// transport intercepting every cross-cluster message: frames pay seeded
// virtual-clock delays (including retransmission faults) before delivery, so
// the sweep exercises network schedules a single process never produces —
// while staying byte-reproducible from the seed.
func RunFault(src string, seed int64) Result { return run(src, seed, true, nil, nil) }

// killedCluster is the cluster the kill sweep fails: MAIN is placed on the
// terminal cluster 1 (whose user/file controllers anchor the run and are not
// recoverable), so cluster 2 holds exactly the task-initiated — replayable —
// part of the machine.
const killedCluster = 2

// RunKill is RunFault with fault tolerance switched on and a simulated node
// failure in the schedule: cluster 2 is checkpointed every ckptEvery of
// virtual time (the transport retaining all frames delivered to it since the
// last checkpoint), failed at killAt, restored from the last checkpoint, and
// fed the retained frames back.  Everything — delays, checkpoint cuts, the
// kill — runs on the virtual clock, so the whole recovery schedule replays
// byte-identically from (seed, killAt, ckptEvery).
func RunKill(src string, seed int64, killAt, ckptEvery time.Duration) (Result, *KillRecovery) {
	rec := &KillRecovery{}
	res := run(src, seed, true, nil, nil, &killPlan{at: killAt, every: ckptEvery, rec: rec})
	return res, rec
}

// killPlan carries the kill schedule into run.
type killPlan struct {
	at    time.Duration
	every time.Duration
	rec   *KillRecovery
}

// install arms the periodic checkpoint chain and the kill timer on the fault
// transport's virtual clock.  stop() disarms the chain (called when the
// program completes, so a rearming timer cannot keep the shutdown pump
// alive).
func (k *killPlan) install(vm *core.VM, ft *node.FaultTransport) (stop func(), err error) {
	// Retention and the first (empty) checkpoint start at t=0: a kill before
	// the first periodic cut restores an empty cluster and rebuilds it
	// entirely from replayed frames.
	ft.MarkEpoch(killedCluster)
	blob, err := vm.Checkpoint(killedCluster)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	stopped := false
	var arm func(d time.Duration)
	arm = func(d time.Duration) {
		_ = ft.KillAt(d, func() {
			mu.Lock()
			if stopped {
				mu.Unlock()
				return
			}
			b, cerr := vm.Checkpoint(killedCluster)
			if cerr != nil {
				k.rec.Err = cerr
				mu.Unlock()
				return
			}
			blob = b
			ft.MarkEpoch(killedCluster)
			k.rec.Checkpoints++
			mu.Unlock()
			arm(d)
		})
	}
	arm(k.every)
	_ = ft.KillAt(k.at, func() {
		// Disarm checkpoints first: FailClusters pumps the scheduler while it
		// waits for the victims' exits, and a checkpoint cut taken during the
		// fail window would capture half-dead state.
		mu.Lock()
		stopped = true
		b := blob
		mu.Unlock()
		k.rec.Victims = vm.FailClusters(killedCluster)
		if rerr := vm.Restore(b); rerr != nil {
			k.rec.Err = rerr
			return
		}
		k.rec.Replayed = ft.ReplayRetained(killedCluster)
	})
	return func() {
		mu.Lock()
		stopped = true
		mu.Unlock()
	}, nil
}

func run(src string, seed int64, fault bool, reg *obs.Registry, rec *obs.Recorder, kill ...*killPlan) (res Result) {
	s := sim.New(seed)
	var out bytes.Buffer
	mem := &trace.MemorySink{}
	defer func() {
		if r := recover(); r != nil {
			d, ok := r.(*sim.Deadlock)
			if !ok {
				panic(r)
			}
			res.Deadlock = d
			res.Err = fmt.Errorf("schedule deadlocked: %w", d)
			res.Output = out.String()
			res.Trace = mem.Lines()
			res.Steps = s.Steps()
		}
	}()

	// Two clusters with a three-member force on cluster 1: enough hardware
	// that placements, cross-cluster sends, and force collectives all have
	// real scheduling freedom.
	cfg := config.Simple(2, 8).WithForces(1, 7, 8)
	opts := core.Options{
		UserOutput:     &out,
		Backend:        s,
		AcceptTimeout:  30 * time.Second, // virtual: expires only at quiescence
		TraceSinks:     []trace.Sink{mem},
		Metrics:        reg,
		FlightRecorder: rec,
	}
	var ft *node.FaultTransport
	if fault {
		ft = node.NewFaultTransport(seed, node.DefaultFaultProfile())
		opts.Remote = ft
		opts.InterceptWire = true
	}
	if len(kill) > 0 && kill[0] != nil {
		opts.HA = true // checkpoint/restore needs the HA bookkeeping on
	}
	vm, err := core.NewVM(cfg, opts)
	if err != nil {
		res.Err = err
		return res
	}
	if ft != nil {
		ft.Bind(vm)
	}
	vm.Obs().TraceAll(true)
	stopKill := func() {}
	if len(kill) > 0 && kill[0] != nil {
		stop, kerr := kill[0].install(vm, ft)
		if kerr != nil {
			vm.Shutdown()
			res.Err = kerr
			return res
		}
		stopKill = stop
		defer stop() // the deadlock path skips the explicit call below
	}
	start := s.Now()

	prog, err := harnessCache.Compile(src)
	if err != nil {
		vm.Shutdown()
		res.Err = err
		return res
	}
	runErr := prog.Run(vm, pfi.Options{})
	res.VirtualElapsed = s.Now().Sub(start)
	// Disarm the checkpoint chain before Shutdown: its drain pumps the
	// scheduler, and a self-rearming timer would keep the pump alive forever.
	stopKill()
	vm.Shutdown()

	res.Output = out.String()
	res.Trace = mem.Lines()
	res.Steps = s.Steps()
	res.HeapInUse = vm.Machine().Shared().Usage().HeapInUse
	for _, shard := range vm.Machine().Shared().HeapShards() {
		res.HeapShardsInUse = append(res.HeapShardsInUse, shard.InUse())
	}
	res.Err = runErr
	if reg != nil {
		res.ObsSnapshot = reg.Snapshot().Encode()
		var tr bytes.Buffer
		if err := reg.WriteChromeTrace(&tr); err == nil {
			res.ObsTrace = tr.Bytes()
		}
	}
	if rec != nil {
		// Dumped after Shutdown, when recording has quiesced; the dump
		// timestamp comes from the (frozen) virtual clock.
		if b, derr := rec.Dump(); derr == nil {
			res.RecorderDump = b
		}
	}
	return res
}
