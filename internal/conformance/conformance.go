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
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strings"
	"time"

	"repro/internal/backend"
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
	// cluster, in cluster order; a RunKill run lists the survivor's shards,
	// then the dead VM's): the sweep asserts every shard is empty, so a leak
	// pinned to one cluster's shard is reported as such.
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
	Victims     int // user tasks running on the killed node at the kill
	Checkpoints int // checkpoints the killed node shipped before the kill
	Deaths      int // deaths the survivor's detector declared (node.ha.deaths)
	Replayed    int // retained frames the survivor replayed after the restore
	// Err joins every checkpoint, restore or replay a node logged as failed.
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
func Run(src string, seed int64) Result { return run(src, seed, nil, nil) }

// RunInstrumented is Run with the full observability surface switched on:
// metrics AND spans collected at every instrumented layer.  The sweep uses it
// to assert instrumentation is transparent (program output and schedule
// unchanged) and deterministic (snapshot and trace byte-stable per seed).
func RunInstrumented(src string, seed int64) Result {
	reg := obs.New()
	reg.Enable(obs.Metrics | obs.Spans)
	return run(src, seed, reg, nil)
}

// RunRecorded is Run with the flight recorder attached.  The sweep uses it to
// assert the recorder is schedule-transparent (recording changes neither the
// output nor the step count of any schedule) and that its dump — every
// timestamp virtual — is byte-stable per seed.
func RunRecorded(src string, seed int64) Result {
	return run(src, seed, nil, obs.NewRecorder(0, 0, 0))
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
	return run(src, seed, reg, obs.NewRecorder(0, 0, 0))
}

// RunFault is Run on the node runtime: the harness machine's two clusters
// on two nodes (node.FaultMesh, as `pisces run -nodes 2 -sim`), every write
// between nodes paying seeded virtual-clock delays, so the sweep exercises network schedules a single process never
// produces, through the code a real node runs, reproducibly from the seed.
func RunFault(src string, seed int64) Result { return runMesh(src, seed, nil, nil, 0, nil, nil) }

// RunKill runs the program on RunFault's mesh in HA mode and kills one node
// mid-run.  Node 0 hosts cluster 1 and the terminal, whose controllers
// anchor the run and are not recoverable; node 1 hosts cluster 2, the
// task-initiated part.  Every node checkpoints every ckptEvery, and node 1
// dies at killAt (mesh.Kill); node 0 hears the silence, declares it dead,
// adopts and restores cluster 2 and replays what it retained, as on a TCP
// mesh.  It all runs on the virtual clock, so a recovery replays
// byte-identically from (seed, killAt, ckptEvery).  Output is node 0's
// terminal; node 1's goes to a writer of its own.  HeapShardsInUse lists
// node 0's shards, then node 1's.
func RunKill(src string, seed int64, killAt, ckptEvery time.Duration) (Result, *KillRecovery) {
	rec := &KillRecovery{}
	var log bytes.Buffer
	res := runMesh(src, seed, nil, nil, ckptEvery, &log, func(mesh *node.FaultMesh, s *sim.Scheduler) func() {
		var killed backend.Gate
		kill := s.AfterFunc(killAt, func() {
			killed = s.NewGate()
			s.Spawn("harness kill", func() {
				for _, ti := range mesh.VMs[1].RunningTasks() {
					if !ti.Controller {
						rec.Victims++
					}
				}
				rec.Checkpoints = int(mesh.VMs[1].Obs().Counter("node.ha.ckpt.tx").Load())
				rec.Replayed = mesh.Kill(1)
				rec.Deaths = int(mesh.VMs[0].Obs().Counter("node.ha.deaths").Load())
				killed.Open()
			})
		})
		return func() {
			if !kill.Stop() {
				killed.Wait()
			}
		}
	})
	// The nodes log what no terminal shows: a checkpoint, restore or replay
	// that failed.
	var errs []error
	for _, line := range strings.Split(log.String(), "\n") {
		if strings.Contains(line, "checkpoint failed") || strings.Contains(line, "restoring node") || strings.Contains(line, "replaying retained frames") {
			errs = append(errs, errors.New(line))
		}
	}
	rec.Err = errors.Join(errs...)
	return res, rec
}

// runMesh runs the program on the harness configuration's fault mesh.  With
// reg the nodes share it, and rec; without, each node has a registry of its
// own.  A kill run boots the nodes in HA mode, checkpointing every ckptEvery
// with metrics on, logging to log, node 1 writing to a terminal of its own;
// kill arms its schedule before MAIN starts and returns the wait for a kill
// in progress, run before Shutdown.
func runMesh(src string, seed int64, reg *obs.Registry, rec *obs.Recorder, ckptEvery time.Duration, log io.Writer, kill func(*node.FaultMesh, *sim.Scheduler) func()) (res Result) {
	s := sim.New(seed)
	var out, deadOut bytes.Buffer
	mem := &trace.MemorySink{}
	defer recoverDeadlock(&res, s, &out, mem)

	prog, err := harnessCache.Compile(src)
	if err != nil {
		res.Err = err
		return res
	}
	if reg != nil {
		reg.AddTraceSink(mem)
		reg.AttachRecorder(rec)
	}
	mesh, err := node.NewFaultMesh(harnessConfig(), s, 2, func(i int) node.Options {
		o := node.Options{Out: &out, AcceptTimeout: 30 * time.Second, Metrics: reg}
		if reg == nil {
			o.Metrics = obs.New()
			o.Metrics.AddTraceSink(mem)
		}
		if kill != nil {
			// Heartbeats on the program's time scale: a run that waits out an
			// hour-long DELAY need not beat every 25ms of it.  The detector
			// suspects after ten silent beats, well past the network's worst
			// delay.
			beat := max(ckptEvery/8, node.MaxFaultDelay/4)
			o.Metrics.Enable(obs.Metrics)
			o.HA, o.CheckpointInterval, o.HeartbeatInterval, o.Log = true, ckptEvery, beat, log
			if i > 0 {
				o.Out = &deadOut
			}
		}
		return o
	})
	if err != nil {
		res.Err = err
		return res
	}
	for _, vm := range mesh.VMs {
		vm.Obs().TraceAll(true)
	}
	await := func() {}
	if kill != nil {
		await = kill(mesh, s)
	}
	start := s.Now()
	err = mesh.Run(prog, pfi.Options{})
	res.VirtualElapsed = s.Now().Sub(start)
	await()
	mesh.Shutdown()
	collect(&res, s, &out, mem, mesh.VMs...)
	res.Err = err
	observe(&res, reg, rec)
	return res
}

// harnessConfig is the machine every harness run boots: two clusters with a
// three-member force on cluster 1, enough hardware that placements,
// cross-cluster sends, and force collectives all have real scheduling
// freedom.
func harnessConfig() *config.Configuration { return config.Simple(2, 8).WithForces(1, 7, 8) }

// recoverDeadlock, deferred, turns a deadlocked schedule into the run's
// result, keeping the output and trace produced up to the deadlock.
func recoverDeadlock(res *Result, s *sim.Scheduler, out *bytes.Buffer, mem *trace.MemorySink) {
	r := recover()
	if r == nil {
		return
	}
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

func run(src string, seed int64, reg *obs.Registry, rec *obs.Recorder) (res Result) {
	s := sim.New(seed)
	var out bytes.Buffer
	mem := &trace.MemorySink{}
	defer recoverDeadlock(&res, s, &out, mem)

	vm, err := core.NewVM(harnessConfig(), core.Options{
		UserOutput:     &out,
		Backend:        s,
		AcceptTimeout:  30 * time.Second, // virtual: expires only at quiescence
		TraceSinks:     []trace.Sink{mem},
		Metrics:        reg,
		FlightRecorder: rec,
	})
	if err != nil {
		res.Err = err
		return res
	}
	vm.Obs().TraceAll(true)
	start := s.Now()

	prog, err := harnessCache.Compile(src)
	if err != nil {
		vm.Shutdown()
		res.Err = err
		return res
	}
	runErr := prog.Run(vm, pfi.Options{})
	res.VirtualElapsed = s.Now().Sub(start)
	vm.Shutdown()
	collect(&res, s, &out, mem, vm)
	res.Err = runErr
	observe(&res, reg, rec)
	return res
}

// collect fills in what a finished run left behind: the terminal output, the
// trace, the step count, and the heap still allocated on every shard of
// every VM, in VM order.
func collect(res *Result, s *sim.Scheduler, out *bytes.Buffer, mem *trace.MemorySink, vms ...*core.VM) {
	res.Output = out.String()
	res.Trace = mem.Lines()
	res.Steps = s.Steps()
	for _, vm := range vms {
		res.HeapInUse += vm.Machine().Shared().Usage().HeapInUse
		for _, shard := range vm.Machine().Shared().HeapShards() {
			res.HeapShardsInUse = append(res.HeapShardsInUse, shard.InUse())
		}
	}
}

// observe encodes the registry's snapshot and Chrome trace and the flight
// recorder's dump, when the run had them.  It is called after Shutdown, when
// recording has quiesced; the dump timestamp comes from the (frozen) virtual
// clock.
func observe(res *Result, reg *obs.Registry, rec *obs.Recorder) {
	if reg != nil {
		res.ObsSnapshot = reg.Snapshot().Encode()
		var tr bytes.Buffer
		if err := reg.WriteChromeTrace(&tr); err == nil {
			res.ObsTrace = tr.Bytes()
		}
	}
	if rec != nil {
		if b, err := rec.Dump(); err == nil {
			res.RecorderDump = b
		}
	}
}
