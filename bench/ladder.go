package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// The traced run measures the layers from outside: it times calls into each
// module's public functions on the workload's own argument lists, and it
// runs the same fan-in on progressively longer paths (one cluster, two
// clusters of one VM, two nodes over TCP) so that differences between rungs
// price what each rung adds.  README.md lists which difference defines which
// row.

const (
	// rungTrials is how many trials of each ladder rung sit behind a median.
	rungTrials = 3
	// probeReps is how often a tight-loop probe is repeated.
	probeReps = 5
	rttRounds = 60_000
)

// probe times fn, which performs ops operations, probeReps times and adds
// the time per operation of each repetition, in unit, to s[name].
func (e *env) probe(s series, parent int, name string, unit time.Duration, ops int, fn func()) {
	sp := e.spans.begin(name, parent)
	defer e.spans.end(sp)
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		fn()
		s.add(name, float64(time.Since(t0))/float64(unit)/float64(ops))
	}
}

// allocDelta runs fn and returns the bytes and objects it allocated.
func allocDelta(fn func()) (bytes, objects float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
}

// codecProbes prices msgcodec and the shard allocator on the fan-in's own
// datum message.
func (e *env) codecProbes(s series, parent int, shape fanShape) error {
	iters := max(int(200_000*e.scale*8/float64(max(shape.reals, 8))), 100)
	payload := make([]float64, shape.reals)
	for i := range payload {
		payload[i] = float64(i)
	}
	args := []msgcodec.Arg{msgcodec.Reals(payload)}
	size, err := msgcodec.EncodedSize(args)
	if err != nil {
		return err
	}
	enc := make([]byte, 0, size)
	e.probe(s, parent, "msgcodec.encode.ns_per_msg", time.Nanosecond, iters, func() {
		for i := 0; i < iters; i++ {
			enc, err = msgcodec.AppendEncode(enc[:0], args)
		}
	})
	if err != nil {
		return err
	}
	var decoded []msgcodec.Arg
	e.probe(s, parent, "msgcodec.decode.ns_per_msg", time.Nanosecond, iters, func() {
		for i := 0; i < iters; i++ {
			decoded, err = msgcodec.Decode(enc)
		}
	})
	if err != nil || len(decoded) != 1 || len(decoded[0].RealArray) != shape.reals {
		return fmt.Errorf("msgcodec.Decode returned %d args, error %v", len(decoded), err)
	}
	bytes, _ := allocDelta(func() {
		for i := 0; i < iters; i++ {
			decoded, _ = msgcodec.Decode(enc)
		}
	})
	s.add("msgcodec.decode.alloc_bytes_per_msg", bytes/float64(iters))

	// Frames are written and split a batch at a time, as the node transport
	// does: 64 frames into one buffer, then 64 off it.
	const perBatch = 64
	batch := make([]byte, 0, perBatch*(size+4))
	e.probe(s, parent, "msgcodec.frame.ns_per_msg", time.Nanosecond, iters/perBatch*perBatch, func() {
		for i := 0; i < iters/perBatch; i++ {
			batch = batch[:0]
			for j := 0; j < perBatch; j++ {
				var start int
				batch, start = msgcodec.BeginFrame(batch)
				batch = append(batch, enc...)
				batch, err = msgcodec.EndFrame(batch, start, 0)
			}
			for rest := batch; len(rest) > 0; {
				_, rest, err = msgcodec.NextFrame(rest, 0)
			}
		}
	})
	if err != nil {
		return err
	}

	shard := memory.New(1 << 20)
	e.probe(s, parent, "memory.alloc_free.ns_per_msg", time.Nanosecond, iters, func() {
		for i := 0; i < iters; i++ {
			var off int
			if off, err = shard.Alloc(size); err == nil {
				err = shard.Free(off)
			}
		}
	})
	return err
}

// recorderProbe prices one flight-recorder event, from one goroutine and from
// two (each on its own shard, as two clusters record).
func (e *env) recorderProbe(s series, parent int) {
	iters := max(int(1_000_000*e.scale), 1000)
	rec := obs.NewRecorder(0, 0, 0)
	e.probe(s, parent, "obs.recorder.ns_per_event", time.Nanosecond, iters, func() {
		for i := 0; i < iters; i++ {
			rec.Record(0, msgcodec.EvSend, uint64(i), 1, 2)
		}
	})
	e.probe(s, parent, "obs.recorder.ns_per_event_2g", time.Nanosecond, iters, func() {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					rec.Record(g, msgcodec.EvSend, uint64(i), 1, 2)
				}
			}()
		}
		wg.Wait()
	})
}

// vmRungs runs the fan-in inside one VM: producers and collector in one
// cluster (core.intra: send, shard charge, queue, ACCEPT, no codec), then in
// two clusters (core.routed: adds encode, router lane, DeliverWire, decode).
func (e *env) vmRungs(s series, parent int, shape fanShape, rng *rand.Rand) error {
	f := newFanin(shape)
	vm, err := core.NewVM(config.Simple(2, 4), core.Options{
		AcceptTimeout:  30 * time.Second,
		FlightRecorder: obs.NewRecorder(0, 0, 0),
	})
	if err != nil {
		return err
	}
	defer vm.Shutdown()
	f.register(vm)
	for _, rung := range []struct {
		name   string
		cc, pc int
	}{{"core.intra.ns_per_msg", 1, 1}, {"core.routed.ns_per_msg", 1, 2}} {
		sp := e.spans.begin(rung.name, parent)
		for i := 0; i <= rungTrials; i++ {
			tsp := e.spans.begin("trial", sp)
			tr, err := f.trial(vm, vm, rung.cc, rung.pc, shape.msgs, payloadBases(rng))
			e.spans.end(tsp)
			if err != nil {
				return fmt.Errorf("%s: %w", rung.name, err)
			}
			if i > 0 { // the first trial warms the rung up
				s.add(rung.name, float64(tr.wall)/float64(shape.msgs))
			}
		}
		e.spans.end(sp)
	}
	return nil
}

// wireRung runs the fan-in across two-node meshes, a fresh mesh per trial
// pair: one trial with metrics off, one with metrics on, whose node and core
// counters it reads.  The last mesh also measures the single-message round
// trip.  It returns the median ns per message with metrics off; withE2E also
// records those trials as the workload's own e2e.* rows.
func (e *env) wireRung(s series, parent int, shape fanShape, rng *rand.Rand, withE2E bool) (float64, error) {
	sp := e.spans.begin("node wire", parent)
	defer e.spans.end(sp)
	var off, on []float64
	var charges, stalls, txBytes, batches, frames float64
	for i := 0; i < rungTrials; i++ {
		f := newFanin(shape)
		t0 := time.Now()
		m, err := startMesh(f.register)
		if err != nil {
			return 0, err
		}
		s.add("node.mesh.start_ms", float64(time.Since(t0))/float64(time.Millisecond))
		err = func() error {
			if _, err := f.wireTrial(m, shape.scaled(0.1).msgs, payloadBases(rng)); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			tsp := e.spans.begin("trial, metrics off", sp)
			tr, err := f.wireTrial(m, shape.msgs, payloadBases(rng))
			e.spans.end(tsp)
			if err != nil {
				return err
			}
			off = append(off, float64(tr.wall)/float64(shape.msgs))
			if withE2E {
				s.add("e2e.ns_per_op", float64(tr.wall)/float64(shape.msgs))
				s.add("e2e.round_p50_ms", quantile(tr.roundsMS, 0.5))
				s.add("e2e.allocs_per_msg", float64(tr.mallocs)/float64(shape.msgs))
				s.add("e2e.alloc_bytes_per_msg", float64(tr.bytes)/float64(shape.msgs))
			}

			for _, reg := range m.regs {
				reg.Enable(obs.Metrics)
			}
			tsp = e.spans.begin("trial, metrics on", sp)
			tr, err = f.wireTrial(m, shape.msgs, payloadBases(rng))
			e.spans.end(tsp)
			for _, reg := range m.regs {
				reg.Disable(obs.Metrics)
			}
			if err != nil {
				return err
			}
			on = append(on, float64(tr.wall)/float64(shape.msgs))
			// These counters were live during the metrics-on trial only.
			for _, reg := range m.regs {
				snap := reg.Snapshot()
				for _, c := range snap.Counters {
					switch c.Name {
					case "core.heap.charge":
						charges += float64(c.Value)
					case "node.credit.stalls":
						stalls += float64(c.Value)
					case "node.tx.n0->n1.bytes", "node.tx.n1->n0.bytes":
						txBytes += float64(c.Value)
					}
				}
				for _, h := range snap.Hists {
					if h.Name == "node.batch.frames" {
						batches += float64(h.Count)
						frames += h.Mean() * float64(h.Count)
					}
				}
			}
			if i < rungTrials-1 {
				return nil
			}
			tsp = e.spans.begin("node.rtt", sp)
			rtts, err := f.pingPong(m.nodes[0].VM(), m.nodes[1].VM(), 1, 2, max(int(rttRounds*e.scale), 100))
			e.spans.end(tsp)
			if err != nil {
				return err
			}
			s.add("node.rtt.p50_us", quantile(rtts, 0.5))
			return nil
		}()
		if cerr := m.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, fmt.Errorf("node wire rung: %w", err)
		}
	}
	s.add("obs.metrics_on.overhead_share", median(on)/median(off)-1)
	msgs := float64(rungTrials * shape.msgs)
	s.add("core.heap.charges_per_msg", charges/msgs)
	s.add("node.credit.stalls", stalls)
	s.add("node.wire_bytes_per_msg", txBytes/msgs)
	if batches > 0 {
		s.add("node.frames_per_write", frames/batches)
	}
	return median(off), nil
}

// traceWire is the traced run of a wire workload.
func traceWire(e *env, shape fanShape) (*result, error) {
	shape = shape.scaled(e.scale)
	rng := rand.New(rand.NewSource(e.seed))
	r := e.newResult()
	s := series{}
	const root = 0

	wireNS, err := e.wireRung(s, root, shape, rng, true)
	if err != nil {
		return nil, err
	}
	if err := e.vmRungs(s, root, shape, rng); err != nil {
		return nil, err
	}
	if err := e.codecProbes(s, root, shape); err != nil {
		return nil, err
	}
	e.recorderProbe(s, root)
	s.add("bench.build_s", e.buildS)
	s.intoLayers(r)

	r.set("node.wire.added_ns_per_msg", wireNS-r.value("core.routed.ns_per_msg"))
	// A message crosses core once (send to ACCEPT), is encoded, framed and
	// decoded once, is charged to a shard once (core.heap.charges_per_msg),
	// and leaves a send and an accept event in the recorders.
	r.budget(wireNS, map[string]float64{
		"core.intra.ns_per_msg":        1,
		"msgcodec.encode.ns_per_msg":   1,
		"msgcodec.decode.ns_per_msg":   1,
		"msgcodec.frame.ns_per_msg":    1,
		"memory.alloc_free.ns_per_msg": 1,
		"obs.recorder.ns_per_event":    2,
	})
	// The wire rung ran 2*rungTrials verified fan-ins and each VM rung one
	// more than rungTrials; a failed verification ends the run with an error.
	r.Attempted = int64((4*rungTrials + 2) * shape.msgs)
	return r, nil
}
