package core_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/node"
	"repro/internal/pfi"
	"repro/internal/sim"
)

// corpusCheckpoint runs one conformance program on a sim-backed HA VM — under
// the fault transport, whose wire latency is what makes virtual time pass —
// and returns a checkpoint of both clusters cut halfway through the run.
func corpusCheckpoint(t testing.TB, name string) []byte {
	t.Helper()
	_, srcs := conformance.Corpus()
	prog, err := pfi.Compile(srcs[name])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	run := func(cutAt time.Duration) (blob []byte, elapsed time.Duration) {
		s := sim.New(1)
		ft := node.NewFaultTransport(1, node.DefaultFaultProfile())
		vm, err := core.NewVM(config.Simple(2, 8).WithForces(1, 7, 8), core.Options{
			UserOutput: io.Discard, Backend: s, AcceptTimeout: 30 * time.Second, HA: true,
			Remote: ft, InterceptWire: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ft.Bind(vm)
		if cutAt > 0 {
			s.AfterFunc(cutAt, func() {
				if blob, err = vm.Checkpoint(1, 2); err != nil {
					t.Errorf("%s: checkpoint: %v", name, err)
				}
			})
		}
		start := s.Now()
		if err := prog.Run(vm, pfi.Options{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		elapsed = s.Now().Sub(start)
		vm.Shutdown()
		return blob, elapsed
	}
	_, elapsed := run(0)
	blob, _ := run(elapsed / 2)
	if len(blob) == 0 {
		t.Fatalf("%s: no checkpoint was cut at %v of %v", name, elapsed/2, elapsed)
	}
	return blob
}

// FuzzClusterCheckpoint: a checkpoint blob — what a buddy node stores for a
// peer and hands to Restore — either fails to decode with an error wrapping
// msgcodec.ErrCorrupt or re-encodes to a fixed point; it never panics and
// never allocates more than a small multiple of its own size (a forged count
// must not size anything).  Seeded with real mid-run checkpoints of two
// corpus programs.
func FuzzClusterCheckpoint(f *testing.F) {
	for _, name := range []string{"pipeline.pf", "crosscluster.pf"} {
		blob := corpusCheckpoint(f, name)
		if again, err := core.ReencodeCheckpoint(blob); err != nil || !bytes.Equal(again, blob) {
			f.Fatalf("%s: a real checkpoint does not round-trip byte for byte (%v)", name, err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		once, err := core.ReencodeCheckpoint(data)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+(1<<20)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			if !errors.Is(err, msgcodec.ErrCorrupt) {
				t.Fatalf("error %v does not wrap msgcodec.ErrCorrupt", err)
			}
			return
		}
		twice, err := core.ReencodeCheckpoint(once)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point (%v):\n%x\n%x", err, once, twice)
		}
	})
}
