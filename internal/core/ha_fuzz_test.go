package core_test

import (
	"bytes"
	"errors"
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

// corpusCheckpoint runs one conformance program on a sim-backed fault mesh of
// HA nodes — whose wire latency is what makes virtual time pass — and returns
// the checkpoints of both clusters, each cut by the VM hosting it halfway
// through the run.
func corpusCheckpoint(t testing.TB, name string) [][]byte {
	t.Helper()
	_, srcs := conformance.Corpus()
	prog, err := pfi.Compile(srcs[name])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	run := func(cutAt time.Duration) (blobs [][]byte, elapsed time.Duration) {
		s := sim.New(1)
		mesh, err := node.NewFaultMesh(config.Simple(2, 8).WithForces(1, 7, 8), s, 2, func(int) node.Options {
			return node.Options{AcceptTimeout: 30 * time.Second, HA: true, CheckpointInterval: time.Hour}
		})
		if err != nil {
			t.Fatal(err)
		}
		if cutAt > 0 {
			s.AfterFunc(cutAt, func() {
				for i, vm := range mesh.VMs {
					blob, err := vm.Checkpoint(i + 1)
					if err != nil {
						t.Errorf("%s: checkpoint: %v", name, err)
					}
					blobs = append(blobs, blob)
				}
			})
		}
		start := s.Now()
		if err := mesh.Run(prog, pfi.Options{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		elapsed = s.Now().Sub(start)
		mesh.Shutdown()
		return blobs, elapsed
	}
	_, elapsed := run(0)
	blobs, _ := run(elapsed / 2)
	if len(blobs) == 0 {
		t.Fatalf("%s: no checkpoint was cut at %v of %v", name, elapsed/2, elapsed)
	}
	return blobs
}

// FuzzClusterCheckpoint: a checkpoint blob — what a buddy node stores for a
// peer and hands to Restore — either fails to decode with an error wrapping
// msgcodec.ErrCorrupt or re-encodes to a fixed point; it never panics and
// never allocates more than a small multiple of its own size (a forged count
// must not size anything).  Seeded with real mid-run checkpoints of two
// corpus programs.
func FuzzClusterCheckpoint(f *testing.F) {
	for _, name := range []string{"pipeline.pf", "crosscluster.pf"} {
		for _, blob := range corpusCheckpoint(f, name) {
			if again, err := core.ReencodeCheckpoint(blob); err != nil || !bytes.Equal(again, blob) {
				f.Fatalf("%s: a real checkpoint does not round-trip byte for byte (%v)", name, err)
			}
			f.Add(blob)
		}
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
