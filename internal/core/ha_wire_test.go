package core

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/msgcodec"
	"repro/internal/sim"
)

// goldenCkptCluster exercises every field of a cluster checkpoint section:
// initMap, a pending request, and a task with floors, a closed and an open
// log record, and a queued message (one taskid carries a negative field).
func goldenCkptCluster() haCkptCluster {
	boss := TaskID{Cluster: 1, Slot: 2, Unique: 3}
	w0 := TaskID{Cluster: 2, Slot: 2, Unique: 7}
	w1 := TaskID{Cluster: 2, Slot: 3, Unique: -1}
	return haCkptCluster{
		number:  2,
		initMap: []haCkptInitEntry{{key: initKey{parent: boss, seq: 1}, child: w0}, {key: initKey{parent: boss, seq: 2}, child: w1}},
		pending: []haCkptPending{{key: initKey{parent: boss, seq: 3}, tasktype: "worker", parent: boss, args: []Value{ID(boss), Int(2)}}},
		tasks: []haCkptTask{{
			id: w0, tasktype: "worker", parent: boss, args: []Value{ID(boss), Int(0)},
			floors: map[TaskID]uint64{boss: 9, w1: 1},
			log: []*haAccRecord{
				{msgs: []haMsg{{Type: "ping", Sender: boss, SendSeq: 5, Args: []Value{Int(10)}}}},
				{open: true, timedOut: true},
			},
			queue: []haMsg{{Type: "ping", Sender: boss, SendSeq: 9, Args: []Value{Int(20), Str("x")}}},
		}},
	}
}

// goldenCkptSection is encodeClusterCkpt(goldenCkptCluster()) as the
// hand-unrolled codec of the commit before the wire cursor wrote it
// (haCkptFormat 1).
const goldenCkptSection = "0000000200000002000000010000000200000003000000000000000100000002000000020000000700000001000000020000000300000000000000020000000200000003ffffffff00000001000000010000000200000003000000000000000300000006776f726b6572000000010000000200000003000000200002050000000c000000010000000200000003010000000800000000000000020000000100000002000000020000000700000006776f726b6572000000010000000200000003000000200002050000000c000000010000000200000003010000000800000000000000000000000200000001000000020000000300000000000000090000000200000003ffffffff00000000000000010000000200000000010000000470696e6700000001000000020000000300000000000000050000000f00010100000008000000000000000a0300000000000000010000000470696e67000000010000000200000003000000000000000900000015000201000000080000000000000014040000000178"

// TestGoldenCheckpointSection: the section codec writes the parent commit's
// bytes, reads its values back, and refuses every proper prefix and any
// trailing byte with an ErrCorrupt-wrapping error.
func TestGoldenCheckpointSection(t *testing.T) {
	want, err := hex.DecodeString(goldenCkptSection)
	if err != nil {
		t.Fatal(err)
	}
	got, err := encodeClusterCkpt(goldenCkptCluster())
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != goldenCkptSection {
		t.Errorf("section encoding drifted:\ngot  %x\nwant %s", got, goldenCkptSection)
	}
	cs, err := decodeClusterCkpt(want)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	golden := goldenCkptCluster()
	in := interner{}
	in.cluster(&cs)
	in.cluster(&golden)
	if !reflect.DeepEqual(cs, golden) {
		t.Errorf("decoded\n%+v\nwant\n%+v", cs, golden)
	}
	for n := 0; n < len(want); n++ {
		if _, err := decodeClusterCkpt(want[:n]); !errors.Is(err, msgcodec.ErrCorrupt) {
			t.Fatalf("%d-byte prefix of %d: %v, want an ErrCorrupt", n, len(want), err)
		}
	}
	if _, err := decodeClusterCkpt(append(want, 0)); !errors.Is(err, msgcodec.ErrCorrupt) {
		t.Fatalf("trailing byte: %v, want an ErrCorrupt", err)
	}
}

// TestRestoreRejectsForgedCounts forges, one at a time, each of the seven
// count prefixes of a real checkpoint section to 0x7FFFFFFF.  Restore must
// answer an ErrCorrupt-wrapping error; before the cursor's Count the floors
// count reached make(map, n) and killed the process.
func TestRestoreRejectsForgedCounts(t *testing.T) {
	newVM := func(backend *sim.Scheduler) *VM {
		vm, err := NewVM(config.Simple(2, 8), Options{AcceptTimeout: 30 * time.Second, Backend: backend, HA: true})
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}
	// A real checkpoint of cluster 2, cut while the workers are mid-run.
	vm := newVM(sim.New(1))
	registerHAProgram(t, vm)
	var blob []byte
	vm.Backend().AfterFunc(2500*time.Microsecond, func() {
		var err error
		if blob, err = vm.Checkpoint(2); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
	})
	if _, err := vm.Initiate("boss", OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
	vm.Shutdown()
	ck, err := decodeCheckpointBlob(blob)
	if err != nil || len(ck) != 1 {
		t.Fatalf("real checkpoint: %d sections, %v", len(ck), err)
	}
	cs := ck[0]
	if len(cs.tasks) == 0 || len(cs.tasks[0].log) == 0 || len(cs.initMap) == 0 {
		t.Fatalf("checkpoint too quiet to forge: %d tasks, %d initMap entries", len(cs.tasks), len(cs.initMap))
	}
	sectionLen := func(cs haCkptCluster) int {
		b, err := encodeClusterCkpt(cs)
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}
	// Offsets of the counts, from the lengths of partial encodings: a list's
	// count sits 4 bytes before the end of the section cut off right there.
	head, first := cs, cs.tasks[0]
	bare := first
	bare.floors, bare.log, bare.queue = nil, nil, nil
	head.tasks = []haCkptTask{bare}
	floorsAt := sectionLen(head) - 12
	logAt := floorsAt + 4 + 20*len(first.floors)
	noQueue := first
	noQueue.queue = nil
	head.tasks = []haCkptTask{noQueue}
	queueAt := sectionLen(head) - 4
	head.tasks = nil
	offsets := []struct {
		name string
		at   int
	}{
		{"initMap", 4},
		{"pending", 4 + 4 + 32*len(cs.initMap)},
		{"tasks", sectionLen(head) - 4},
		{"floors", floorsAt},
		{"log", logAt},
		{"log-msgs", logAt + 4 + 1},
		{"queue", queueAt},
	}
	section, err := encodeClusterCkpt(cs)
	if err != nil {
		t.Fatal(err)
	}
	target := newVM(sim.New(2))
	defer target.Shutdown()
	for _, o := range offsets {
		forged := append([]byte(nil), section...)
		copy(forged[o.at:], []byte{0x7f, 0xff, 0xff, 0xff})
		if string(forged[:o.at]) != string(section[:o.at]) || len(forged) != len(section) {
			t.Fatalf("%s: forging at %d went outside the section", o.name, o.at)
		}
		wrapped, err := msgcodec.EncodeCheckpoint([][]byte{msgcodec.AppendU32(nil, haCkptFormat), forged})
		if err != nil {
			t.Fatal(err)
		}
		if err := target.Restore(wrapped, nil); !errors.Is(err, msgcodec.ErrCorrupt) {
			t.Errorf("forged %s count: Restore = %v, want an error wrapping msgcodec.ErrCorrupt", o.name, err)
		}
	}
	// Sanity: the counts really sit at those offsets — the unforged section
	// restores, and each offset holds the list's true length.
	c := func(at int) int { cur := msgcodec.NewCursor(section[at:]); return int(cur.U32()) }
	for i, want := range []int{len(cs.initMap), len(cs.pending), len(cs.tasks), len(first.floors), len(first.log), len(first.log[0].msgs), len(first.queue)} {
		if got := c(offsets[i].at); got != want {
			t.Errorf("%s count at offset %d reads %d, want %d: the forgery above missed its target", offsets[i].name, offsets[i].at, got, want)
		}
	}
}

// interner rewrites every CHARACTER in an argument list to one Value per
// string, so that reflect.DeepEqual, which compares a Value's pointer field by
// address, compares a CHARACTER by its bytes as it compares every other kind
// by its fields.  (A WINDOW's pointer would need the same; the section above
// carries none.)
type interner map[string]Value

func (in interner) args(list []Value) {
	for i := range list {
		if list[i].Kind == kindCharacter {
			s := list[i].Character()
			if _, ok := in[s]; !ok {
				in[s] = list[i]
			}
			list[i] = in[s]
		}
	}
}

// cluster interns every argument list of a checkpoint section.
func (in interner) cluster(cs *haCkptCluster) {
	for i := range cs.pending {
		in.args(cs.pending[i].args)
	}
	for _, tk := range cs.tasks {
		in.args(tk.args)
		for _, r := range tk.log {
			for _, m := range r.msgs {
				in.args(m.Args)
			}
		}
		for _, m := range tk.queue {
			in.args(m.Args)
		}
	}
}
