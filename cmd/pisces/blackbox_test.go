package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// blackboxGolden is what `pisces blackbox` printed for blackboxGoldenEvents
// at PR 24's parent (f4cee30), the dump's path replaced by DUMP.
const blackboxGolden = `DUMP: node 3, 13 events, dumped 1970-01-01T00:00:00.000005Z
merged: 13 events, 2 causal edges (0 cross-node)

n3   #1      +0s           send           edge=0x1000000000001 c1 -> c2
n3   #2      +250ns        send           edge=0x1000000000002 c2 -> broadcast
n3   #3      +500ns        accept         edge=0x1000000000001 c2 <- c1
n3   #4      +750ns        kill           task 2.5
n3   #5      +1µs          credit-stall   peer n1 window dry
n3   #6      +1.25µs       checkpoint     origin n1 epoch 10
n3   #7      +1.5µs        limit          heap limit 4096 exceeded
n3   #8      +1.75µs       limit          tasks limit 8 exceeded
n3   #9      +2µs          limit          wallclock limit 2000000000 exceeded
n3   #10     +2.25µs       limit          output limit 65536 exceeded
n3   #11     +2.5µs        limit          resource#9 limit 1 exceeded
n3   #12     +2.75µs       heartbeat-miss n2 declared dead
n3   #13     +3µs          kind<250>      edge=0x0 a=7 b=8
`

// blackboxGoldenEvents holds one event of each of the seven black-box kinds,
// a broadcast send, an event with no edge, a limit event for each resource
// (and one for a code no resource has), and a kind no build knows.
var blackboxGoldenEvents = []msgcodec.BlackboxEvent{
	{Kind: msgcodec.EvSend, Edge: 0x1000000000001, A: 1, B: 2},
	{Kind: msgcodec.EvSend, Edge: 0x1000000000002, A: 2, B: -1},
	{Kind: msgcodec.EvAccept, Edge: 0x1000000000001, A: 2, B: 1},
	{Kind: msgcodec.EvKill, A: 2, B: 5},
	{Kind: msgcodec.EvCreditStall, A: 1},
	{Kind: msgcodec.EvCheckpoint, A: 1, B: 10},
	{Kind: msgcodec.EvLimit, A: 1, B: 4096},
	{Kind: msgcodec.EvLimit, A: 2, B: 8},
	{Kind: msgcodec.EvLimit, A: 3, B: 2000000000},
	{Kind: msgcodec.EvLimit, A: 4, B: 65536},
	{Kind: msgcodec.EvLimit, A: 9, B: 1},
	{Kind: msgcodec.EvHeartbeatMiss, A: 2},
	{Kind: 250, A: 7, B: 8},
}

// TestBlackboxListingGolden pins the rendering of every event kind the
// flight recorder writes, the names of the limit resources among them.
func TestBlackboxListingGolden(t *testing.T) {
	events := append([]msgcodec.BlackboxEvent(nil), blackboxGoldenEvents...)
	for i := range events {
		events[i].Seq = uint64(i + 1)
		events[i].TS = int64(1000 + 250*i)
	}
	dump, err := msgcodec.EncodeBlackbox(3, 5000, events)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "blackbox-n3.bin")
	if err := os.WriteFile(path, dump, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runBlackbox([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.ReplaceAll(out.String(), path, "DUMP"); got != blackboxGolden {
		t.Errorf("listing differs from the parent capture:\n%s", got)
	}
}

// TestBlackboxKeepsEachNodesOrder: the accept events of one ACCEPT run share
// the reading taken at its first, so where another task records between them
// a node's timestamps step back.  The listing keeps each node's events in
// emission order and goes by time only across nodes: a peer's event stamped
// between the run's reading and the interleaved event's sits between them.
func TestBlackboxKeepsEachNodesOrder(t *testing.T) {
	var clock atomic.Int64
	reg := obs.New()
	reg.AttachRecorder(obs.NewRecorder(0, 0, 0))
	reg.SetClock(func() time.Time { return time.Unix(0, clock.Add(1000)) })
	accept := func(cluster int, edge uint64) *obs.Event {
		return &obs.Event{Kind: obs.MsgAccept, Task: obs.TaskRef{Cluster: cluster}, Peer: obs.TaskRef{Cluster: 2}, Edge: edge}
	}
	var run obs.Stamp
	reg.EmitAt(accept(1, 0x11), 0, 0, &run)
	reg.EmitAt(accept(3, 0x21), 0, 0, nil) // another task, between the run's two
	reg.EmitAt(accept(1, 0x12), 0, 0, &run)
	evs := reg.Recorder().Events()
	if len(evs) != 3 || evs[2].TS != evs[0].TS || evs[1].TS <= evs[0].TS {
		t.Fatalf("recorded %+v; want a run's two accepts on one stamp around a later one", evs)
	}

	dir := t.TempDir()
	n0, err := reg.Recorder().Dump()
	if err != nil {
		t.Fatal(err)
	}
	n1, err := msgcodec.EncodeBlackbox(1, evs[1].TS, []msgcodec.BlackboxEvent{
		{Seq: 1, TS: evs[0].TS + 500, Kind: msgcodec.EvSend, Edge: 0x31, A: 2, B: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for i, dump := range [][]byte{n0, n1} {
		path := filepath.Join(dir, fmt.Sprintf("blackbox-n%d.bin", i))
		if err := os.WriteFile(path, dump, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	var out strings.Builder
	if err := runBlackbox(paths, &out); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 3 && strings.HasPrefix(f[0], "n") && strings.HasPrefix(f[1], "#") {
			order = append(order, f[0]+f[1]+" "+f[2])
		}
	}
	want := []string{"n0#1 +0s", "n1#1 +500ns", "n0#2 +1µs", "n0#3 +0s"}
	if strings.Join(order, ", ") != strings.Join(want, ", ") {
		t.Errorf("listing order %q, want %q:\n%s", order, want, out.String())
	}
}
