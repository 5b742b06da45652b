package node_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/obs"
)

// TestMeshTraceCrossNodeFlows is the causal-tracing acceptance: a 2-node mesh
// run with spans enabled yields one merged Chrome trace (node 0's own spans
// plus the trace blob each follower ships on its drain ack) in which at least
// one causal flow starts (ph "s") on one node's process track and terminates
// (ph "t"/"f") on the other's — the arrow Perfetto draws from the send span
// on one node to the delivery on its peer.
func TestMeshTraceCrossNodeFlows(t *testing.T) {
	src := corpusSource(t, "crosscluster.pf")
	cfg := config.Simple(2, 4)
	var out bytes.Buffer
	nodes := startMesh(t, 2, cfg, src, &out, func(i int, o *node.Options) {
		reg := obs.New()
		reg.Enable(obs.Spans)
		o.Metrics = reg
	})
	runDistributed(t, nodes)

	var buf bytes.Buffer
	if err := nodes[0].WriteMeshTrace(&buf); err != nil {
		t.Fatalf("merged trace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
			Pid int    `json:"pid"`
			ID  string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v\n%s", err, buf.String())
	}

	pids := map[int]bool{}
	startPid := map[string]int{} // flow id -> pid of its ph "s" event
	for _, ev := range doc.TraceEvents {
		pids[ev.Pid] = true
		if ev.Cat == "flow" && ev.Ph == "s" {
			startPid[ev.ID] = ev.Pid
		}
	}
	if len(pids) < 2 {
		t.Fatalf("merged trace has %d process tracks, want 2 (follower trace blob missing?)", len(pids))
	}
	crossNode := 0
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "flow" || (ev.Ph != "t" && ev.Ph != "f") {
			continue
		}
		if from, ok := startPid[ev.ID]; ok && from != ev.Pid {
			crossNode++
		}
	}
	if crossNode == 0 {
		t.Fatalf("no flow connects a send on one node track to a delivery on another (%d flow starts, %d events)",
			len(startPid), len(doc.TraceEvents))
	}
}
