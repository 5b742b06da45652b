package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/msgcodec"
)

// runBlackbox implements "pisces blackbox [-last N] <dump> [dump ...]":
// decode one or more flight-recorder dumps written on failure paths (or via
// serve -blackbox-out), merge them into a single timeline, and pretty-print
// the tail.  Dumps from different nodes merge by timestamp; causal edge ids
// that appear in more than one node's dump are flagged so a cross-node
// message can be followed from its send record to its accept record.
func runBlackbox(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pisces blackbox", flag.ContinueOnError)
	last := fs.Int("last", 0, "print only the last N merged events (0 = all)")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: pisces blackbox [-last N] <dump> [dump ...]")
	}

	type nodeEvent struct {
		msgcodec.BlackboxEvent
		node int
	}
	var merged []nodeEvent
	// edgeNodes tracks which nodes saw each causal edge; an edge present on
	// two nodes is a message that crossed the wire.
	edgeNodes := make(map[uint64]map[int]bool)
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		nodeID, dumpTS, events, err := msgcodec.DecodeBlackbox(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(out, "%s: node %d, %d events, dumped %s\n",
			path, nodeID, len(events), time.Unix(0, dumpTS).UTC().Format(time.RFC3339Nano))
		for _, ev := range events {
			merged = append(merged, nodeEvent{BlackboxEvent: ev, node: nodeID})
			if ev.Edge != 0 {
				if edgeNodes[ev.Edge] == nil {
					edgeNodes[ev.Edge] = make(map[int]bool)
				}
				edgeNodes[ev.Edge][nodeID] = true
			}
		}
	}
	// Merge by timestamp; ties (common under the virtual clock) break by
	// sequence then node so the listing is stable across runs.
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.node < b.node
	})

	crossEdges := 0
	for _, nodes := range edgeNodes {
		if len(nodes) > 1 {
			crossEdges++
		}
	}
	fmt.Fprintf(out, "merged: %d events, %d causal edges (%d cross-node)\n\n",
		len(merged), len(edgeNodes), crossEdges)

	show := merged
	if *last > 0 && len(show) > *last {
		fmt.Fprintf(out, "... %d earlier events elided ...\n", len(show)-*last)
		show = show[len(show)-*last:]
	}
	base := int64(0)
	if len(merged) > 0 {
		base = merged[0].TS
	}
	for _, ev := range show {
		mark := " "
		if ev.Edge != 0 && len(edgeNodes[ev.Edge]) > 1 {
			mark = "*" // edge seen by more than one node
		}
		fmt.Fprintf(out, "n%d %s #%-6d +%-12s %-14s %s\n",
			ev.node, mark, ev.Seq,
			time.Duration(ev.TS-base).String(),
			msgcodec.EventKindName(ev.Kind),
			describeEvent(ev.BlackboxEvent))
	}
	return nil
}

// describeEvent renders the kind-specific A/B operands of one event.
func describeEvent(ev msgcodec.BlackboxEvent) string {
	switch ev.Kind {
	case msgcodec.EvSend:
		dst := fmt.Sprintf("c%d", ev.B)
		if ev.B < 0 {
			dst = "broadcast"
		}
		return fmt.Sprintf("edge=%#x c%d -> %s", ev.Edge, ev.A, dst)
	case msgcodec.EvAccept:
		return fmt.Sprintf("edge=%#x c%d <- c%d", ev.Edge, ev.A, ev.B)
	case msgcodec.EvKill:
		return fmt.Sprintf("task %d.%d", ev.A, ev.B)
	case msgcodec.EvCreditStall:
		return fmt.Sprintf("peer n%d window dry", ev.A)
	case msgcodec.EvCheckpoint:
		return fmt.Sprintf("origin n%d epoch %d", ev.A, ev.B)
	case msgcodec.EvLimit:
		return fmt.Sprintf("%s limit %d exceeded", core.LimitResourceName(ev.A), ev.B)
	case msgcodec.EvHeartbeatMiss:
		return fmt.Sprintf("n%d declared dead", ev.A)
	}
	return fmt.Sprintf("edge=%#x a=%d b=%d", ev.Edge, ev.A, ev.B)
}
