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
// the tail.  Each node's events stay in sequence (emission) order and dumps
// from different nodes merge by timestamp; causal edge ids
// that appear in more than one node's dump are flagged so a cross-node
// message can be followed from its send record to its accept record.
func runBlackbox(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pisces blackbox", flag.ContinueOnError)
	last := fs.Int("last", 0, "print only the last N merged events (0 = all)")
	if help, err := parseFlags(fs, args, out); help || err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: pisces blackbox [-last N] <dump> [dump ...]")
	}

	var merged []nodeEvent
	// An edge seen by two nodes is a message that crossed the wire.
	firstNode := make(map[uint64]int) // causal edge -> the first node seen with it
	crossed := make(map[uint64]bool)
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
				if first, seen := firstNode[ev.Edge]; !seen {
					firstNode[ev.Edge] = nodeID
				} else if first != nodeID {
					crossed[ev.Edge] = true
				}
			}
		}
	}
	merged = mergeTimeline(merged)

	fmt.Fprintf(out, "merged: %d events, %d causal edges (%d cross-node)\n\n",
		len(merged), len(firstNode), len(crossed))

	show := merged
	if *last > 0 && len(show) > *last {
		fmt.Fprintf(out, "... %d earlier events elided ...\n", len(show)-*last)
		show = show[len(show)-*last:]
	}
	base := int64(0)
	for i, ev := range merged {
		if i == 0 || ev.TS < base {
			base = ev.TS
		}
	}
	for _, ev := range show {
		mark := " "
		if crossed[ev.Edge] {
			mark = "*"
		}
		fmt.Fprintf(out, "n%d %s #%-6d +%-12s %-14s %s\n",
			ev.node, mark, ev.Seq,
			time.Duration(ev.TS-base).String(),
			msgcodec.EventKindName(ev.Kind),
			describeEvent(ev.BlackboxEvent))
	}
	return nil
}

// nodeEvent is one decoded event and the node whose dump held it.
type nodeEvent struct {
	msgcodec.BlackboxEvent
	node int
}

// mergeTimeline orders the events of several dumps into one listing.  A
// node's events keep their sequence order: the accept events of one ACCEPT
// run share the reading taken when the run was recorded, and the remote
// sends that ride one lane batch share the reading its first took, so a
// node's timestamps step back wherever another task recorded in between, and
// sorting them by time would list a run's or a batch's later events before
// events emitted ahead of them.  Only the merge across nodes goes by
// timestamp — the earliest head first, ties (common under the virtual clock)
// broken by sequence then node so the listing is stable across runs.
func mergeTimeline(events []nodeEvent) []nodeEvent {
	var nodes [][]nodeEvent
	at := make(map[int]int) // node id -> index into nodes
	for _, ev := range events {
		i, ok := at[ev.node]
		if !ok {
			i = len(nodes)
			at[ev.node] = i
			nodes = append(nodes, nil)
		}
		nodes[i] = append(nodes[i], ev)
	}
	for _, evs := range nodes {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	}
	before := func(a, b nodeEvent) bool {
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.node < b.node
	}
	merged := make([]nodeEvent, 0, len(events))
	for len(nodes) > 0 {
		best := 0
		for i := 1; i < len(nodes); i++ {
			if before(nodes[i][0], nodes[best][0]) {
				best = i
			}
		}
		merged = append(merged, nodes[best][0])
		if nodes[best] = nodes[best][1:]; len(nodes[best]) == 0 {
			nodes = append(nodes[:best], nodes[best+1:]...)
		}
	}
	return merged
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
