// Package node is the distributed runtime of the PISCES 2 reproduction: it
// places the clusters of one configured virtual machine into separate OS
// processes ("nodes") and carries the cross-cluster wire traffic of
// internal/core over TCP.
//
// Every node boots the FULL configuration (so system tables, heap shards,
// and controller taskids are identical everywhere — see internal/core's
// transport seam) but hosts tasks only for its assigned cluster subset;
// frames for clusters hosted elsewhere travel as length-prefixed msgcodec
// payloads (internal/msgcodec framing) between peers.  Node 0 hosts the
// terminal cluster — and with it the user controller, so all program output
// appears on node 0 — and coordinates the shutdown drain.
package node

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/msgcodec"
)

// Topology is the static assignment of clusters to nodes, agreed during the
// handshake: every node derives it from the shared configuration with
// Partition, and a peer whose topology differs is refused.
type Topology struct {
	// Nodes is the number of node processes.
	Nodes int
	// clusters holds the configured cluster numbers, ascending.
	clusters []int
	// nodeOf maps cluster number -> node id.
	nodeOf map[int]int
}

// Partition assigns clusters to nodes in ascending contiguous blocks: node 0
// receives the first block (and with it the lowest — terminal — cluster),
// remainders go to the lowest node ids.  It fails when there are more nodes
// than clusters: a node must host at least one cluster.
func Partition(clusters []int, nodes int) (Topology, error) {
	if nodes < 1 {
		return Topology{}, fmt.Errorf("node: %d nodes", nodes)
	}
	if len(clusters) < nodes {
		return Topology{}, fmt.Errorf("node: %d nodes for %d clusters; every node must host a cluster", nodes, len(clusters))
	}
	sorted := append([]int(nil), clusters...)
	sort.Ints(sorted)
	t := Topology{Nodes: nodes, clusters: sorted, nodeOf: make(map[int]int, len(sorted))}
	base, rem := len(sorted)/nodes, len(sorted)%nodes
	i := 0
	for n := 0; n < nodes; n++ {
		take := base
		if n < rem {
			take++
		}
		for k := 0; k < take; k++ {
			t.nodeOf[sorted[i]] = n
			i++
		}
	}
	return t, nil
}

// NodeOf returns the node hosting the given cluster.
func (t Topology) NodeOf(cluster int) (int, bool) {
	n, ok := t.nodeOf[cluster]
	return n, ok
}

// Clusters returns the cluster numbers hosted by the given node, ascending.
func (t Topology) Clusters(node int) []int {
	var out []int
	for _, c := range t.clusters {
		if t.nodeOf[c] == node {
			out = append(out, c)
		}
	}
	return out
}

// Equal reports whether two topologies assign identically.
func (t Topology) Equal(o Topology) bool {
	if t.Nodes != o.Nodes || len(t.clusters) != len(o.clusters) {
		return false
	}
	for i, c := range t.clusters {
		if o.clusters[i] != c || t.nodeOf[c] != o.nodeOf[c] {
			return false
		}
	}
	return true
}

// String renders the assignment for diagnostics and the README-style summary.
func (t Topology) String() string {
	var b bytes.Buffer
	for n := 0; n < t.Nodes; n++ {
		if n > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "node%d:%v", n, t.Clusters(n))
	}
	return b.String()
}

// appendTo serialises the topology for the handshake frame.
func (t Topology) appendTo(b []byte) []byte {
	b = msgcodec.AppendI32(b, t.Nodes)
	b = msgcodec.AppendU32(b, uint32(len(t.clusters)))
	for _, c := range t.clusters {
		b = msgcodec.AppendI32(b, c)
		b = msgcodec.AppendI32(b, t.nodeOf[c])
	}
	return b
}

// decodeTopology reverses appendTo.  The count arrives from an
// unauthenticated peer (the handshake runs before fingerprint validation);
// Count holds it against the bytes present — 8 per entry — before it sizes
// anything.
func decodeTopology(c *msgcodec.Cursor) Topology {
	t := Topology{Nodes: c.I32()}
	n := c.Count(8)
	t.clusters, t.nodeOf = make([]int, 0, n), make(map[int]int, n)
	for ; n > 0; n-- {
		cluster, owner := c.I32(), c.I32()
		t.clusters = append(t.clusters, cluster)
		t.nodeOf[cluster] = owner
	}
	return t
}

// Fingerprint hashes everything two nodes must agree on before exchanging
// traffic: the configuration (its canonical save form), the topology, and
// the program source.  A handshake with a different fingerprint is refused —
// a node running a different program or cluster layout would silently
// mis-deliver taskids.
func Fingerprint(cfg *config.Configuration, topo Topology, source string) [32]byte {
	var b bytes.Buffer
	_ = cfg.Save(&b)
	b.Write(topo.appendTo(nil))
	b.WriteString(source)
	return sha256.Sum256(b.Bytes())
}
