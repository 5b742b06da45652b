// Package config implements the PISCES 2 configuration environment's data
// model (paper, Section 9 and Section 11): the programmer-controlled mapping
// of the virtual machine onto the hardware.  In creating a configuration the
// programmer chooses
//
//  1. how many clusters to use and their numbers,
//  2. the "primary" FLEX PE for each cluster (all user tasks of the cluster
//     run on this PE),
//  3. the "secondary" FLEX PEs that run force members for the cluster, and
//  4. the number of slots in each cluster available to run user tasks,
//
// together with an execution time limit and trace settings.  Configurations
// may be saved on files and reused or edited for later runs.
package config

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/flex"
	"repro/internal/trace"
)

// Limits imposed by the FLEX/32 implementation (Section 5: "The programmer
// can choose to use between 1 and 18 clusters for a particular run").
const (
	MinClusters = 1
	MaxClusters = 18
)

// Cluster is the mapping of one virtual-machine cluster onto hardware.
type Cluster struct {
	// Number is the cluster number used by the program (CLUSTER <number>).
	Number int
	// PrimaryPE is the processor that runs all of the cluster's user tasks
	// (and its task controller).
	PrimaryPE int
	// SecondaryPEs run force members for tasks of this cluster.  An empty
	// list means a FORCESPLIT in this cluster causes no parallel splitting.
	SecondaryPEs []int
	// Slots is the number of slots available to run user tasks in the
	// cluster; it bounds the degree of multiprogramming on the primary PE.
	Slots int
}

// ForceSize returns the number of members a force split in this cluster
// produces: the original task plus one new member per secondary PE.
func (c Cluster) ForceSize() int { return 1 + len(c.SecondaryPEs) }

// Configuration is one complete virtual-machine-to-hardware mapping plus the
// run controls kept with it (execution time limit, trace settings).
type Configuration struct {
	// Name identifies the configuration when saved to a file.
	Name string
	// Clusters lists the clusters in use, with distinct Number fields.
	Clusters []Cluster
	// TimeLimit is the execution time limit for the run (0 = none).
	TimeLimit time.Duration
	// TraceEvents enables tracing for the named event kinds (values of
	// trace.Kind.String).
	TraceEvents []string
}

// Cluster returns the cluster numbered n, or nil.
func (c *Configuration) Cluster(n int) *Cluster {
	for i := range c.Clusters {
		if c.Clusters[i].Number == n {
			return &c.Clusters[i]
		}
	}
	return nil
}

// ClusterNumbers returns the configured cluster numbers in ascending order.
func (c *Configuration) ClusterNumbers() []int {
	out := make([]int, 0, len(c.Clusters))
	for _, cl := range c.Clusters {
		out = append(out, cl.Number)
	}
	sort.Ints(out)
	return out
}

// Validate checks the configuration against a machine description.  It
// enforces the FLEX/32 rules of Sections 5, 9, and 11: cluster numbers unique
// and within 1..18, primary PEs are MMOS PEs (not the Unix front-end PEs),
// secondary PEs are MMOS PEs and distinct within a cluster, no two clusters
// share a primary PE, slot counts positive, and trace event names known.
func (c *Configuration) Validate(machine flex.Config) error {
	if len(c.Clusters) < MinClusters {
		return fmt.Errorf("config: at least %d cluster required", MinClusters)
	}
	if len(c.Clusters) > MaxClusters {
		return fmt.Errorf("config: at most %d clusters may be used, got %d", MaxClusters, len(c.Clusters))
	}
	isMMOS := func(pe int) bool { return pe > machine.UnixPEs && pe <= machine.NumPE }

	seenNumber := make(map[int]bool)
	seenPrimary := make(map[int]int)
	for _, cl := range c.Clusters {
		if cl.Number < 1 || cl.Number > MaxClusters {
			return fmt.Errorf("config: cluster number %d out of range 1..%d", cl.Number, MaxClusters)
		}
		if seenNumber[cl.Number] {
			return fmt.Errorf("config: duplicate cluster number %d", cl.Number)
		}
		seenNumber[cl.Number] = true
		if !isMMOS(cl.PrimaryPE) {
			return fmt.Errorf("config: cluster %d primary PE %d is not an MMOS PE (%d..%d)",
				cl.Number, cl.PrimaryPE, machine.UnixPEs+1, machine.NumPE)
		}
		if prev, dup := seenPrimary[cl.PrimaryPE]; dup {
			return fmt.Errorf("config: PE %d is the primary PE of both cluster %d and cluster %d",
				cl.PrimaryPE, prev, cl.Number)
		}
		seenPrimary[cl.PrimaryPE] = cl.Number
		if cl.Slots < 1 {
			return fmt.Errorf("config: cluster %d must have at least one slot", cl.Number)
		}
		seenSecondary := make(map[int]bool)
		for _, pe := range cl.SecondaryPEs {
			if !isMMOS(pe) {
				return fmt.Errorf("config: cluster %d secondary PE %d is not an MMOS PE", cl.Number, pe)
			}
			if seenSecondary[pe] {
				return fmt.Errorf("config: cluster %d lists secondary PE %d twice", cl.Number, pe)
			}
			seenSecondary[pe] = true
		}
	}
	for _, ev := range c.TraceEvents {
		if _, err := trace.ParseKind(ev); err != nil {
			return fmt.Errorf("config: unknown trace event %q", ev)
		}
	}
	if c.TimeLimit < 0 {
		return fmt.Errorf("config: negative time limit %v", c.TimeLimit)
	}
	return nil
}

// MaxMultiprogramming returns, for PE pe, the maximum number of simultaneous
// user tasks and force members that may be time-sharing that PE under this
// configuration — the quantity worked out in the Section 9 example ("The
// maximum number of simultaneous tasks that might be running on one of these
// PE's is equal to the sum of the slots allocated in both clusters, 4+4=8").
// The count covers user-task slots on the PE's own cluster (if it is a
// primary PE) plus the slots of every cluster for which it is a secondary PE.
func (c *Configuration) MaxMultiprogramming(pe int) int {
	n := 0
	for _, cl := range c.Clusters {
		if cl.PrimaryPE == pe {
			n += cl.Slots
		}
		for _, s := range cl.SecondaryPEs {
			if s == pe {
				n += cl.Slots
			}
		}
	}
	return n
}

// UsedPEs returns the sorted list of PEs referenced by the configuration.
func (c *Configuration) UsedPEs() []int {
	set := make(map[int]bool)
	for _, cl := range c.Clusters {
		set[cl.PrimaryPE] = true
		for _, s := range cl.SecondaryPEs {
			set[s] = true
		}
	}
	out := make([]int, 0, len(set))
	for pe := range set {
		out = append(out, pe)
	}
	sort.Ints(out)
	return out
}

// Simple builds an n-cluster configuration on the default machine: clusters
// 1..n mapped to PEs 3..(3+n-1) with slots user-task slots each and no
// secondary PEs.  It is the starting point offered by the configuration
// environment's menus.
func Simple(n, slots int) *Configuration {
	cfg := &Configuration{Name: fmt.Sprintf("simple-%d", n)}
	for i := 1; i <= n; i++ {
		cfg.Clusters = append(cfg.Clusters, Cluster{
			Number:    i,
			PrimaryPE: flex.FirstMMOSPE + i - 1,
			Slots:     slots,
		})
	}
	return cfg
}

// WithForces returns a copy of the configuration in which cluster number n is
// given the listed secondary PEs.
func (c *Configuration) WithForces(n int, secondaries ...int) *Configuration {
	out := c.Clone()
	if cl := out.Cluster(n); cl != nil {
		cl.SecondaryPEs = append([]int(nil), secondaries...)
	}
	return out
}

// Clone returns a deep copy.
func (c *Configuration) Clone() *Configuration {
	out := &Configuration{Name: c.Name, TimeLimit: c.TimeLimit}
	out.TraceEvents = append([]string(nil), c.TraceEvents...)
	for _, cl := range c.Clusters {
		cl.SecondaryPEs = append([]int(nil), cl.SecondaryPEs...)
		out.Clusters = append(out.Clusters, cl)
	}
	return out
}

// Section9Example returns the worked example of Section 9 of the paper:
//
//	a. the program runs on four clusters, numbered 1-4;
//	b. clusters 1-4 map to FLEX PEs 3-6 with 4 slots each;
//	c. PEs 7-15 run forces for both clusters 3 and 4;
//	d. PEs 16-20 run forces for cluster 2;
//	e. cluster 1 has no secondary PEs.
func Section9Example() *Configuration {
	forces34 := []int{7, 8, 9, 10, 11, 12, 13, 14, 15}
	forces2 := []int{16, 17, 18, 19, 20}
	return &Configuration{
		Name: "section-9-example",
		Clusters: []Cluster{
			{Number: 1, PrimaryPE: 3, Slots: 4},
			{Number: 2, PrimaryPE: 4, Slots: 4, SecondaryPEs: forces2},
			{Number: 3, PrimaryPE: 5, Slots: 4, SecondaryPEs: append([]int(nil), forces34...)},
			{Number: 4, PrimaryPE: 6, Slots: 4, SecondaryPEs: append([]int(nil), forces34...)},
		},
	}
}

// String renders the configuration as the summary shown by the configuration
// environment before a run.
func (c *Configuration) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "configuration %q: %d cluster(s)\n", c.Name, len(c.Clusters))
	nums := c.ClusterNumbers()
	for _, n := range nums {
		cl := c.Cluster(n)
		fmt.Fprintf(&b, "  cluster %-2d  primary PE %-2d  slots %-2d  force size %-2d  secondaries %v\n",
			cl.Number, cl.PrimaryPE, cl.Slots, cl.ForceSize(), cl.SecondaryPEs)
	}
	if c.TimeLimit > 0 {
		fmt.Fprintf(&b, "  time limit %v\n", c.TimeLimit)
	}
	if len(c.TraceEvents) > 0 {
		fmt.Fprintf(&b, "  trace: %s\n", strings.Join(c.TraceEvents, ", "))
	}
	return b.String()
}

// Save writes the configuration in the textual file format used by the
// configuration environment ("Configurations may be saved on files and reused
// or edited as desired for later runs", Section 9).
func (c *Configuration) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "pisces-configuration %s\n", strconv.Quote(c.Name))
	for _, n := range c.ClusterNumbers() {
		cl := c.Cluster(n)
		fmt.Fprintf(bw, "cluster %d primary %d slots %d", cl.Number, cl.PrimaryPE, cl.Slots)
		if len(cl.SecondaryPEs) > 0 {
			fmt.Fprintf(bw, " secondaries %s", joinInts(cl.SecondaryPEs, ","))
		}
		fmt.Fprintln(bw)
	}
	if c.TimeLimit > 0 {
		fmt.Fprintf(bw, "timelimit %s\n", c.TimeLimit)
	}
	for _, ev := range c.TraceEvents {
		fmt.Fprintf(bw, "trace %s\n", ev)
	}
	return bw.Flush()
}

// Load reads a configuration previously written by Save.
func Load(r io.Reader) (*Configuration, error) {
	sc := bufio.NewScanner(r)
	cfg := &Configuration{}
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "pisces-configuration":
			sawHeader = true
			if len(fields) >= 2 {
				name, err := strconv.Unquote(strings.TrimPrefix(line, "pisces-configuration "))
				if err != nil {
					name = strings.Join(fields[1:], " ")
				}
				cfg.Name = name
			}
		case "cluster":
			cl, err := parseClusterLine(fields)
			if err != nil {
				return nil, fmt.Errorf("config: line %d: %w", lineNo, err)
			}
			cfg.Clusters = append(cfg.Clusters, cl)
		case "timelimit":
			if len(fields) != 2 {
				return nil, fmt.Errorf("config: line %d: timelimit needs one value", lineNo)
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil {
				return nil, fmt.Errorf("config: line %d: %w", lineNo, err)
			}
			cfg.TimeLimit = d
		case "trace":
			if len(fields) != 2 {
				return nil, fmt.Errorf("config: line %d: trace needs one event name", lineNo)
			}
			cfg.TraceEvents = append(cfg.TraceEvents, fields[1])
		default:
			return nil, fmt.Errorf("config: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("config: missing pisces-configuration header")
	}
	return cfg, nil
}

func parseClusterLine(fields []string) (Cluster, error) {
	// cluster <n> primary <pe> slots <k> [secondaries a,b,c]
	var cl Cluster
	if len(fields) < 6 {
		return cl, fmt.Errorf("cluster line too short")
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil {
		return cl, fmt.Errorf("bad cluster number %q", fields[1])
	}
	cl.Number = n
	i := 2
	for i < len(fields) {
		switch fields[i] {
		case "primary":
			if i+1 >= len(fields) {
				return cl, fmt.Errorf("primary needs a value")
			}
			v, err := strconv.Atoi(fields[i+1])
			if err != nil {
				return cl, fmt.Errorf("bad primary PE %q", fields[i+1])
			}
			cl.PrimaryPE = v
			i += 2
		case "slots":
			if i+1 >= len(fields) {
				return cl, fmt.Errorf("slots needs a value")
			}
			v, err := strconv.Atoi(fields[i+1])
			if err != nil {
				return cl, fmt.Errorf("bad slot count %q", fields[i+1])
			}
			cl.Slots = v
			i += 2
		case "secondaries":
			if i+1 >= len(fields) {
				return cl, fmt.Errorf("secondaries needs a value")
			}
			pes, err := splitInts(fields[i+1], ",")
			if err != nil {
				return cl, fmt.Errorf("bad secondaries list %q: %w", fields[i+1], err)
			}
			cl.SecondaryPEs = pes
			i += 2
		default:
			return cl, fmt.Errorf("unknown cluster attribute %q", fields[i])
		}
	}
	return cl, nil
}

func joinInts(vals []int, sep string) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, sep)
}

func splitInts(s, sep string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, sep)
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
