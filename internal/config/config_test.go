package config

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/flex"
	"repro/internal/trace"
)

func TestSection9Example(t *testing.T) {
	cfg := Section9Example()
	if err := cfg.Validate(flex.DefaultConfig()); err != nil {
		t.Fatalf("the paper's own example must validate: %v", err)
	}
	if len(cfg.Clusters) != 4 {
		t.Fatalf("clusters = %d, want 4", len(cfg.Clusters))
	}
	// b. clusters 1-4 map to PEs 3-6, 4 slots each.
	for i := 1; i <= 4; i++ {
		cl := cfg.Cluster(i)
		if cl == nil {
			t.Fatalf("cluster %d missing", i)
		}
		if cl.PrimaryPE != 2+i {
			t.Errorf("cluster %d primary PE = %d, want %d", i, cl.PrimaryPE, 2+i)
		}
		if cl.Slots != 4 {
			t.Errorf("cluster %d slots = %d, want 4", i, cl.Slots)
		}
	}
	// c. PEs 7-15 run forces for clusters 3 and 4 -> force size 10.
	if got := cfg.Cluster(3).ForceSize(); got != 10 {
		t.Errorf("cluster 3 force size = %d, want 10", got)
	}
	if got := cfg.Cluster(4).ForceSize(); got != 10 {
		t.Errorf("cluster 4 force size = %d, want 10", got)
	}
	// d. PEs 16-20 run forces for cluster 2 -> force size 6.
	if got := cfg.Cluster(2).ForceSize(); got != 6 {
		t.Errorf("cluster 2 force size = %d, want 6", got)
	}
	// e. cluster 1 has no secondaries -> FORCESPLIT causes no splitting.
	if got := cfg.Cluster(1).ForceSize(); got != 1 {
		t.Errorf("cluster 1 force size = %d, want 1", got)
	}
	// "The maximum number of simultaneous tasks that might be running on one
	// of these PE's is equal to the sum of the slots allocated in both
	// clusters, 4+4=8 here."
	for pe := 7; pe <= 15; pe++ {
		if got := cfg.MaxMultiprogramming(pe); got != 8 {
			t.Errorf("PE %d max multiprogramming = %d, want 8", pe, got)
		}
	}
	for pe := 16; pe <= 20; pe++ {
		if got := cfg.MaxMultiprogramming(pe); got != 4 {
			t.Errorf("PE %d max multiprogramming = %d, want 4", pe, got)
		}
	}
	if got := cfg.MaxMultiprogramming(3); got != 4 {
		t.Errorf("PE 3 max multiprogramming = %d, want 4 (its own slots)", got)
	}
	if got := totalSlots(cfg); got != 16 {
		t.Errorf("total slots = %d, want 16", got)
	}
	wantPEs := []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if got := cfg.UsedPEs(); !reflect.DeepEqual(got, wantPEs) {
		t.Errorf("used PEs = %v", got)
	}
}

func TestSimpleConfiguration(t *testing.T) {
	cfg := Simple(4, 3)
	if err := cfg.Validate(flex.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if got := cfg.ClusterNumbers(); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("cluster numbers = %v", got)
	}
	if cfg.Cluster(1).PrimaryPE != 3 || cfg.Cluster(4).PrimaryPE != 6 {
		t.Fatal("primary PEs not assigned from PE 3 upward")
	}
	if cfg.Cluster(2).ForceSize() != 1 {
		t.Fatal("Simple clusters should have no secondaries")
	}
	withForces := cfg.WithForces(2, 10, 11, 12)
	if withForces.Cluster(2).ForceSize() != 4 {
		t.Fatal("WithForces did not add secondaries")
	}
	if cfg.Cluster(2).ForceSize() != 1 {
		t.Fatal("WithForces must not mutate the original")
	}
}

func TestValidateRejections(t *testing.T) {
	machine := flex.DefaultConfig()
	base := func() *Configuration { return Simple(2, 2) }

	cases := []struct {
		name   string
		mutate func(*Configuration)
	}{
		{"no clusters", func(c *Configuration) { c.Clusters = nil }},
		{"too many clusters", func(c *Configuration) {
			c.Clusters = nil
			for i := 1; i <= 19; i++ {
				c.Clusters = append(c.Clusters, Cluster{Number: i, PrimaryPE: 3 + (i-1)%18, Slots: 1})
			}
		}},
		{"cluster number zero", func(c *Configuration) { c.Clusters[0].Number = 0 }},
		{"cluster number too big", func(c *Configuration) { c.Clusters[0].Number = 19 }},
		{"duplicate cluster number", func(c *Configuration) { c.Clusters[1].Number = c.Clusters[0].Number }},
		{"primary on unix PE", func(c *Configuration) { c.Clusters[0].PrimaryPE = 1 }},
		{"primary out of range", func(c *Configuration) { c.Clusters[0].PrimaryPE = 21 }},
		{"shared primary PE", func(c *Configuration) { c.Clusters[1].PrimaryPE = c.Clusters[0].PrimaryPE }},
		{"zero slots", func(c *Configuration) { c.Clusters[0].Slots = 0 }},
		{"secondary on unix PE", func(c *Configuration) { c.Clusters[0].SecondaryPEs = []int{2} }},
		{"duplicate secondary", func(c *Configuration) { c.Clusters[0].SecondaryPEs = []int{7, 7} }},
		{"unknown trace event", func(c *Configuration) { c.TraceEvents = []string{"NOT-AN-EVENT"} }},
		{"negative time limit", func(c *Configuration) { c.TimeLimit = -time.Second }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(cfg)
		if err := cfg.Validate(machine); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestValidTraceEventsAccepted(t *testing.T) {
	cfg := Simple(1, 1)
	for _, k := range trace.Kinds() {
		cfg.TraceEvents = append(cfg.TraceEvents, k.String())
	}
	if err := cfg.Validate(flex.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := Section9Example()
	cfg.TimeLimit = 90 * time.Second
	cfg.TraceEvents = []string{"TASK-INIT", "FORCE-SPLIT"}

	var buf bytes.Buffer
	if err := cfg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, loaded) {
		t.Fatalf("round trip mismatch:\nsaved  %+v\nloaded %+v", cfg, loaded)
	}
	if err := loaded.Validate(flex.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestLoadHandlesCommentsAndBlankLines(t *testing.T) {
	text := `
# a saved PISCES 2 configuration
pisces-configuration "demo"

cluster 1 primary 3 slots 2
cluster 2 primary 4 slots 2 secondaries 7,8,9
timelimit 1m30s
trace MSG-SEND
`
	cfg, err := Load(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "demo" {
		t.Errorf("name = %q", cfg.Name)
	}
	if cfg.TimeLimit != 90*time.Second {
		t.Errorf("time limit = %v", cfg.TimeLimit)
	}
	if got := cfg.Cluster(2).SecondaryPEs; !reflect.DeepEqual(got, []int{7, 8, 9}) {
		t.Errorf("secondaries = %v", got)
	}
	if !reflect.DeepEqual(cfg.TraceEvents, []string{"MSG-SEND"}) {
		t.Errorf("trace events = %v", cfg.TraceEvents)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		"cluster 1 primary 3 slots 2\n",                                             // missing header
		"pisces-configuration \"x\"\nbogus directive\n",                             // unknown directive
		"pisces-configuration \"x\"\ncluster one primary 3 slots 2",                 // bad number
		"pisces-configuration \"x\"\ncluster 1 primary 3\n",                         // too short
		"pisces-configuration \"x\"\ncluster 1 primary 3 slots z\n",                 // bad slots
		"pisces-configuration \"x\"\ncluster 1 primary q slots 2\n",                 // bad primary
		"pisces-configuration \"x\"\ncluster 1 nope 3 slots 2\n",                    // unknown attribute
		"pisces-configuration \"x\"\ntimelimit forever\n",                           // bad duration
		"pisces-configuration \"x\"\ntimelimit\n",                                   // missing duration
		"pisces-configuration \"x\"\ntrace\n",                                       // missing event
		"pisces-configuration \"x\"\ncluster 1 primary 3 slots 2 secondaries a,b\n", // bad secondaries
	}
	for i, text := range cases {
		if _, err := Load(strings.NewReader(text)); err == nil {
			t.Errorf("case %d: expected load error for %q", i, text)
		}
	}
}

func TestStringSummary(t *testing.T) {
	cfg := Section9Example()
	cfg.TimeLimit = time.Minute
	cfg.TraceEvents = []string{"BARRIER"}
	s := cfg.String()
	for _, want := range []string{"section-9-example", "cluster 1", "cluster 4", "primary PE 6", "time limit", "BARRIER"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	cfg := Section9Example()
	clone := cfg.Clone()
	clone.Cluster(2).SecondaryPEs[0] = 99
	clone.Cluster(1).Slots = 7
	if cfg.Cluster(2).SecondaryPEs[0] == 99 {
		t.Fatal("Clone shares secondary PE slices with the original")
	}
	if cfg.Cluster(1).Slots == 7 {
		t.Fatal("Clone shares cluster records with the original")
	}
}

// Property: Simple(n, s) is always valid for 1 <= n <= 18 and s >= 1, and its
// save/load round trip is the identity.
func TestQuickSimpleRoundTrip(t *testing.T) {
	f := func(nRaw, sRaw uint8) bool {
		n := int(nRaw%18) + 1
		s := int(sRaw%6) + 1
		cfg := Simple(n, s)
		if err := cfg.Validate(flex.DefaultConfig()); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := cfg.Save(&buf); err != nil {
			return false
		}
		loaded, err := Load(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(cfg, loaded)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: MaxMultiprogramming of a PE never exceeds the total slots of the
// configuration and is zero for PEs the configuration does not use.
func TestQuickMaxMultiprogrammingBounds(t *testing.T) {
	cfg := Section9Example()
	f := func(peRaw uint8) bool {
		pe := int(peRaw%25) + 1
		mp := cfg.MaxMultiprogramming(pe)
		if mp < 0 || mp > totalSlots(cfg) {
			return false
		}
		used := false
		for _, u := range cfg.UsedPEs() {
			if u == pe {
				used = true
			}
		}
		if !used && mp != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// totalSlots is the number of user-task slots across cfg's clusters.
func totalSlots(cfg *Configuration) int {
	n := 0
	for _, cl := range cfg.Clusters {
		n += cl.Slots
	}
	return n
}
