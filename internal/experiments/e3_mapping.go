package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
)

// E3Result summarises the Section 9 worked mapping example.
type E3Result struct {
	// ForceSizes maps cluster number to the number of members a FORCESPLIT
	// produces there (cluster 1 -> 1, cluster 2 -> 6, clusters 3 and 4 -> 10).
	ForceSizes map[int]int
	// MaxMultiprogramming maps PE number to the maximum number of tasks that
	// may time-share it (the "4+4=8" arithmetic of Section 9).
	MaxMultiprogramming map[int]int
	// MeasuredMembers maps cluster number to the member count actually
	// observed when a task in that cluster executed a FORCESPLIT.
	MeasuredMembers map[int]int
}

// RunE3 reproduces the Section 9 example: the configuration itself, the
// force sizes it implies, the maximum multiprogramming degree of every PE,
// and a live check that FORCESPLIT really produces those member counts
// (including the degenerate no-splitting case of cluster 1).
func RunE3(w io.Writer) (*E3Result, error) {
	cfg := config.Section9Example()
	res := &E3Result{
		ForceSizes:          make(map[int]int),
		MaxMultiprogramming: make(map[int]int),
		MeasuredMembers:     make(map[int]int),
	}
	for _, cl := range cfg.Clusters {
		res.ForceSizes[cl.Number] = cl.ForceSize()
	}
	for pe := 3; pe <= 20; pe++ {
		res.MaxMultiprogramming[pe] = cfg.MaxMultiprogramming(pe)
	}

	fmt.Fprint(w, cfg.String())

	t := obs.NewTable("E3: force size and PE loading implied by the Section 9 mapping",
		"cluster", "primary PE", "secondary PEs", "slots", "FORCESPLIT members")
	for _, n := range cfg.ClusterNumbers() {
		cl := cfg.Cluster(n)
		t.AddRowf(n, cl.PrimaryPE, fmt.Sprintf("%v", cl.SecondaryPEs), cl.Slots, cl.ForceSize())
	}
	fmt.Fprint(w, t.String())

	t2 := obs.NewTable("maximum simultaneous tasks per PE (paper: \"4+4=8\" on PEs 7-15)",
		"PEs", "max multiprogramming")
	t2.AddRow("3-6 (cluster primaries)", fmt.Sprintf("%d", res.MaxMultiprogramming[3]))
	t2.AddRow("7-15 (forces for clusters 3 and 4)", fmt.Sprintf("%d", res.MaxMultiprogramming[7]))
	t2.AddRow("16-20 (forces for cluster 2)", fmt.Sprintf("%d", res.MaxMultiprogramming[16]))
	fmt.Fprint(w, t2.String())

	// Live check: execute a FORCESPLIT in clusters 1, 2, and 3 and count the
	// members that actually run.
	vm, err := core.NewVM(cfg, core.Options{AcceptTimeout: 10 * time.Second})
	if err != nil {
		return nil, err
	}
	defer vm.Shutdown()
	members := make(chan [2]int, 8)
	vm.Register("probe", func(t *core.Task) {
		lock, err := t.NewLock("probe-lock")
		if err != nil {
			t.Printf("probe: %v\n", err)
			return
		}
		count := 0
		err = t.ForceSplit(func(m *core.ForceMember) {
			m.Critical(lock, func() { count++ })
		})
		if err != nil {
			t.Printf("probe: %v\n", err)
			return
		}
		members <- [2]int{t.Cluster(), count}
	})
	for _, cl := range []int{1, 2, 3} {
		if _, err := vm.Run("probe", core.OnCluster(cl)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 3; i++ {
		pair := <-members
		res.MeasuredMembers[pair[0]] = pair[1]
	}

	t3 := obs.NewTable("measured FORCESPLIT member counts (live run)",
		"cluster", "configured", "measured")
	for _, cl := range []int{1, 2, 3} {
		t3.AddRowf(cl, res.ForceSizes[cl], res.MeasuredMembers[cl])
	}
	fmt.Fprint(w, t3.String())
	return res, nil
}
