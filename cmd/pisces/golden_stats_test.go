package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// statsGolden pins the whole output of `pisces run -sim -seed N -stats` —
// the program's lines and the one metric report — as sha256 sums captured at
// PR 16's parent (8cc4440), beside internal/conformance's obsGolden.
var statsGolden = map[string]string{
	"crosscluster/1": "63dd1325018ec677cbb736fbd2a90ac92d585b680827129377939ef93820e18f",
	"crosscluster/2": "3fc3d02b62e0c8babd081d1cd762dd0567b5c51b03cb265720b6682ca7ba456e",
	"crosscluster/3": "3a907fca675074f2cc7e16e0d7bd6490fc4c2f8081608977fdfeb09dac061511",
	"sumsq/1":        "127cbcbd372ae3e344c28557ea448cb0a4db80debe02511615998cd6330cc57c",
	"sumsq/2":        "127cbcbd372ae3e344c28557ea448cb0a4db80debe02511615998cd6330cc57c",
	"sumsq/3":        "a98e043ab474753bdafc344d73d038ee3ff1298e29365510e9ef284f3604ba37",
}

func TestStatsReportMatchesParent(t *testing.T) {
	progs := map[string][]string{
		"sumsq":        {"-forces", "7,8", filepath.Join("..", "..", "examples", "sumsq.pf")},
		"crosscluster": {filepath.Join("..", "..", "internal", "conformance", "corpus", "crosscluster.pf")},
	}
	for name, tail := range progs {
		for seed := 1; seed <= 3; seed++ {
			var out strings.Builder
			args := append([]string{"-sim", "-seed", fmt.Sprint(seed), "-stats"}, tail...)
			if err := runInterpreted(args, &out); err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%d", name, seed)
			if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(out.String()))); statsGolden[key] != sum {
				t.Errorf("-stats report differs from the parent capture:\n\t%q: %q,\n%s", key, sum, out.String())
			}
		}
	}
}

// TestSimMeshMatchesPlainRun: `pisces run -nodes N -sim` boots N nodes in
// this process on a seeded fault network, so every cross-node message is
// delayed, reordered against other lanes and sometimes retransmitted — and
// the program's output must still be the plain run's on the same machine,
// with two clusters on one node, and under -ha.  The fault schedule replays
// from the seed: the same seed twice with -stats gives the same bytes,
// metric report included.
func TestSimMeshMatchesPlainRun(t *testing.T) {
	progs := map[string][]string{
		"sumsq":        {"-forces", "7,8", filepath.Join("..", "..", "examples", "sumsq.pf")},
		"crosscluster": {filepath.Join("..", "..", "internal", "conformance", "corpus", "crosscluster.pf")},
	}
	shapes := []struct{ machine, mesh []string }{
		{nil, []string{"-nodes", "2"}},
		{[]string{"-clusters", "4"}, []string{"-nodes", "2"}},
		{nil, []string{"-nodes", "2", "-ha"}},
	}
	run := func(args ...string) string {
		t.Helper()
		var out strings.Builder
		if err := runInterpreted(args, &out); err != nil {
			t.Fatalf("pisces run %v: %v", args, err)
		}
		return out.String()
	}
	for name, tail := range progs {
		for _, shape := range shapes {
			for seed := 1; seed <= 3; seed++ {
				plain := slices.Concat([]string{"-sim", "-seed", fmt.Sprint(seed)}, shape.machine)
				want := run(slices.Concat(plain, tail)...)
				mesh := slices.Concat(plain, shape.mesh)
				if got := run(slices.Concat(mesh, tail)...); got != want {
					t.Errorf("%s %v seed %d: output differs from the plain run:\n%s--- plain ---\n%s", name, mesh, seed, got, want)
				}
				stats := slices.Concat(mesh, []string{"-stats"}, tail)
				if a, b := run(stats...), run(stats...); a != b {
					t.Errorf("%s %v seed %d: two -stats runs differ:\n%s--- and ---\n%s", name, mesh, seed, a, b)
				}
			}
		}
	}
}

// TestSimMeshLogsToStderr: the nodes of `pisces run -nodes N -sim` log where
// the TCP form's do, on stderr — each node's `up:` line, and an HA verdict or
// a failed restore when there is one — while stdout stays the plain run's.
func TestSimMeshLogsToStderr(t *testing.T) {
	sumsq := filepath.Join("..", "..", "examples", "sumsq.pf")
	var plain strings.Builder
	if err := runInterpreted([]string{"-sim", sumsq}, &plain); err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	var mesh strings.Builder
	err = runInterpreted([]string{"-sim", "-nodes", "2", sumsq}, &mesh)
	os.Stderr = saved
	if err != nil {
		t.Fatal(err)
	}
	if mesh.String() != plain.String() {
		t.Errorf("stdout of the mesh run differs from the plain run:\n%s--- plain ---\n%s", mesh.String(), plain.String())
	}
	logged, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range []string{"node 0 up: ", "node 1 up: "} {
		if !strings.Contains(string(logged), up) {
			t.Errorf("stderr has no %q line:\n%s", up, logged)
		}
	}
}
