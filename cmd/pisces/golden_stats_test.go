package main

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
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

// TestNetfaultMatchesPlainRun: `pisces run -netfault` boots one VM per
// cluster on a seeded fault network, so every cross-cluster message is
// delayed, reordered against other lanes and sometimes retransmitted — and
// the program's output must still be the plain run's.  Under -sim the fault
// schedule replays from the seed: the same seed twice with -stats gives the
// same bytes, metric report included.
func TestNetfaultMatchesPlainRun(t *testing.T) {
	progs := map[string][]string{
		"sumsq":        {"-forces", "7,8", filepath.Join("..", "..", "examples", "sumsq.pf")},
		"crosscluster": {filepath.Join("..", "..", "internal", "conformance", "corpus", "crosscluster.pf")},
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
		for seed := 1; seed <= 3; seed++ {
			sim := []string{"-sim", "-seed", fmt.Sprint(seed)}
			plain := run(append(sim, tail...)...)
			if got := run(append(append(sim, "-netfault"), tail...)...); got != plain {
				t.Errorf("%s seed %d: -netfault output differs from the plain run:\n%s--- plain ---\n%s", name, seed, got, plain)
			}
			stats := append(append(sim, "-netfault", "-stats"), tail...)
			if a, b := run(stats...), run(stats...); a != b {
				t.Errorf("%s seed %d: two -netfault -stats runs differ:\n%s--- and ---\n%s", name, seed, a, b)
			}
		}
	}
}
