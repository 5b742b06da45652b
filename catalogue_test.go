package pisces_test

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	pisces "repro"
	"repro/internal/config"
	"repro/internal/msgcodec"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestMetricsCatalogueMatchesEmittedNames holds README's "Metrics catalogue"
// and the runtime to each other: every metric name a metrics-on
// single-process run, a 2-node HA mesh and a serving daemon's snapshot emit
// has a row, and every row is emitted by at least one of them.  Names are
// compared after replacing node ids (n0->n1 becomes n<a>->n<b>) and
// stripping the per-tenant scope (tenant.p1.), which the catalogue spells as
// placeholders.
func TestMetricsCatalogueMatchesEmittedNames(t *testing.T) {
	rows := catalogueRows(t)
	src, err := os.ReadFile("examples/sumsq.pf")
	if err != nil {
		t.Fatal(err)
	}
	emitted := make(map[string]bool)
	tenantScoped := false
	add := func(s *obs.Snapshot) {
		var names []string
		for _, c := range s.Counters {
			names = append(names, c.Name)
		}
		for _, g := range s.Gauges {
			names = append(names, g.Name)
		}
		for _, h := range s.Hists {
			names = append(names, h.Name)
		}
		for _, n := range names {
			if m := tenantPrefix.FindString(n); m != "" {
				tenantScoped = true
				n = n[len(m):]
			}
			emitted[nodePair.ReplaceAllString(n, "n<a>->n<b>")] = true
		}
	}
	add(singleProcessSnapshot(t, string(src)))
	add(meshSnapshot(t, string(src)))
	add(daemonSnapshot(t, string(src)))

	var drift []string
	for name := range emitted {
		if !rows[name] {
			drift = append(drift, fmt.Sprintf("metric %q is emitted but has no row in README's Metrics catalogue", name))
		}
	}
	for name := range rows {
		if name == "tenant.<id>.*" {
			if !tenantScoped {
				drift = append(drift, fmt.Sprintf("README lists %q but the daemon snapshot scoped no metric per tenant", name))
			}
		} else if !emitted[name] {
			drift = append(drift, fmt.Sprintf("README's Metrics catalogue lists %q but no run emitted it", name))
		}
	}
	sort.Strings(drift)
	for _, d := range drift {
		t.Error(d)
	}
}

// TestEventCatalogueMatchesKinds holds README's "Event catalogue" and the
// event table in internal/obs to each other: every kind has a row, every row
// names a kind, and a row's Section 12 label, black-box kind and span lane
// are the ones the code's row carries ("—" where it carries none).
func TestEventCatalogueMatchesKinds(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(readme), "**Event catalogue**")
	if !ok {
		t.Fatal(`README.md has no "**Event catalogue**" section`)
	}
	rows := make(map[string][]string)
	for _, line := range strings.Split(after, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if m := backticked.FindStringSubmatch(cells[0]); m != nil && len(cells) == 5 {
			rows[m[1]] = cells
		}
	}
	lane := strings.NewReplacer("%[1]d", "<A>", "%[2]d", "<B>", "%[3]s", "<task>")
	for _, k := range obs.Kinds() {
		cells, ok := rows[k.Name]
		if !ok {
			t.Errorf("event kind %q has no row in README's Event catalogue", k.Name)
			continue
		}
		delete(rows, k.Name)
		want := [3]string{"—", "—", "—"}
		if k.Trace >= 0 {
			want[0] = "`" + k.Trace.String() + "`"
		}
		if k.Box != 0 {
			want[1] = "`" + msgcodec.EventKindName(k.Box) + "`"
		}
		if k.Lane != "" {
			want[2] = "`" + lane.Replace(k.Lane) + "`"
		}
		for i, col := range []string{"§12 line", "black box", "span lane"} {
			if cell := strings.TrimSpace(cells[i+1]); !strings.HasPrefix(cell, want[i]) {
				t.Errorf("README's row for %q: %s cell is %q, the code's row says %s", k.Name, col, cell, want[i])
			}
		}
	}
	for name := range rows {
		t.Errorf("README's Event catalogue lists %q, which is not an event kind", name)
	}
}

var (
	nodePair     = regexp.MustCompile(`n\d+->n\d+`)
	tenantPrefix = regexp.MustCompile(`^tenant\.[^.]+\.`)
	backticked   = regexp.MustCompile("`([^`]+)`")
)

// catalogueRows parses the first column of the table under "**Metrics
// catalogue**".  A cell names one or more metrics in backticks; a name
// starting with "." replaces the last dotted segment of the name before it
// (`serve.cache.hits` / `.misses` lists serve.cache.misses).
func catalogueRows(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(readme), "**Metrics catalogue**")
	if !ok {
		t.Fatal(`README.md has no "**Metrics catalogue**" section`)
	}
	rows := make(map[string]bool)
	inTable := false
	for _, line := range strings.Split(after, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cell, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
		prev := ""
		for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
			name := m[1]
			if strings.HasPrefix(name, ".") && prev != "" {
				name = prev[:strings.LastIndex(prev, ".")] + name
			}
			rows[name] = true
			prev = name
		}
	}
	if len(rows) < 10 {
		t.Fatalf("parsed only %d metric names from the catalogue: %v", len(rows), rows)
	}
	return rows
}

// singleProcessSnapshot is what `pisces run -stats` reports: the registry
// plus the interpreter's counters.
func singleProcessSnapshot(t *testing.T, src string) *obs.Snapshot {
	t.Helper()
	reg := obs.New()
	reg.Enable(obs.Metrics)
	vm, err := pisces.NewVM(pisces.SimpleConfiguration(2, 4), pisces.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()
	prog, err := pisces.CompileSourceUncached(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Run(vm, pisces.InterpretOptions{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	snap.Merge(prog.Snapshot())
	return snap
}

// meshSnapshot runs the program on a 2-node in-process HA mesh and returns
// the coordinator's merged view, as `pisces run -nodes 2 -ha -stats` would.
func meshSnapshot(t *testing.T, src string) *obs.Snapshot {
	t.Helper()
	const nodes = 2
	listeners := make([]net.Listener, nodes)
	addrs := make([]string, nodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	var out bytes.Buffer
	started := make([]*node.Node, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for i := range started {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reg := obs.New()
			reg.Enable(obs.Metrics)
			started[i], errs[i] = node.Start(node.Options{
				NodeID: i, Addrs: addrs, Listener: listeners[i],
				Config: config.Simple(2, 4), Source: src, Out: &out,
				AcceptTimeout: 30 * time.Second, ConnectTimeout: 20 * time.Second,
				Metrics: reg, HA: true,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := started[1].ServeUntilShutdown(); err != nil {
			t.Errorf("follower: %v", err)
		}
	}()
	if err := started[0].RunMain(); err != nil {
		t.Fatal(err)
	}
	if err := started[0].Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	merged := started[0].Snapshot()
	snaps := started[0].FollowerSnapshots()
	if len(snaps) != nodes-1 {
		t.Fatalf("coordinator holds %d follower snapshots, want %d", len(snaps), nodes-1)
	}
	for _, s := range snaps {
		merged.Merge(s)
	}
	return merged
}

// daemonSnapshot submits the program twice (a compile-cache miss, then a
// hit) to a manager with per-tenant metrics on and returns its /metrics view.
func daemonSnapshot(t *testing.T, src string) *obs.Snapshot {
	t.Helper()
	m := serve.New(serve.Config{MaxActive: 1, TenantMetrics: true})
	for i := 0; i < 2; i++ {
		s, err := m.Submit(serve.Request{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-s.Done():
		case <-time.After(30 * time.Second):
			t.Fatal("session did not finish")
		}
		if st, err := s.State(); st != serve.StateDone {
			t.Fatalf("session %d: state %q err %v", i, st, err)
		}
	}
	snap := m.Snapshot()
	if err := m.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return snap
}
