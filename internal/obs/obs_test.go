package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundsRoundTrip(t *testing.T) {
	vals := []int64{1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 1000, 1 << 20, 1<<40 + 12345, 1<<62 + 999}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		vals = append(vals, 1+rng.Int63())
	}
	for _, v := range vals {
		i := bucketOf(v)
		lo, hi := bucketBounds(i)
		if v < lo || v >= hi {
			t.Fatalf("value %d mapped to bucket %d with bounds [%d,%d)", v, i, lo, hi)
		}
		if i < 0 || i >= numBuckets {
			t.Fatalf("value %d mapped out of range: %d", v, i)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{unit: "ns"}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.snap("q")
	if s.Count != 1000 || s.Max != 1000 {
		t.Fatalf("count/max = %d/%d, want 1000/1000", s.Count, s.Max)
	}
	for _, tc := range []struct {
		p    float64
		want float64
		tol  float64
	}{
		{0.50, 500, 0.15}, // log buckets: 25% relative width, interpolation tightens it
		{0.95, 950, 0.15},
		{0.99, 990, 0.15},
		{1.00, 1000, 0.01},
	} {
		got := s.Quantile(tc.p)
		if got < tc.want*(1-tc.tol) || got > tc.want*(1+tc.tol) {
			t.Errorf("p%.0f = %.1f, want %.1f ±%.0f%%", tc.p*100, got, tc.want, tc.tol*100)
		}
	}
	if q := s.Quantile(1.0); q > float64(s.Max) {
		t.Errorf("p100 = %.1f exceeds max %d", q, s.Max)
	}
}

func TestHistogramZerosAndNegatives(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)
	h.Observe(-5)
	h.Observe(10)
	s := h.snap("z")
	if s.Count != 3 || s.Zeros != 2 {
		t.Fatalf("count/zeros = %d/%d, want 3/2", s.Count, s.Zeros)
	}
	if q := s.Quantile(0.5); q != 0 {
		t.Fatalf("median with 2/3 zeros = %.1f, want 0", q)
	}
}

// TestSnapshotOrderDeterministic pins the ordering contract: snapshot and
// table output are sorted by name, independent of registration order.
func TestSnapshotOrderDeterministic(t *testing.T) {
	names := []string{"zeta", "alpha", "mid.dle", "beta"}
	a, b := New(), New()
	for _, n := range names {
		a.Counter(n).Add(1)
		a.Histogram("h."+n, "ns").Observe(5)
	}
	for i := len(names) - 1; i >= 0; i-- {
		b.Counter(names[i]).Add(1)
		b.Histogram("h."+names[i], "ns").Observe(5)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("snapshots differ by registration order:\n%v\n%v", sa, sb)
	}
	var got []string
	for _, c := range sa.Counters {
		got = append(got, c.Name)
	}
	want := []string{"alpha", "beta", "mid.dle", "zeta"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("counter order = %v, want %v", got, want)
	}
	ta, tb := renderTables(sa), renderTables(sb)
	if ta != tb {
		t.Fatalf("table output differs by registration order:\n%s\n%s", ta, tb)
	}
	if !bytes.Equal(sa.Encode(), sb.Encode()) {
		t.Fatalf("wire encoding differs by registration order")
	}
}

func renderTables(s *Snapshot) string {
	var sb strings.Builder
	for _, t := range s.Tables("m") {
		sb.WriteString(t.String())
	}
	return sb.String()
}

// TestRegistryRace hammers Counter registration, Add and Snapshot from
// parallel goroutines; run under -race this is the concurrency guard for
// the registry.
func TestRegistryRace(t *testing.T) {
	r := New()
	r.Enable(Metrics)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter(fmt.Sprintf("c%d", i%17)).Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", "ns").Observe(int64(i))
				if i%10 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	var total int64
	for _, c := range s.Counters {
		total += c.Value
	}
	if total != 8*200 {
		t.Fatalf("counter total = %d, want %d", total, 8*200)
	}
	for _, h := range s.Hists {
		if h.Count != 8*200 {
			t.Fatalf("histogram count = %d, want %d", h.Count, 8*200)
		}
	}
}

func TestSnapshotWireRoundTrip(t *testing.T) {
	r := New()
	r.Counter("sent").Add(42)
	r.Gauge("depth").Set(-3)
	h := r.Histogram("lat", "ns")
	for _, v := range []int64{0, 1, 50, 999, 123456, 1 << 33} {
		h.Observe(v)
	}
	s := r.Snapshot()
	got, err := DecodeSnapshot(s.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n%v\n%v", s, got)
	}
	if _, err := DecodeSnapshot(s.Encode()[:5]); err == nil {
		t.Fatalf("truncated blob decoded without error")
	}
	if _, err := DecodeSnapshot([]byte{99}); err == nil {
		t.Fatalf("bad version decoded without error")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := New(), New()
	a.Counter("x").Add(1)
	a.Counter("only.a").Add(5)
	b.Counter("x").Add(2)
	b.Counter("only.b").Add(7)
	ha, hb := a.Histogram("h", "ns"), b.Histogram("h", "ns")
	ha.Observe(10)
	ha.Observe(100)
	hb.Observe(1000)
	sa := a.Snapshot()
	sa.Merge(b.Snapshot())
	want := map[string]int64{"only.a": 5, "only.b": 7, "x": 3}
	for _, c := range sa.Counters {
		if c.Value != want[c.Name] {
			t.Errorf("merged %s = %d, want %d", c.Name, c.Value, want[c.Name])
		}
	}
	if len(sa.Hists) != 1 || sa.Hists[0].Count != 3 || sa.Hists[0].Max != 1000 {
		t.Fatalf("merged histogram = %+v", sa.Hists)
	}
	// Merging must preserve sorted order so encodings stay canonical.
	for i := 1; i < len(sa.Counters); i++ {
		if sa.Counters[i-1].Name >= sa.Counters[i].Name {
			t.Fatalf("merged counters unsorted: %v", sa.Counters)
		}
	}
}

func TestSpanCaptureAndChromeTrace(t *testing.T) {
	r := New()
	base := time.Unix(1000, 0)
	now := base
	r.SetClock(func() time.Time { return now })
	r.Enable(Spans)

	start := now
	now = now.Add(1500 * time.Nanosecond)
	r.Emit(&Event{Kind: WireRx, Type: "work \"quoted\"", A: 1, Start: start})
	start = now
	now = now.Add(2 * time.Microsecond)
	r.Emit(&Event{Kind: Route, Edge: 0x2a, Type: "more", A: 1, B: 2, Start: start})

	spans, dropped := r.Spans()
	if dropped != 0 || len(spans) != 2 {
		t.Fatalf("spans = %d dropped = %d", len(spans), dropped)
	}
	if spans[0].Start != 0 || spans[0].Dur != 1500*time.Nanosecond {
		t.Fatalf("span[0] = %+v", spans[0])
	}
	if spans[1].Start != 1500*time.Nanosecond || spans[1].Phase != FlowStart || spans[1].Edge != 0x2a {
		t.Fatalf("span[1] = %+v", spans[1])
	}

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 lanes x 2 metadata events + 2 spans, then the one flow event.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("trace events = %d, want 7\n%s", len(doc.TraceEvents), buf.String())
	}
	if f := doc.TraceEvents[6]; f["ph"] != "s" || f["id"] != "0x2a" || f["ts"] != 1.5 {
		t.Fatalf("last event %v, want the flow start of edge 0x2a at 1.5us", f)
	}
}

func TestSpansDisabledByDefault(t *testing.T) {
	r := New()
	r.Emit(&Event{Kind: MeshHandshake, Start: time.Now()})
	if spans, _ := r.Spans(); len(spans) != 0 {
		t.Fatalf("disabled registry captured %d spans", len(spans))
	}
	var nilReg *Registry
	if nilReg.Has(Spans) || nilReg.Has(Metrics) {
		t.Fatalf("nil registry claims enabled families")
	}
	nilReg.Emit(&Event{Kind: MeshHandshake, Start: time.Now()}) // must not panic
	if s := nilReg.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot non-empty")
	}
}

func TestSpanBufferBound(t *testing.T) {
	r := New()
	r.spans.limit = 4
	r.Enable(Spans)
	for i := 0; i < 10; i++ {
		r.Emit(&Event{Kind: DrainRound, Type: "1", Start: r.Now()})
	}
	spans, dropped := r.Spans()
	if len(spans) != 4 || dropped != 6 {
		t.Fatalf("spans/dropped = %d/%d, want 4/6", len(spans), dropped)
	}
}

func TestDebugHandler(t *testing.T) {
	r := New()
	r.Counter("wire.frames").Add(9)
	r.Histogram("lat.ns", "ns").Observe(123)
	srv := httptest.NewServer(DebugHandler(r))
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics":    "pisces_wire_frames 9",
		"/debug/vars": "memstats",
		"/":           "/debug/pprof/",
	} {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(res.Body)
		res.Body.Close()
		if res.StatusCode != 200 || !strings.Contains(buf.String(), want) {
			t.Errorf("GET %s = %d, body missing %q:\n%s", path, res.StatusCode, want, buf.String())
		}
	}
}

func TestSnapshotPrefix(t *testing.T) {
	r := New()
	r.Counter("core.heap.charge").Add(3)
	r.Gauge("queue.depth").Set(7)
	r.Histogram("pfi.stmt.ns", "ns").Observe(50)
	s := r.Snapshot().Prefix("tenant.p1.")
	if s.Counters[0].Name != "tenant.p1.core.heap.charge" {
		t.Fatalf("counter name = %q", s.Counters[0].Name)
	}
	if s.Gauges[0].Name != "tenant.p1.queue.depth" {
		t.Fatalf("gauge name = %q", s.Gauges[0].Name)
	}
	if s.Hists[0].Name != "tenant.p1.pfi.stmt.ns" {
		t.Fatalf("hist name = %q", s.Hists[0].Name)
	}

	// Prefixed tenant snapshots merge into a daemon view without colliding
	// with the unprefixed series or each other.
	base := New()
	base.Counter("core.heap.charge").Add(10)
	merged := base.Snapshot()
	merged.Merge(s)
	r2 := New()
	r2.Counter("core.heap.charge").Add(4)
	merged.Merge(r2.Snapshot().Prefix("tenant.p2."))
	byName := map[string]int64{}
	for _, c := range merged.Counters {
		byName[c.Name] = c.Value
	}
	want := map[string]int64{
		"core.heap.charge":           10,
		"tenant.p1.core.heap.charge": 3,
		"tenant.p2.core.heap.charge": 4,
	}
	for k, v := range want {
		if byName[k] != v {
			t.Errorf("merged[%q] = %d, want %d", k, byName[k], v)
		}
	}
}

func TestDebugHandlerSource(t *testing.T) {
	r := New()
	r.Counter("sessions.completed").Add(2)
	merged := func() *Snapshot {
		s := r.Snapshot()
		tr := New()
		tr.Counter("prog.statements").Add(5)
		s.Merge(tr.Snapshot().Prefix("tenant.p1."))
		return s
	}
	srv := httptest.NewServer(DebugHandlerSource(merged))
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(res.Body)
	res.Body.Close()
	for _, want := range []string{"pisces_sessions_completed 2", "pisces_tenant_p1_prog_statements 5"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q:\n%s", want, buf.String())
		}
	}
}
