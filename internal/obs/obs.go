// Package obs is the runtime observability layer: a metrics registry of
// atomic counters, gauges and fixed-bucket histograms plus lightweight span
// tracing with Chrome trace-event export.
//
// The design goals, in order:
//
//  1. Near-zero cost when disabled.  Every instrumented call site loads one
//     atomic mask word before doing any work; a disabled registry costs one
//     predictable branch.
//  2. Lock-free hot path when enabled.  Counters, gauges and histogram
//     observations are plain atomic ops; call sites pre-resolve *Counter /
//     *Histogram handles once and bump them without touching the registry.
//  3. Deterministic output.  Snapshots, tables and encoded wire blobs are
//     rendered in sorted name order, independent of registration order, so
//     two runs of the same seeded simulation produce byte-identical output.
//  4. Pluggable clock.  Timestamps come from the owning backend's clock, so
//     under the deterministic simulation backend all durations are virtual
//     time and seed-stable.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/trace"
)

// Mask selects which instrumentation families are live.
type Mask uint32

const (
	// Metrics enables counters, gauges and histograms.
	Metrics Mask = 1 << iota
	// Spans enables span capture for trace export.
	Spans
)

// Registry is a named set of metrics, a span buffer, and the switches that
// decide which sinks hear an announced event (event.go).  The zero value is
// not ready; use New.  A nil *Registry behaves as a permanently disabled one
// in the methods a layer calls on a registry it was merely handed — Enable,
// Disable, Has, Any, SetClock, Now, AttachRecorder, Recorder, SpanStart,
// Watching, Emit, EmitAt, EmitRun, ShareStamp, Snapshot, Spans, Trace and
// WriteChromeTrace.
// Counter, Gauge, Histogram and the Trace* switches dereference it: a caller
// that may hold none guards them itself.
type Registry struct {
	mask  atomic.Uint32
	want  atomic.Uint32 // bit k: some sink takes Kind k right now (rewant)
	each  atomic.Uint32 // bit k: a sink besides the ring takes Kind k (rewant)
	clock atomic.Pointer[func() time.Time]
	rec   atomic.Pointer[Recorder]

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// tmu is the trace lock.  It guards the Section 12 switches and sink
	// list, is held while the sinks are called (so a trace.Sink hears one
	// event at a time), and orders every change want is derived from.
	tmu     sync.Mutex
	traceOn atomic.Uint32 // bit per trace.Kind; written under tmu
	taskOff map[TaskRef]bool
	sinks   []trace.Sink

	spans spanBuf
}

// New returns an empty, disabled registry reading the goroutine backend's
// real clock (backend.Now) until SetClock rebinds it.
func New() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	r.spans.limit = defaultSpanLimit
	clk := backend.Now
	r.clock.Store(&clk)
	return r
}

// Enable turns the given instrumentation families on.
func (r *Registry) Enable(m Mask) {
	if r != nil {
		r.flip(&r.mask, uint32(m), true)
	}
}

// Disable turns the given instrumentation families off.
func (r *Registry) Disable(m Mask) {
	if r != nil {
		r.flip(&r.mask, uint32(m), false)
	}
}

// flip sets or clears bits of one of the switch words (the family mask, the
// trace types) and brings want up to date, under the trace lock.
func (r *Registry) flip(word *atomic.Uint32, bits uint32, on bool) {
	r.tmu.Lock()
	if on {
		word.Store(word.Load() | bits)
	} else {
		word.Store(word.Load() &^ bits)
	}
	r.rewant()
	r.tmu.Unlock()
}

// Has reports whether every family in m is enabled.  This is the hot-path
// guard: one atomic load and a compare.
func (r *Registry) Has(m Mask) bool {
	return r != nil && Mask(r.mask.Load())&m == m
}

// SetClock rebinds the time source (the VM points it at its backend clock so
// simulated runs stamp virtual time).  The span epoch — the zero point of
// exported trace timestamps — is the clock reading at the first SetClock or
// first captured span, whichever comes first.
func (r *Registry) SetClock(now func() time.Time) {
	if r == nil || now == nil {
		return
	}
	r.clock.Store(&now)
	r.spans.setEpoch(now())
	r.rec.Load().SetClock(now)
}

// AttachRecorder binds a flight recorder to this registry, so the layers a
// registry travels through can reach the node's recorder, and so a later
// SetClock rebinds the recorder's clock along with the registry's.  The
// recorder inherits the registry's current clock immediately.
func (r *Registry) AttachRecorder(rec *Recorder) {
	if r == nil || rec == nil {
		return
	}
	rec.SetClock(*r.clock.Load())
	r.tmu.Lock()
	r.rec.Store(rec)
	r.rewant()
	r.tmu.Unlock()
}

// Recorder returns the attached flight recorder, nil if none.  Nil-safe.
func (r *Registry) Recorder() *Recorder {
	if r == nil {
		return nil
	}
	return r.rec.Load()
}

// Now reads the registry clock.
func (r *Registry) Now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return (*r.clock.Load())()
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it on first use.  The
// unit tag ("ns", "B", ...) drives rendering only; observations are raw
// int64s.  A histogram re-requested with a different unit keeps the first.
func (r *Registry) Histogram(name, unit string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{unit: unit}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.n.Load() }

// Gauge is an instantaneous atomic value (queue depth, connection count).
type Gauge struct {
	n atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Add moves the gauge by d.
func (g *Gauge) Add(d int64) { g.n.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.n.Load() }

// Snapshot captures every registered metric at one instant, sorted by name.
type Snapshot struct {
	Counters []CounterSnap
	Gauges   []GaugeSnap
	Hists    []HistSnap
}

// CounterSnap is one counter's value in a Snapshot.
type CounterSnap struct {
	Name  string
	Value int64
}

// GaugeSnap is one gauge's value in a Snapshot.
type GaugeSnap struct {
	Name  string
	Value int64
}

// Snapshot captures the registry's metrics.  Output order is sorted by name
// within each metric kind, so the result is deterministic regardless of the
// interleaving of concurrent registrations.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for name, c := range counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Load()})
	}
	for name, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Load()})
	}
	for name, h := range hists {
		s.Hists = append(s.Hists, h.snap(name))
	}
	s.sort()
	return s
}

func (s *Snapshot) sort() {
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
}

// Merge folds other into s: counters, gauges and histogram buckets with the
// same name are summed (gauges sum too — for cluster-wide aggregation a sum
// of per-node queue depths is the machine-wide depth), maxima take the max.
// Metrics present only in other are adopted.  The result stays sorted.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	ci := indexBy(s.Counters, func(c CounterSnap) string { return c.Name })
	for _, c := range other.Counters {
		if i, ok := ci[c.Name]; ok {
			s.Counters[i].Value += c.Value
		} else {
			s.Counters = append(s.Counters, c)
		}
	}
	gi := indexBy(s.Gauges, func(g GaugeSnap) string { return g.Name })
	for _, g := range other.Gauges {
		if i, ok := gi[g.Name]; ok {
			s.Gauges[i].Value += g.Value
		} else {
			s.Gauges = append(s.Gauges, g)
		}
	}
	hi := indexBy(s.Hists, func(h HistSnap) string { return h.Name })
	for _, h := range other.Hists {
		if i, ok := hi[h.Name]; ok {
			s.Hists[i].merge(h)
		} else {
			s.Hists = append(s.Hists, h.clone())
		}
	}
	s.sort()
}

// Prefix renames every metric in the snapshot to p + name, in place, and
// returns s.  It scopes a per-tenant registry's series for aggregation into
// a daemon-wide view ("tenant.p7." + "core.heap.charge") without the hot
// paths ever paying for the longer names: sessions record under plain names
// and the serving layer prefixes at snapshot time.  Names stay sorted —
// prefixing every name with the same string preserves their order.
func (s *Snapshot) Prefix(p string) *Snapshot {
	if p == "" {
		return s
	}
	for i := range s.Counters {
		s.Counters[i].Name = p + s.Counters[i].Name
	}
	for i := range s.Gauges {
		s.Gauges[i].Name = p + s.Gauges[i].Name
	}
	for i := range s.Hists {
		s.Hists[i].Name = p + s.Hists[i].Name
	}
	return s
}

func indexBy[T any](xs []T, key func(T) string) map[string]int {
	m := make(map[string]int, len(xs))
	for i, x := range xs {
		m[key(x)] = i
	}
	return m
}

// Tables renders the snapshot as fixed-width report tables: one for counters
// and gauges, one for histogram summaries (count, p50/p95/p99, max).  Rows
// are in sorted name order.
func (s *Snapshot) Tables(title string) []*Table {
	var out []*Table
	if len(s.Counters)+len(s.Gauges) > 0 {
		t := NewTable(title, "metric", "value")
		for _, c := range s.Counters {
			t.AddRowf(c.Name, c.Value)
		}
		for _, g := range s.Gauges {
			t.AddRowf(g.Name+" (gauge)", g.Value)
		}
		out = append(out, t)
	}
	if len(s.Hists) > 0 {
		t := NewTable(title+" distributions", "histogram", "count", "p50", "p95", "p99", "max")
		for _, h := range s.Hists {
			t.AddRowf(h.Name, h.Count,
				h.format(h.Quantile(0.50)),
				h.format(h.Quantile(0.95)),
				h.format(h.Quantile(0.99)),
				h.format(float64(h.Max)))
		}
		out = append(out, t)
	}
	return out
}
