package main

// The benchmark's catalogue: every workload and metric name the harness may
// emit.  BENCHMARK.json at the repository root declares the same lists for
// the driver; TestCatalogueMatchesBenchmarkJSON keeps the two identical.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef declares one metric.  Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change is a regression;
// per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloads = []workloadDef{
	{"wire_fanin", "64 B messages, two in-process nodes over loopback TCP: per-message cost of node, msgcodec, core.DeliverWire and the memory shard does the work; pfi, pfc and serve do none"},
	{"wire_bulk", "4 KiB messages over the same mesh: per-byte cost (arena copy, decode makeslice, batch fill) dominates where wire_fanin is per-message cost"},
	{"pf_fanin", "the paper's user path: the same fan-in written in Pisces Fortran under pisces run -nodes 2, real processes; the interpreter is the largest share, the wire a minority"},
	{"serve_mix", "session boot on a real pisces serve daemon over HTTP (NewVM, arena first touch, NewRecorder); 1 submission in 8 misses the compile cache, so the front end shows in cold sessions only"},
}

// endToEnd lists what a user of the system sees.  The driver has every
// untraced run print every end-to-end metric, so each is defined on all four
// workloads (README.md says what an operation is on each), and the
// quantities that exist on some workloads only are the e2e.* rows of the
// traced run; so is the round latency, which the driver's first check found
// spread past its bound.  The time metrics carry the largest bound the
// driver allows: with unchanged code the shared host moves them by a tenth
// and more from one half hour to the next (README.md, "Run-to-run spread").
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.10},
}

// perLayer lists the traced run's rows.  Every traced run prints all of them;
// a row whose layer does no work on the workload reads 0.
var perLayer = []metricDef{
	{"bench.build_s", "s", lower, 0},
	{"bench.budget.residual_share", "share", lower, 0},
	{"e2e.ns_per_op", "ns", lower, 0},
	{"e2e.round_p50_ms", "ms", lower, 0},
	{"e2e.allocs_per_msg", "count", lower, 0},
	{"e2e.alloc_bytes_per_msg", "B", lower, 0},
	{"e2e.session_p50_ms", "ms", lower, 0},
	{"e2e.session_p95_ms", "ms", lower, 0},
	{"e2e.cold_session_p50_ms", "ms", lower, 0},
	{"msgcodec.encode.ns_per_msg", "ns", lower, 0},
	{"msgcodec.decode.ns_per_msg", "ns", lower, 0},
	{"msgcodec.decode.alloc_bytes_per_msg", "B", lower, 0},
	{"msgcodec.frame.ns_per_msg", "ns", lower, 0},
	{"memory.alloc_free.ns_per_msg", "ns", lower, 0},
	{"memory.arena.first_touch_us", "us", lower, 0},
	{"memory.arena.first_touch_bytes", "B", lower, 0},
	{"obs.recorder.ns_per_event", "ns", lower, 0},
	{"obs.recorder.ns_per_event_2g", "ns", lower, 0},
	{"obs.newrecorder.us", "us", lower, 0},
	{"obs.newrecorder.alloc_bytes", "B", lower, 0},
	{"obs.metrics_on.overhead_share", "share", lower, 0},
	{"core.intra.ns_per_msg", "ns", lower, 0},
	{"core.routed.ns_per_msg", "ns", lower, 0},
	{"core.heap.charges_per_msg", "count", lower, 0},
	{"core.newvm.us", "us", lower, 0},
	{"core.shutdown.us", "us", lower, 0},
	{"core.initiate.us", "us", lower, 0},
	{"node.wire.added_ns_per_msg", "ns", lower, 0},
	{"node.frames_per_write", "count", higher, 0},
	{"node.wire_bytes_per_msg", "B", lower, 0},
	{"node.credit.stalls", "count", lower, 0},
	{"node.rtt.p50_us", "us", lower, 0},
	{"node.mesh.start_ms", "ms", lower, 0},
	{"node.procs.boot_ms", "ms", lower, 0},
	{"pfc.parse.us_per_prog", "us", lower, 0},
	{"pfi.compile.us_per_prog", "us", lower, 0},
	{"pfi.compile.allocs_per_prog", "count", lower, 0},
	{"pfi.cache_hit.us_per_prog", "us", lower, 0},
	{"pfi.cache.hit_share", "share", higher, 0},
	{"pfi.run.us_per_prog", "us", lower, 0},
	{"pfi.single.ns_per_msg", "ns", lower, 0},
	{"pfi.stmts_per_msg", "count", lower, 0},
	{"pfi.exec.ns_per_stmt", "ns", lower, 0},
	{"pf.wire.added_ns_per_msg", "ns", lower, 0},
	{"serve.submit_done.p50_us", "us", lower, 0},
	{"serve.queue_wait.p50_us", "us", lower, 0},
	{"serve.run.p50_us", "us", lower, 0},
	{"serve.session.p99_ms", "ms", lower, 0},
	{"serve.http.added_us", "us", lower, 0},
	{"serve.alloc_bytes_per_session", "B", lower, 0},
	{"serve.allocs_per_session", "count", lower, 0},
	{"serve.rejected_share", "share", lower, 0},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
