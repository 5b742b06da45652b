package obs

import (
	"testing"
	"time"
)

// BenchmarkDisabledGuard measures the cost an instrumented call site pays
// when observability is off: one atomic mask load.  This is the "near zero"
// number quoted in the README.
func BenchmarkDisabledGuard(b *testing.B) {
	r := New()
	h := r.Histogram("h", "ns")
	var t0 time.Time
	for i := 0; i < b.N; i++ {
		if r.Has(Metrics) {
			t0 = r.Now()
		}
		if !t0.IsZero() {
			h.ObserveDuration(r.Now().Sub(t0))
		}
	}
}

// BenchmarkDisabledGuardNil is the same guard through a nil registry.
func BenchmarkDisabledGuardNil(b *testing.B) {
	var r *Registry
	for i := 0; i < b.N; i++ {
		if r.Has(Metrics) {
			b.Fatal("nil registry enabled")
		}
	}
}

// BenchmarkHistogramObserve is the enabled hot path: atomic count/sum/bucket
// adds plus a max CAS.
func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{}
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i)&0xffff + 1)
	}
}

// BenchmarkCounterAdd is the counter hot path.
func BenchmarkCounterAdd(b *testing.B) {
	r := New()
	c := r.Counter("c")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkSpanCapture measures one enabled span capture through Emit: two
// clock reads, the lane format, the name and a mutexed buffer append.
func BenchmarkSpanCapture(b *testing.B) {
	r := New()
	r.spans.limit = 1 << 30
	r.Enable(Spans)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(&Event{Kind: Route, Edge: 1, Type: "op", A: 1, B: 2, Start: r.Now()})
	}
}

// BenchmarkEmitTraced is one enabled trace line into a sink that drops it:
// the trace lock, two taskid renderings, the info format.
func BenchmarkEmitTraced(b *testing.B) {
	r := New()
	r.AddTraceSink(&countingSink{})
	r.TraceAll(true)
	e := Event{Kind: MsgSend, Task: TaskRef{1, 1, 1}, Peer: TaskRef{1, 2, 1}, Type: "M"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.EmitAt(&e, 3, int64(i), nil)
	}
}

// BenchmarkEmitUnwatched is an announcement no sink takes: one mask load.
func BenchmarkEmitUnwatched(b *testing.B) {
	r := New()
	e := Event{Kind: MsgSend, Task: TaskRef{1, 1, 1}, Type: "M"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(&e)
	}
}
