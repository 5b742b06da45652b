package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// traced returns a registry with the given sinks on its Section 12 trace and
// every event type switched off, as New leaves it.
func traced(sinks ...trace.Sink) *Registry {
	r := New()
	r.AddTraceSink(sinks...)
	return r
}

func TestTraceKindFilter(t *testing.T) {
	sink := &trace.MemorySink{}
	r := traced(sink)
	ev := Event{Kind: MsgSend, Task: TaskRef{1, 2, 3}}

	r.EmitAt(&ev, 4, 100, nil) // everything disabled by default
	if len(sink.Events()) != 0 {
		t.Fatal("event traced while its type is disabled")
	}

	r.TraceKind(trace.MsgSend, true)
	r.EmitAt(&ev, 4, 100, nil)
	if len(sink.Events()) != 1 {
		t.Fatal("event not traced while its type is enabled")
	}
	if got := sink.Events()[0]; got.Task != "1.2.3" || got.PE != 4 || got.Ticks != 100 || got.Other != "" {
		t.Fatalf("traced %+v, want task 1.2.3 at pe 4, tick 100, no peer", got)
	}
	// The four kinds that print as MSG-SEND share its switch; LOCK has its own.
	if !r.Watching(MsgSend) || !r.Watching(MsgWindow) || r.Watching(Lock) {
		t.Fatal("Watching disagrees with the MSG-SEND switch")
	}

	r.TraceKind(trace.MsgSend, false)
	r.EmitAt(&ev, 4, 100, nil)
	if len(sink.Events()) != 1 {
		t.Fatal("event traced after its type was switched back off")
	}

	// Out-of-range types are ignored safely.
	r.TraceKind(trace.Kind(-1), true)
	r.TraceKind(trace.Kind(100), true)
	for k := Kind(0); k < numKinds; k++ {
		if r.Watching(k) {
			t.Fatalf("%s watched after switching an out-of-range type on", k)
		}
	}
}

func TestTraceTaskFilter(t *testing.T) {
	sink := &trace.MemorySink{}
	r := traced(sink)
	r.TraceAll(true)
	for _, k := range trace.Kinds() {
		if !strings.Contains(r.TraceSettings(), fmt.Sprintf("%-11s ON\n", k)) {
			t.Fatalf("TraceAll left %s off:\n%s", k, r.TraceSettings())
		}
	}

	quiet, loud := TaskRef{1, 1, 1}, TaskRef{1, 2, 1}
	r.TraceTask(quiet, false)
	r.Emit(&Event{Kind: Lock, Task: quiet})
	r.Emit(&Event{Kind: Lock, Task: loud})
	if len(sink.Events()) != 1 {
		t.Fatalf("len = %d, want 1 (disabled task filtered)", len(sink.Events()))
	}
	if got := r.TraceSettings(); !strings.Contains(got, "disabled tasks: 1.1.1\n") {
		t.Fatalf("settings do not list the disabled task:\n%s", got)
	}
	r.TraceTask(quiet, true)
	r.Emit(&Event{Kind: Lock, Task: quiet})
	if len(sink.Events()) != 2 {
		t.Fatal("re-enabled task still filtered")
	}
	if got := r.TraceSettings(); strings.Contains(got, "disabled tasks") {
		t.Fatalf("settings still list a disabled task:\n%s", got)
	}
}

// TestTraceSinksFanOut: every attached sink hears every line, in one order.
func TestTraceSinksFanOut(t *testing.T) {
	first, second := &trace.MemorySink{}, &trace.MemorySink{}
	r := traced(first, second)
	r.TraceAll(true)
	for i := 0; i < 5; i++ {
		r.Emit(&Event{Kind: TaskInit, Task: TaskRef{1, 1, i + 1}, Type: "X"})
	}
	a, b := first.Lines(), second.Lines()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("sinks hold %d and %d events, want 5 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || !strings.Contains(a[i], "task=1.1."+string(rune('1'+i))) {
			t.Fatalf("line %d: %q and %q, want the %d-th emission in both", i, a[i], b[i], i+1)
		}
	}
}

func TestTraceWriterSinkAndSettings(t *testing.T) {
	var buf bytes.Buffer
	r := traced(trace.WriterSink{W: &buf})
	r.TraceKind(trace.ForceSplit, true)
	r.EmitAt(&Event{Kind: ForceSplit, Task: TaskRef{2, 3, 7}, A: 5}, 9, 4242, nil)
	line := strings.TrimSpace(buf.String())
	for _, want := range []string{"FORCE-SPLIT", "task=2.3.7", "pe=9", "ticks=4242", "members=5"} {
		if !strings.Contains(line, want) {
			t.Errorf("trace line %q missing %q", line, want)
		}
	}
	r.TraceTask(TaskRef{1, 1, 2}, false)
	r.TraceTask(TaskRef{1, 1, 10}, false)
	want := "TASK-INIT   off\nTASK-TERM   off\nMSG-SEND    off\nMSG-ACCEPT  off\nLOCK        off\nUNLOCK      off\n" +
		"BARRIER     off\nFORCE-SPLIT ON\ndisabled tasks: 1.1.10, 1.1.2\n"
	if got := r.TraceSettings(); got != want {
		t.Errorf("settings:\n%s\nwant:\n%s", got, want)
	}
}

// countingSink is a trace sink written to trace.Sink's contract: no
// synchronisation of its own.
type countingSink struct{ n int }

func (s *countingSink) Emit(trace.Event) { s.n++ }

// TestTraceSinkHearsOneEventAtATime: emitters on many goroutines, one
// unsynchronised sink; under -race any overlap of two Emit calls is a
// report, and without it a lost update shows in the count.
func TestTraceSinkHearsOneEventAtATime(t *testing.T) {
	const emitters, each = 8, 1000
	sink := &countingSink{}
	r := traced(sink)
	r.TraceAll(true)
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Emit(&Event{Kind: Lock, Task: TaskRef{1, g + 1, 1}, Type: "L"})
			}
		}(g)
	}
	wg.Wait()
	if sink.n != emitters*each {
		t.Fatalf("sink counted %d of %d events", sink.n, emitters*each)
	}
}

// wantFor is Watching's answer worked out from the kind's row and the state
// of the three switches, not from the mask.
func wantFor(k Kind, traceOn func(trace.Kind) bool, rec, spans bool) bool {
	row := kinds[k]
	return row.Trace != noTrace && traceOn(row.Trace) || row.Box != 0 && rec || row.Lane != "" && spans
}

// TestWatchingIsOneMask: whatever combination of {a trace type on, recorder
// attached, Spans on} holds, in whatever order it was reached, Watching(k)
// says what k's row says — and still does after the switches were thrown
// from several goroutines at once.
func TestWatchingIsOneMask(t *testing.T) {
	steps := map[string]func(*Registry){
		"trace": func(r *Registry) { r.TraceKind(trace.MsgAccept, true) },
		"rec":   func(r *Registry) { r.AttachRecorder(NewRecorder(0, 1, 1)) },
		"spans": func(r *Registry) { r.Enable(Spans) },
	}
	orders := [][]string{
		{"trace", "rec", "spans"}, {"trace", "spans", "rec"}, {"rec", "trace", "spans"},
		{"rec", "spans", "trace"}, {"spans", "trace", "rec"}, {"spans", "rec", "trace"},
	}
	for _, order := range orders {
		for combo := 0; combo < 8; combo++ {
			r := New()
			on := map[string]bool{}
			for i, name := range order {
				if combo&(1<<i) != 0 {
					steps[name](r)
					on[name] = true
				}
			}
			for k := Kind(0); k < numKinds; k++ {
				want := wantFor(k, func(tk trace.Kind) bool { return on["trace"] && tk == trace.MsgAccept }, on["rec"], on["spans"])
				if got := r.Watching(k); got != want {
					t.Errorf("%v in order %v: Watching(%s) = %v, want %v", on, order, k, got, want)
				}
			}
		}
	}

	// Switches thrown concurrently: each goroutine ends on a known setting,
	// so the final state is known though the interleaving is not.
	r := New()
	var wg sync.WaitGroup
	throw := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f(i)
			}
		}()
	}
	throw(func(i int) { // ends with Spans off
		r.Enable(Spans)
		r.Disable(Spans)
	})
	throw(func(i int) { // ends with Metrics on, which no kind depends on
		r.Disable(Metrics)
		r.Enable(Metrics)
	})
	throw(func(i int) { // ends with LOCK on
		r.TraceKind(trace.Lock, i%2 == 1)
	})
	throw(func(i int) { // ends with BARRIER off
		r.TraceKind(trace.BarrierEnter, i%2 == 0)
	})
	throw(func(i int) { r.AttachRecorder(NewRecorder(0, 1, 1)) })
	throw(func(i int) { _ = r.Watching(Kind(i % int(numKinds))) })
	wg.Wait()
	if !r.Has(Metrics) || r.Has(Spans) {
		t.Fatalf("family mask lost an update: metrics %v, spans %v", r.Has(Metrics), r.Has(Spans))
	}
	for k := Kind(0); k < numKinds; k++ {
		want := wantFor(k, func(tk trace.Kind) bool { return tk == trace.Lock }, true, false)
		if got := r.Watching(k); got != want {
			t.Errorf("after concurrent switching: Watching(%s) = %v, want %v", k, got, want)
		}
	}
}

// TestRingOnlyKindSkipsTraceLock: an ACCEPT the flight recorder alone is
// watching — every ACCEPT of a routed message in a plain `pisces run` — must
// not queue for the trace lock; with the lock held here, an Emit that took
// it would never return.
func TestRingOnlyKindSkipsTraceLock(t *testing.T) {
	r := New()
	rec := NewRecorder(0, 1, 4)
	r.AttachRecorder(rec)
	r.tmu.Lock()
	r.Emit(&Event{Kind: MsgAccept, Task: TaskRef{2, 1, 1}, Peer: TaskRef{1, 1, 1}, Edge: 9})
	r.tmu.Unlock()
	if len(rec.Events()) != 1 {
		t.Fatalf("ring holds %d events, want the accept", len(rec.Events()))
	}
}
