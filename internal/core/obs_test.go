package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/memory"
	"repro/internal/obs"
)

// metricsOn returns a registry with metrics on, for a test that reads a VM's
// activity counters.
func metricsOn() *obs.Registry {
	reg := obs.New()
	reg.Enable(obs.Metrics)
	return reg
}

// counted reads the VM's counter name.
func counted(vm *VM, name string) int64 { return vm.Obs().Counter(name).Load() }

// heapInUse is a heap shard's bytes in use.
func heapInUse(a *memory.Allocator) int {
	in, _ := a.Usage()
	return in
}

// TestVMMetricsAndSpans boots a two-cluster VM with full instrumentation on
// and pins that every core-layer metric family is populated by a simple
// cross-cluster ping-pong: heap charge/recover counters, message-size and
// codec histograms, accept wait, and router-lane spans in the Chrome trace.
func TestVMMetricsAndSpans(t *testing.T) {
	reg := obs.New()
	reg.Enable(obs.Metrics | obs.Spans)
	vm, err := NewVM(config.Simple(2, 2), Options{AcceptTimeout: 30 * time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if vm.Obs() != reg {
		t.Fatalf("Obs() did not return the configured registry")
	}

	vm.Register("echo", func(task *Task) {
		m, err := task.AcceptOne("probe")
		if err != nil {
			return
		}
		_ = task.SendSender("reply", m.Args...)
	})
	done := make(chan struct{})
	vm.Register("prober", func(task *Task) {
		defer close(done)
		to := MustID(task.Arg(0))
		if err := task.Send(to, "probe", Str("ping")); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		if _, err := task.AcceptOne("reply"); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	echoID, err := vm.Initiate("echo", OnCluster(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Initiate("prober", OnCluster(1), ID(echoID)); err != nil {
		t.Fatal(err)
	}
	<-done
	vm.WaitIdle()
	vm.Shutdown()

	s := reg.Snapshot()
	counters := make(map[string]int64)
	for _, c := range s.Counters {
		counters[c.Name] = c.Value
	}
	if counters["core.heap.charge"] == 0 {
		t.Errorf("core.heap.charge = 0, want > 0")
	}
	if counters["core.heap.recover"] != counters["core.heap.charge"] {
		t.Errorf("heap recover %d != charge %d after clean shutdown",
			counters["core.heap.recover"], counters["core.heap.charge"])
	}
	hists := make(map[string]obs.HistSnap)
	for _, h := range s.Hists {
		hists[h.Name] = h
	}
	for _, name := range []string{"core.heap.msg.bytes", "codec.encode.ns", "codec.decode.ns", "core.accept.wait.ns"} {
		if hists[name].Count == 0 {
			t.Errorf("%s: no observations", name)
		}
	}

	spans, dropped := reg.Spans()
	if dropped != 0 || len(spans) == 0 {
		t.Fatalf("spans = %d dropped = %d", len(spans), dropped)
	}
	sawRouter := false
	for _, sp := range spans {
		if strings.HasPrefix(sp.Lane, "router/") && strings.HasPrefix(sp.Name, "deliver ") {
			sawRouter = true
		}
	}
	if !sawRouter {
		t.Errorf("no router-lane deliver spans captured; lanes: %v", laneSet(spans))
	}
	var buf bytes.Buffer
	if err := reg.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("Chrome trace is not valid JSON:\n%s", buf.String())
	}
}

func laneSet(spans []obs.Span) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range spans {
		if !seen[s.Lane] {
			seen[s.Lane] = true
			out = append(out, s.Lane)
		}
	}
	return out
}

// TestVMMetricsDisabledByDefault pins that a VM booted without a registry
// creates a private disabled one and leaves it empty, with no histogram made.
func TestVMMetricsDisabledByDefault(t *testing.T) {
	vm := newTestVM(t, config.Simple(2, 2), Options{})
	if vm.Obs() == nil {
		t.Fatal("Obs() is nil")
	}
	if vm.Obs().Has(obs.Metrics) || vm.Obs().Has(obs.Spans) {
		t.Fatal("default registry has families enabled")
	}
	done := make(chan struct{})
	vm.Register("noop", func(task *Task) { close(done) })
	if _, err := vm.Initiate("noop", Any()); err != nil {
		t.Fatal(err)
	}
	<-done
	vm.WaitIdle()
	s := vm.Obs().Snapshot()
	for _, c := range s.Counters {
		if c.Value != 0 {
			t.Errorf("disabled counter %s = %d", c.Name, c.Value)
		}
	}
	for _, h := range s.Hists {
		t.Errorf("histogram %s made with metrics off", h.Name)
	}
}

// TestHistogramsMadeWhenMetricsTurnOn: metrics turned on while three
// cross-cluster ping-pongs run make the VM's histograms on first use, from
// whichever tasks observe first, and every later observation lands in them.
func TestHistogramsMadeWhenMetricsTurnOn(t *testing.T) {
	reg := obs.New()
	vm := newTestVM(t, config.Simple(2, 4), Options{Metrics: reg})
	var rounds atomic.Int64
	stop := make(chan struct{})
	vm.Register("echo", func(task *Task) {
		for {
			m, err := task.AcceptOne("probe", "stop")
			if err != nil || m.Type == "stop" {
				return
			}
			_ = task.SendSender("reply")
		}
	})
	var probers sync.WaitGroup
	vm.Register("prober", func(task *Task) {
		defer probers.Done()
		to := MustID(task.Arg(0))
		defer task.Send(to, "stop")
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := task.Send(to, "probe"); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			if _, err := task.AcceptOne("reply"); err != nil {
				t.Errorf("reply: %v", err)
				return
			}
			rounds.Add(1)
		}
	})
	const pairs = 3
	probers.Add(pairs)
	for i := 0; i < pairs; i++ {
		echo, err := vm.Initiate("echo", OnCluster(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Initiate("prober", OnCluster(1), ID(echo)); err != nil {
			t.Fatal(err)
		}
	}
	waitRounds := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); rounds.Load() < n; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d ping-pong rounds after 10s, want %d", rounds.Load(), n)
			}
		}
	}
	waitRounds(30)
	if n := len(reg.Snapshot().Hists); n != 0 {
		t.Errorf("%d histograms made with metrics off", n)
	}
	reg.Enable(obs.Metrics)
	waitRounds(rounds.Load() + 60)
	close(stop)
	probers.Wait()
	vm.WaitIdle()

	hists := make(map[string]int64)
	for _, h := range reg.Snapshot().Hists {
		hists[h.Name] = h.Count
	}
	for _, name := range []string{"core.heap.msg.bytes", "codec.encode.ns", "codec.decode.ns", "core.accept.wait.ns"} {
		if hists[name] == 0 {
			t.Errorf("%s: no observations after metrics turned on (histograms: %v)", name, hists)
		}
	}
}
