package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindStringsRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("round trip %v -> %v", k, got)
		}
	}
	if _, err := ParseKind("NOT-AN-EVENT"); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if len(Kinds()) != 8 {
		t.Fatalf("the paper lists 8 traceable event types, Kinds() has %d", len(Kinds()))
	}
}

func TestRecorderKindFilter(t *testing.T) {
	sink := &MemorySink{}
	r := NewRecorder(sink)
	ev := Event{Kind: MsgSend, Task: "1.2.3", PE: 4, Ticks: 100}

	r.Record(ev) // everything disabled by default
	if sink.Len() != 0 {
		t.Fatal("event recorded while kind disabled")
	}

	r.EnableKind(MsgSend, true)
	r.Record(ev)
	if sink.Len() != 1 {
		t.Fatal("event not recorded while kind enabled")
	}
	if !r.Wants(MsgSend) || r.Wants(Lock) {
		t.Fatal("Wants mismatch")
	}

	r.EnableKind(MsgSend, false)
	r.Record(ev)
	if sink.Len() != 1 {
		t.Fatal("event recorded after kind re-disabled")
	}

	// Out-of-range kinds are ignored safely.
	r.EnableKind(Kind(-1), true)
	r.EnableKind(Kind(100), true)
	if r.Wants(Kind(-1)) || r.Wants(Kind(100)) {
		t.Fatal("out-of-range kind reported enabled")
	}
}

func TestRecorderTaskFilter(t *testing.T) {
	sink := &MemorySink{}
	r := NewRecorder(sink)
	r.EnableAll(true)

	r.EnableTask("1.1.1", false)
	r.Record(Event{Kind: Lock, Task: "1.1.1"})
	r.Record(Event{Kind: Lock, Task: "1.2.1"})
	if sink.Len() != 1 {
		t.Fatalf("len = %d, want 1 (disabled task filtered)", sink.Len())
	}
	if got := r.Settings(); !strings.Contains(got, "disabled tasks: 1.1.1\n") {
		t.Fatalf("settings do not list the disabled task:\n%s", got)
	}
	r.EnableTask("1.1.1", true)
	r.Record(Event{Kind: Lock, Task: "1.1.1"})
	if sink.Len() != 2 {
		t.Fatal("re-enabled task still filtered")
	}
	if got := r.Settings(); strings.Contains(got, "disabled tasks") {
		t.Fatalf("settings still list a disabled task:\n%s", got)
	}
}

func TestRecorderSequenceNumbers(t *testing.T) {
	sink, second := &MemorySink{}, &MemorySink{}
	r := NewRecorder(sink, second)
	r.EnableAll(true)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: TaskInit, Task: "x"})
	}
	evs := sink.Events()
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if len(evs) != 5 || second.Len() != 5 {
		t.Fatalf("sinks hold %d and %d events, want 5 each", len(evs), second.Len())
	}
}

func TestWriterSinkAndSettings(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(WriterSink{W: &buf})
	r.EnableKind(ForceSplit, true)
	r.Record(Event{Kind: ForceSplit, Task: "2.3.7", PE: 9, Ticks: 4242, Info: "members=5"})
	line := strings.TrimSpace(buf.String())
	for _, want := range []string{"FORCE-SPLIT", "task=2.3.7", "pe=9", "ticks=4242", "members=5"} {
		if !strings.Contains(line, want) {
			t.Errorf("trace line %q missing %q", line, want)
		}
	}
	settings := r.Settings()
	if !strings.Contains(settings, "FORCE-SPLIT ON") {
		t.Errorf("settings missing enabled kind:\n%s", settings)
	}
	if !strings.Contains(settings, "TASK-INIT   off") {
		t.Errorf("settings missing disabled kind:\n%s", settings)
	}
}

func TestLineParseRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: TaskInit, Task: "1.1.1", PE: 3, Ticks: 10, Info: "type=worker"},
		{Kind: MsgSend, Task: "1.1.1", Other: "2.1.4", PE: 3, Ticks: 25, Info: "msgtype=result args=3"},
		{Kind: BarrierEnter, Task: "4.2.9", PE: 17, Ticks: 99999},
	}
	var buf bytes.Buffer
	for _, e := range events {
		buf.WriteString(e.Line() + "\n")
	}
	buf.WriteString("this is not a trace line\n\n")
	parsed, err := ParseLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(parsed), len(events))
	}
	for i, e := range events {
		p := parsed[i]
		if p.Kind != e.Kind || p.Task != e.Task || p.Other != e.Other || p.PE != e.PE || p.Ticks != e.Ticks {
			t.Errorf("event %d mismatch: got %+v want %+v", i, p, e)
		}
		if e.Info != "" && p.Info != e.Info {
			t.Errorf("event %d info %q, want %q", i, p.Info, e.Info)
		}
	}
}

func TestAnalyze(t *testing.T) {
	events := []Event{
		{Kind: TaskInit, Task: "1.1.1", PE: 3, Ticks: 10},
		{Kind: MsgSend, Task: "1.1.1", Other: "1.2.2", PE: 3, Ticks: 20},
		{Kind: MsgAccept, Task: "1.2.2", PE: 3, Ticks: 30},
		{Kind: BarrierEnter, Task: "1.1.1", PE: 3, Ticks: 40},
		{Kind: ForceSplit, Task: "1.1.1", PE: 3, Ticks: 45},
		{Kind: TaskTerm, Task: "1.1.1", PE: 3, Ticks: 110},
	}
	a := Analyze(events)
	if a.MessagesSent != 1 || a.MessagesAccepted != 1 {
		t.Errorf("message counts: %+v", a)
	}
	if a.BarrierEntries != 1 || a.ForceSplits != 1 {
		t.Errorf("force counts: %+v", a)
	}
	if a.TaskSpan["1.1.1"] != 100 {
		t.Errorf("task span = %d, want 100", a.TaskSpan["1.1.1"])
	}
	if a.FirstTick[3] != 10 || a.LastTick[3] != 110 {
		t.Errorf("tick bounds = %d..%d", a.FirstTick[3], a.LastTick[3])
	}
	rep := a.Report()
	for _, want := range []string{"TASK-INIT", "messages: sent=1 accepted=1", "lifetime=100"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// Property: an event that passes the filters always appears in the sink with
// the same kind/task/pe/ticks it was recorded with, and Line/Parse round-trips
// arbitrary PE and tick values.
func TestQuickLineRoundTrip(t *testing.T) {
	f := func(kindRaw uint8, pe uint8, ticks uint32) bool {
		k := Kind(int(kindRaw) % int(numKinds))
		e := Event{Kind: k, Task: "7.3.42", PE: int(pe), Ticks: int64(ticks)}
		parsed, ok, err := parseLine(e.Line())
		if err != nil || !ok {
			return false
		}
		return parsed.Kind == e.Kind && parsed.Task == e.Task && parsed.PE == e.PE && parsed.Ticks == e.Ticks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecordEnabled(b *testing.B) {
	r := NewRecorder(&MemorySink{})
	r.EnableAll(true)
	e := Event{Kind: MsgSend, Task: "1.1.1", PE: 3, Ticks: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(e)
	}
}

func BenchmarkRecordFiltered(b *testing.B) {
	r := NewRecorder(&MemorySink{})
	e := Event{Kind: MsgSend, Task: "1.1.1", PE: 3, Ticks: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(e)
	}
}
