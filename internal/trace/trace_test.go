package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
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
	parsed, err := parseLines(&buf)
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

// parseLines reads trace lines in the format produced by Event.Line and
// reconstructs events, the inverse the round-trip tests check Line against.
// Lines that do not look like trace lines are skipped.
func parseLines(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e, ok, err := parseLine(line)
		if err != nil {
			return out, err
		}
		if ok {
			out = append(out, e)
		}
	}
	return out, sc.Err()
}

func parseLine(line string) (Event, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Event{}, false, nil
	}
	kind, err := ParseKind(fields[0])
	if err != nil {
		return Event{}, false, nil // not a trace line
	}
	e := Event{Kind: kind}
	var extra []string
	for _, f := range fields[1:] {
		switch {
		case strings.HasPrefix(f, "task="):
			e.Task = strings.TrimPrefix(f, "task=")
		case strings.HasPrefix(f, "peer="):
			e.Other = strings.TrimPrefix(f, "peer=")
		case strings.HasPrefix(f, "pe="):
			n, err := strconv.Atoi(strings.TrimPrefix(f, "pe="))
			if err != nil {
				return Event{}, false, fmt.Errorf("trace: bad pe field %q: %w", f, err)
			}
			e.PE = n
		case strings.HasPrefix(f, "ticks="):
			n, err := strconv.ParseInt(strings.TrimPrefix(f, "ticks="), 10, 64)
			if err != nil {
				return Event{}, false, fmt.Errorf("trace: bad ticks field %q: %w", f, err)
			}
			e.Ticks = n
		default:
			extra = append(extra, f)
		}
	}
	e.Info = strings.Join(extra, " ")
	return e, true, nil
}
