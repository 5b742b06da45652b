// Package trace implements the execution-tracing facility of PISCES 2
// (paper, Section 12).  The user may choose from a fixed list of significant
// event types — task initiation and termination, message send and accept,
// lock and unlock, barrier entry, and force split — and for each enabled
// event a trace line is displayed or written to a file containing the type of
// event, the taskid of the relevant task (or tasks), a clock reading (PE
// number and "ticks" count), and other relevant information.  Tracing may be
// turned on and off per event type and per task; trace files can be studied
// off-line for timing analyses.
//
// This package is the facility's vocabulary — the event types, the trace
// line and its parser, the two sinks, the off-line analysis.  The switches
// and the sink list belong to obs.Registry, which renders a line for each
// enabled event it is told about.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Kind identifies one of the traceable event types listed in Section 12.
type Kind int

// The eight traceable event kinds of Section 12.
const (
	TaskInit Kind = iota
	TaskTerm
	MsgSend
	MsgAccept
	Lock
	Unlock
	BarrierEnter
	ForceSplit
	numKinds
)

// Kinds returns all traceable event kinds in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// String returns the event-type label used on trace lines.
func (k Kind) String() string {
	switch k {
	case TaskInit:
		return "TASK-INIT"
	case TaskTerm:
		return "TASK-TERM"
	case MsgSend:
		return "MSG-SEND"
	case MsgAccept:
		return "MSG-ACCEPT"
	case Lock:
		return "LOCK"
	case Unlock:
		return "UNLOCK"
	case BarrierEnter:
		return "BARRIER"
	case ForceSplit:
		return "FORCE-SPLIT"
	}
	return fmt.Sprintf("EVENT(%d)", int(k))
}

// ParseKind converts a label produced by Kind.String back to a Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// Event is one trace record.
type Event struct {
	Kind  Kind
	Task  string // taskid of the relevant task, already formatted
	Other string // taskid of a second involved task (message peer), may be empty
	PE    int    // processor number of the clock reading
	Ticks int64  // tick count of the clock reading
	Info  string // other relevant information for the event type
}

// Line renders the event in the trace-line layout of Section 12:
// event type, taskid(s), clock reading (PE and ticks), other information.
func (e Event) Line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s task=%-12s", e.Kind, e.Task)
	if e.Other != "" {
		fmt.Fprintf(&b, " peer=%-12s", e.Other)
	}
	fmt.Fprintf(&b, " %-6s %-15s", fmt.Sprintf("pe=%d", e.PE), fmt.Sprintf("ticks=%d", e.Ticks))
	if e.Info != "" {
		fmt.Fprintf(&b, " %s", e.Info)
	}
	return b.String()
}

// Sink receives enabled trace events.  obs.Registry, which owns the switches
// and the sink list, calls Emit for one event at a time under its trace lock,
// so implementations need not be safe for concurrent use.
type Sink interface {
	Emit(Event)
}

// WriterSink writes one trace line per event to an io.Writer (the "display on
// screen" and "send to a file" options of Section 12).
type WriterSink struct{ W io.Writer }

// Emit writes the event's trace line.
func (s WriterSink) Emit(e Event) { fmt.Fprintln(s.W, e.Line()) }

// MemorySink retains events in memory for off-line analysis and for tests.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (s *MemorySink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of the recorded events in emission order.  A sink
// hears one event at a time and every sink hears them in the same order, so
// emission order is the run's total event order; under a deterministic
// scheduling backend the whole slice is reproducible from the seed, which is
// what the conformance harness diffs between runs.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Lines returns the rendered trace lines in emission order, a convenient
// golden-comparison form for conformance tests.
func (s *MemorySink) Lines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.events))
	for i, e := range s.events {
		out[i] = e.Line()
	}
	return out
}
