package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Analysis summarises a trace for off-line study ("Sending trace output to a
// file allows the user to study trace information and make timing analyses
// off-line", Section 12).
type Analysis struct {
	// CountByKind is the number of events of each kind.
	CountByKind map[Kind]int
	// CountByTask is the number of events per task.
	CountByTask map[string]int
	// FirstTick and LastTick bound the clock readings seen per PE.
	FirstTick map[int]int64
	LastTick  map[int]int64
	// TaskSpan maps each task to the tick interval between its TASK-INIT and
	// TASK-TERM events on the initiating PE's clock, when both are present.
	TaskSpan map[string]int64
	// MessagesSent and MessagesAccepted count message traffic.
	MessagesSent     int
	MessagesAccepted int
	// BarrierEntries and ForceSplits count force activity.
	BarrierEntries int
	ForceSplits    int
}

// Analyze computes an Analysis from a slice of events.
func Analyze(events []Event) Analysis {
	a := Analysis{
		CountByKind: make(map[Kind]int),
		CountByTask: make(map[string]int),
		FirstTick:   make(map[int]int64),
		LastTick:    make(map[int]int64),
		TaskSpan:    make(map[string]int64),
	}
	initTick := make(map[string]int64)
	for _, e := range events {
		a.CountByKind[e.Kind]++
		a.CountByTask[e.Task]++
		if first, ok := a.FirstTick[e.PE]; !ok || e.Ticks < first {
			a.FirstTick[e.PE] = e.Ticks
		}
		if last, ok := a.LastTick[e.PE]; !ok || e.Ticks > last {
			a.LastTick[e.PE] = e.Ticks
		}
		switch e.Kind {
		case TaskInit:
			initTick[e.Task] = e.Ticks
		case TaskTerm:
			if start, ok := initTick[e.Task]; ok {
				a.TaskSpan[e.Task] = e.Ticks - start
			}
		case MsgSend:
			a.MessagesSent++
		case MsgAccept:
			a.MessagesAccepted++
		case BarrierEnter:
			a.BarrierEntries++
		case ForceSplit:
			a.ForceSplits++
		}
	}
	return a
}

// Report renders the analysis as a fixed-width text report.
func (a Analysis) Report() string {
	var b strings.Builder
	b.WriteString("Trace analysis\n")
	b.WriteString("  events by kind:\n")
	for _, k := range Kinds() {
		if n := a.CountByKind[k]; n > 0 {
			fmt.Fprintf(&b, "    %-11s %6d\n", k, n)
		}
	}
	tasks := make([]string, 0, len(a.CountByTask))
	for t := range a.CountByTask {
		tasks = append(tasks, t)
	}
	sort.Strings(tasks)
	b.WriteString("  events by task:\n")
	for _, t := range tasks {
		fmt.Fprintf(&b, "    %-14s %6d", t, a.CountByTask[t])
		if span, ok := a.TaskSpan[t]; ok {
			fmt.Fprintf(&b, "   lifetime=%d ticks", span)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  messages: sent=%d accepted=%d\n", a.MessagesSent, a.MessagesAccepted)
	fmt.Fprintf(&b, "  barriers entered=%d force splits=%d\n", a.BarrierEntries, a.ForceSplits)
	return b.String()
}
