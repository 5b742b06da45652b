package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one interval of the traced run, recorded around the harness's own
// calls into the layers (spans inside the runtime are a later change).
type span struct {
	name       string
	start, end time.Time
	parent     int // index into spanLog.spans, -1 for the root
}

// spanLog keeps a run's spans in memory until the run ends.
type spanLog struct {
	mu       sync.Mutex
	workload string
	spans    []span
}

// begin opens a span under parent and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, start: time.Now(), parent: parent})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	l.mu.Lock()
	l.spans[id].end = time.Now()
	l.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace-event JSON (open in Perfetto
// or chrome://tracing).  Depth in the span tree is the thread id, so nested
// spans stack as rows.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	events := make([]event, 0, len(l.spans))
	for i, s := range l.spans {
		depth := 0
		for p := s.parent; p >= 0; p = l.spans[p].parent {
			depth++
		}
		events = append(events, event{
			Name: s.name, Ph: "X", PID: 1, TID: depth,
			TS:   float64(s.start.Sub(l.spans[0].start)) / float64(time.Microsecond),
			Dur:  float64(s.end.Sub(s.start)) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.parent, "workload": l.workload},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
