package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// defaultSpanLimit bounds the span buffer; past it new spans are counted as
// dropped rather than growing without bound.
const defaultSpanLimit = 1 << 20

// Span is one completed timed region.  Start is relative to the registry's
// span epoch (the clock reading when the clock was bound), so spans from a
// simulated run are pure virtual-time offsets.
type Span struct {
	Lane  string // trace lane ("pfi/c1 1.2.7", "router/c2<-wire", "node/0 tx peer1")
	Name  string // what happened ("stmt SEND", "deliver RESULT", ...)
	Start time.Duration
	Dur   time.Duration
	// Edge and Phase are the causal flow event bound to the span (Phase 0:
	// none): the message identified by Edge touched Lane at Start.
	Edge  uint64
	Phase byte
}

// Flow phases, mirroring the Chrome trace-event flow phases: a flow starts
// inside one span, optionally steps through intermediate spans, and ends
// inside the final one.  The viewer draws an arrow between consecutive
// events sharing an id, which is how a routed message's causal path renders
// across lanes (and, in a merged mesh trace, across node process tracks).
const (
	FlowStart byte = 's'
	FlowStep  byte = 't'
	FlowEnd   byte = 'f'
)

type spanBuf struct {
	mu       sync.Mutex
	epoch    time.Time
	epochSet bool
	spans    []Span
	dropped  int64
	limit    int
}

func (b *spanBuf) setEpoch(t time.Time) {
	b.mu.Lock()
	if !b.epochSet {
		b.epoch = t
		b.epochSet = true
	}
	b.mu.Unlock()
}

// add captures s as the region from start to end.  Emit is its one caller.
func (b *spanBuf) add(s Span, start, end time.Time) {
	b.mu.Lock()
	if !b.epochSet {
		b.epoch = start
		b.epochSet = true
	}
	if len(b.spans) >= b.limit {
		b.dropped++
		b.mu.Unlock()
		return
	}
	s.Start, s.Dur = start.Sub(b.epoch), end.Sub(start)
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// Spans returns a copy of the captured spans in capture order, plus the
// number dropped after the buffer filled.
func (r *Registry) Spans() (spans []Span, dropped int64) {
	if r == nil {
		return nil, 0
	}
	r.spans.mu.Lock()
	spans = append([]Span(nil), r.spans.spans...)
	dropped = r.spans.dropped
	r.spans.mu.Unlock()
	return spans, dropped
}

// ProcessTrace is one process's worth of trace data for a merged export:
// the coordinator of a mesh run collects the followers' spans and writes
// them all as one trace, each node on its own process track.
type ProcessTrace struct {
	Pid     int    // trace process id (node id + 1 in mesh exports)
	Name    string // process_name metadata ("" = no metadata row)
	Spans   []Span
	Dropped int64
}

// Trace captures this registry's spans as a single-process trace.
func (r *Registry) Trace(pid int, name string) ProcessTrace {
	spans, dropped := r.Spans()
	return ProcessTrace{Pid: pid, Name: name, Spans: spans, Dropped: dropped}
}

// WriteChromeTrace emits the captured spans as Chrome trace-event-format
// JSON (the "traceEvents" array form) loadable in chrome://tracing and
// Perfetto.  Each distinct lane becomes one thread row (tid), named via a
// thread_name metadata event; spans are complete events (ph "X") with
// microsecond timestamps.  Lanes are ordered by name and events by capture
// order, so output for a deterministic run is byte-stable.
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTraceMulti(w, []ProcessTrace{r.Trace(1, "")})
}

// WriteChromeTraceMulti emits several processes' spans as one Chrome
// trace-event JSON document.  Each ProcessTrace renders under its own pid
// (with a process_name metadata row when Name is set); lanes become thread
// rows per process, sorted by name.  After a process's spans come the flow
// events (ph "s"/"t"/"f", keyed by the causal edge id) of those with a Phase;
// each binds to the span enclosing its timestamp on its lane, so a routed
// message draws as a connected arrow — across process tracks when its
// endpoints live on different nodes.  Output is byte-stable for
// deterministic runs: processes render in the given order, lanes sorted,
// events in capture order.
func WriteChromeTraceMulti(w io.Writer, procs []ProcessTrace) error {
	var sb strings.Builder
	sb.WriteString("{\"traceEvents\":[")
	first := true
	item := func(s string) {
		if !first {
			sb.WriteString(",\n")
		}
		first = false
		sb.WriteString(s)
	}
	var dropped int64
	for _, p := range procs {
		lanes := make(map[string]int)
		var laneNames []string
		for _, s := range p.Spans {
			if _, ok := lanes[s.Lane]; !ok {
				lanes[s.Lane] = 0
				laneNames = append(laneNames, s.Lane)
			}
		}
		sort.Strings(laneNames)
		for i, name := range laneNames {
			lanes[name] = i + 1
		}
		if p.Name != "" {
			item(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`,
				p.Pid, quoteJSON(p.Name)))
			item(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_sort_index","args":{"sort_index":%d}}`,
				p.Pid, p.Pid))
		}
		for _, name := range laneNames {
			item(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
				p.Pid, lanes[name], quoteJSON(name)))
			item(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`,
				p.Pid, lanes[name], lanes[name]))
		}
		for _, s := range p.Spans {
			item(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"name":%s,"cat":"pisces","ts":%s,"dur":%s}`,
				p.Pid, lanes[s.Lane], quoteJSON(s.Name), micros(s.Start), micros(s.Dur)))
		}
		for _, s := range p.Spans {
			if s.Phase == 0 {
				continue
			}
			bp := ""
			if s.Phase != FlowStart {
				// Bind steps and ends to the enclosing slice, so the arrow
				// lands on the deliver span rather than the next slice.
				bp = `,"bp":"e"`
			}
			item(fmt.Sprintf(`{"ph":"%c","pid":%d,"tid":%d,"name":"msg","cat":"flow","id":"%#x","ts":%s%s}`,
				s.Phase, p.Pid, lanes[s.Lane], s.Edge, micros(s.Start), bp))
		}
		dropped += p.Dropped
	}
	sb.WriteString("],\"displayTimeUnit\":\"ns\"")
	if dropped > 0 {
		fmt.Fprintf(&sb, ",\"otherData\":{\"droppedSpans\":%d}", dropped)
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// micros renders a duration as a decimal microsecond count with nanosecond
// precision, without float formatting jitter.
func micros(d time.Duration) string {
	ns := d.Nanoseconds()
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	if ns%1000 == 0 {
		return fmt.Sprintf("%s%d", neg, ns/1000)
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

// quoteJSON renders s as a JSON string literal.  Lane and span names are
// ASCII identifiers in practice; anything exotic is escaped numerically.
func quoteJSON(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\':
			sb.WriteByte('\\')
			sb.WriteRune(r)
		case r < 0x20 || r > 0x7e:
			fmt.Fprintf(&sb, `\u%04x`, r)
		default:
			sb.WriteRune(r)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}
