package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/msgcodec"
)

// SubmitRequest is the POST /programs JSON body.
type SubmitRequest struct {
	Tenant string     `json:"tenant,omitempty"`
	Source string     `json:"source"`
	Main   string     `json:"main,omitempty"`
	Limits LimitsSpec `json:"limits,omitempty"`
}

// LimitsSpec is the wire form of core.Limits (wall clock in milliseconds).
type LimitsSpec struct {
	HeapBytes   int64 `json:"heap_bytes,omitempty"`
	MaxTasks    int64 `json:"max_tasks,omitempty"`
	WallClockMS int64 `json:"wall_clock_ms,omitempty"`
	OutputBytes int64 `json:"output_bytes,omitempty"`
}

// limits converts the wire form.  A wall clock whose nanosecond count does
// not fit a time.Duration is refused here — the multiplication would wrap it
// into an arbitrary (possibly negative, hence unlimited) value; the sign of
// every field is Manager.Submit's to judge.
func (l LimitsSpec) limits() (core.Limits, error) {
	const maxMS = math.MaxInt64 / int64(time.Millisecond)
	if l.WallClockMS > maxMS || l.WallClockMS < -maxMS {
		return core.Limits{}, fmt.Errorf("%w: wall_clock_ms %d overflows", ErrInvalidLimit, l.WallClockMS)
	}
	return core.Limits{
		HeapBytes:   l.HeapBytes,
		MaxTasks:    l.MaxTasks,
		WallClock:   time.Duration(l.WallClockMS) * time.Millisecond,
		OutputBytes: l.OutputBytes,
	}, nil
}

// StatusResponse is the GET /programs/{id}/status (and POST /programs) body.
type StatusResponse struct {
	ID          string `json:"id"`
	Tenant      string `json:"tenant,omitempty"`
	State       State  `json:"state"`
	Error       string `json:"error,omitempty"`
	Quota       string `json:"quota_violation,omitempty"` // which limit, when State=failed on quota
	CacheHit    bool   `json:"cache_hit"`
	OutputBytes int    `json:"output_bytes"`
	QueueMS     int64  `json:"queue_ms"`
	RunMS       int64  `json:"run_ms"`
}

func statusOf(s *Session) StatusResponse {
	st, err := s.State()
	resp := StatusResponse{
		ID:          s.ID(),
		Tenant:      s.Tenant(),
		State:       st,
		CacheHit:    s.CacheHit(),
		OutputBytes: s.out.len(),
	}
	if err != nil {
		resp.Error = err.Error()
		var le *core.LimitError
		if errors.As(err, &le) {
			resp.Quota = le.Resource
		}
	}
	submitted, started, finished := s.Times()
	if !started.IsZero() {
		resp.QueueMS = started.Sub(submitted).Milliseconds()
		if !finished.IsZero() {
			resp.RunMS = finished.Sub(started).Milliseconds()
		}
	}
	return resp
}

// Handler returns the daemon's HTTP API:
//
//	POST /programs               submit a program; 202 + status JSON
//	GET  /programs               list retained sessions (admission order)
//	GET  /programs/{id}/status   one session's status JSON
//	GET  /programs/{id}/output   the program's terminal output (text/plain);
//	                             ?wait=1 blocks until the session finishes
//	GET  /programs/{id}/events   the session's flight-recorder events (JSON)
//
// Admission failures map to 429 (queue full) and 503 (draining), a body over
// maxSubmitBytes to 413; unknown ids to 404.  The daemon mounts this on the same mux as the obs debug
// endpoints, so one listener serves /programs, /metrics and /debug/pprof.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /programs", m.handleSubmit)
	mux.HandleFunc("GET /programs", m.handleList)
	mux.HandleFunc("GET /programs/{id}/status", m.handleStatus)
	mux.HandleFunc("GET /programs/{id}/output", m.handleOutput)
	mux.HandleFunc("GET /programs/{id}/events", m.handleEvents)
	return mux
}

// maxSubmitBytes bounds a POST /programs body.  1 MiB is more than 700 times
// the largest program checked into this repository; without a bound one
// request can make the daemon buffer whatever a client cares to stream.
const maxSubmitBytes = 1 << 20

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxSubmitBytes), http.StatusRequestEntityTooLarge)
		return
	case err != nil:
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	var s *Session
	limits, err := req.Limits.limits()
	if err == nil {
		s, err = m.Submit(Request{Tenant: req.Tenant, Source: req.Source, Main: req.Main, Limits: limits})
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusAccepted, statusOf(s))
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	sessions := m.Sessions()
	out := make([]StatusResponse, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, statusOf(s))
	}
	writeJSON(w, http.StatusOK, out)
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	s, ok := m.Session(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, statusOf(s))
}

func (m *Manager) handleOutput(w http.ResponseWriter, r *http.Request) {
	s, ok := m.Session(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-s.Done():
		case <-r.Context().Done():
			return
		case <-time.After(60 * time.Second):
			http.Error(w, "timed out waiting for completion", http.StatusGatewayTimeout)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(s.Output())
}

// EventResponse is one flight-recorder event in GET /programs/{id}/events.
// The edge id renders in hex so it can be grepped against trace files and
// blackbox listings.
type EventResponse struct {
	Seq  uint64 `json:"seq"`
	TSNS int64  `json:"ts_ns"`
	Kind string `json:"kind"`
	Edge string `json:"edge,omitempty"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
}

func (m *Manager) handleEvents(w http.ResponseWriter, r *http.Request) {
	s, ok := m.Session(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	events := s.Events()
	out := make([]EventResponse, 0, len(events))
	for _, ev := range events {
		e := EventResponse{
			Seq:  ev.Seq,
			TSNS: ev.TS,
			Kind: msgcodec.EventKindName(ev.Kind),
			A:    ev.A,
			B:    ev.B,
		}
		if ev.Edge != 0 {
			e.Edge = fmt.Sprintf("%#x", ev.Edge)
		}
		out = append(out, e)
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
