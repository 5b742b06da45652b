package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/sim"
)

const helloSrc = `TASKTYPE MAIN
      PRINT *, 'HELLO SERVE'
END TASKTYPE
`

// slowSrc parks its session in an ACCEPT nobody satisfies for 1.5 seconds,
// virtual ones under a sim.Scheduler.
const slowSrc = `TASKTYPE MAIN
      SIGNAL NEVER
      ACCEPT 1 OF
        NEVER
      DELAY 1.5 THEN
        PRINT *, 'SLOW DONE'
      END ACCEPT
END TASKTYPE
`

// waitSession blocks until the session finishes, with a test-sized bound.
func waitSession(t *testing.T, s *Session) {
	t.Helper()
	select {
	case <-s.Done():
	case <-time.After(60 * time.Second):
		st, err := s.State()
		t.Fatalf("session %s stuck in state %q (err=%v)", s.ID(), st, err)
	}
}

// submit admits req or fails the test.
func submit(t *testing.T, m *Manager, req Request) *Session {
	t.Helper()
	s, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// drainAll drains m, which under a sim.Scheduler is what runs its sessions.
// The virtual bound outlasts timeout.pf's hour-long DELAY at no cost.
func drainAll(t *testing.T, m *Manager) {
	t.Helper()
	bound := 60 * time.Second
	if m.b.Deterministic() {
		bound = 48 * time.Hour
	}
	if err := m.Drain(bound); err != nil {
		t.Fatal(err)
	}
}

func TestSessionLifecycle(t *testing.T) {
	m := New(Config{MaxActive: 2})
	defer drainAll(t, m)

	s1 := submit(t, m, Request{Tenant: "alice", Source: helloSrc})
	if s1.ID() != "p1" || s1.Tenant() != "alice" {
		t.Fatalf("session = %s/%s; want p1/alice", s1.ID(), s1.Tenant())
	}
	waitSession(t, s1)
	st, serr := s1.State()
	if st != StateDone || serr != nil {
		t.Fatalf("state = %q err = %v; want done/nil", st, serr)
	}
	if got := string(s1.Output()); !strings.Contains(got, "HELLO SERVE") {
		t.Fatalf("output = %q; want HELLO SERVE", got)
	}
	submitted, started, finished := s1.Times()
	if submitted.IsZero() || started.IsZero() || finished.IsZero() {
		t.Fatal("lifecycle timestamps missing")
	}
	if s1.CacheHit() {
		t.Fatal("first submission reported a cache hit")
	}

	// The identical program resubmitted by another tenant shares the
	// compiled unit through the cache.
	s2 := submit(t, m, Request{Tenant: "bob", Source: helloSrc})
	waitSession(t, s2)
	if !s2.CacheHit() {
		t.Fatal("second submission missed the shared compile cache")
	}
	if !bytes.Equal(s1.Output(), s2.Output()) {
		t.Fatalf("outputs differ across tenants:\n%q\n%q", s1.Output(), s2.Output())
	}

	if got, ok := m.Session("p1"); !ok || got != s1 {
		t.Fatal("Session(p1) lookup failed")
	}
	if all := m.Sessions(); len(all) != 2 || all[0] != s1 || all[1] != s2 {
		t.Fatalf("Sessions() = %d entries; want [p1 p2]", len(all))
	}
}

func TestSubmitValidation(t *testing.T) {
	m := New(Config{MaxActive: 1, DefaultLimits: core.Limits{MaxTasks: 3}})
	defer drainAll(t, m)
	if _, err := m.Submit(Request{}); !errors.Is(err, ErrNoSource) {
		t.Fatalf("empty submit error = %v; want ErrNoSource", err)
	}
	// core reads any limit <= 0 as unlimited, so a negative field would
	// override the daemon default that 0 inherits: each is refused, typed,
	// and leaves nothing in the session table.
	_, corpus := corpusPrograms(backend.Default())
	for name, l := range map[string]core.Limits{
		"heap":   {HeapBytes: -1},
		"tasks":  {MaxTasks: -1},
		"wall":   {WallClock: -time.Millisecond},
		"output": {OutputBytes: -1},
	} {
		if _, err := m.Submit(Request{Source: corpus["fanin.pf"], Limits: l}); !errors.Is(err, ErrInvalidLimit) {
			t.Errorf("negative %s limit: err = %v; want ErrInvalidLimit", name, err)
		}
	}
	if n := len(m.Sessions()); n != 0 {
		t.Fatalf("%d sessions admitted by refused submissions", n)
	}
	// The escape the check closes: fanin initiates six workers, so under the
	// default of 3 tasks it must fail on quota however the field is spelled.
	s := submit(t, m, Request{Source: corpus["fanin.pf"]})
	waitSession(t, s)
	if st, serr := s.State(); st != StateFailed || !strings.Contains(fmt.Sprint(serr), "tasks") {
		t.Fatalf("fanin under DefaultLimits{MaxTasks: 3}: state = %q err = %v; want failed on the tasks quota", st, serr)
	}
}

func TestCompileErrorFailsSession(t *testing.T) {
	m := New(Config{MaxActive: 1})
	defer drainAll(t, m)
	s := submit(t, m, Request{Source: "THIS IS NOT PISCES FORTRAN"})
	waitSession(t, s)
	st, serr := s.State()
	if st != StateFailed || serr == nil {
		t.Fatalf("state = %q err = %v; want failed with error", st, serr)
	}
	if !strings.Contains(serr.Error(), "compile") {
		t.Fatalf("error = %v; want a compile error", serr)
	}
}

// TestHostileArrayDeclarationFailsSession: the three array declarations that
// used to take the process down — 144 GB asked of the Go run-time, a length
// makeslice refuses, an extent product that wraps to zero — each fail their
// own session with the interpreter's positioned diagnostic, and a second
// tenant submitting beside them is served as if they were not there.
func TestHostileArrayDeclarationFailsSession(t *testing.T) {
	m := New(Config{MaxActive: 2})
	defer drainAll(t, m)
	for _, dims := range []string{"2000000000", "9000000000000000000", "4294967296, 4294967296"} {
		src := "TASKTYPE MAIN\n      REAL A(" + dims + ")\n      A(1) = 1.0\n      PRINT *, 'SURVIVED'\nEND TASKTYPE\n"
		hostile := submit(t, m, Request{Tenant: "mallory", Source: src})
		good := submit(t, m, Request{Tenant: "alice", Source: helloSrc})
		waitSession(t, hostile)
		st, serr := hostile.State()
		if st != StateFailed || serr == nil || !strings.Contains(serr.Error(), "pfi: line 2: array A has more than") {
			t.Errorf("REAL A(%s): state = %q err = %v; want failed with the element-cap diagnostic", dims, st, serr)
		}
		if out := string(hostile.Output()); strings.Contains(out, "SURVIVED") {
			t.Errorf("REAL A(%s) ran past its declaration:\n%s", dims, out)
		}
		waitSession(t, good)
		if st, serr := good.State(); st != StateDone || !strings.Contains(string(good.Output()), "HELLO SERVE") {
			t.Errorf("beside REAL A(%s): state = %q err = %v output = %q; want done", dims, st, serr, good.Output())
		}
	}
}

// TestQueueFullRejects: with one session running a slow program and a
// depth-1 queue occupied, the next submission is refused immediately and
// leaves no trace in the session table.  The queued session starts the
// virtual instant the running one finishes.
func TestQueueFullRejects(t *testing.T) {
	m := newManager(Config{MaxActive: 1, QueueDepth: 1}, sim.New(1))
	running := submit(t, m, Request{Source: slowSrc})
	queued := submit(t, m, Request{Source: slowSrc})
	if _, err := m.Submit(Request{Source: helloSrc}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into a full queue = %v; want ErrQueueFull", err)
	}
	if len(m.Sessions()) != 2 {
		t.Fatalf("rejected submission left %d sessions; want 2", len(m.Sessions()))
	}
	if m.mRejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}
	drainAll(t, m)
	_, _, ranUntil := running.Times()
	if _, started, _ := queued.Times(); !started.Equal(ranUntil) || string(queued.Output()) != "SLOW DONE\n" {
		t.Fatalf("queued session started at %v, the running one finished at %v; output %q", started, ranUntil, queued.Output())
	}
}

// TestConcurrentRejectionsKeepTheTable: many submissions race for one running
// slot and a one-deep queue, so most are refused while others are admitted
// between them.  A refusal must leave the table as it was: every admitted
// session is listed once and found by id, and no refused id is anywhere.
func TestConcurrentRejectionsKeepTheTable(t *testing.T) {
	const n = 64
	m := New(Config{MaxActive: 1, QueueDepth: 1})
	admitted := make(chan *Session, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := m.Submit(Request{Source: helloSrc})
			switch {
			case err == nil:
				admitted <- s
			case !errors.Is(err, ErrQueueFull):
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	close(admitted)
	drainAll(t, m)

	want := make(map[string]bool)
	for s := range admitted {
		want[s.ID()] = true
		if got, ok := m.Session(s.ID()); !ok || got != s {
			t.Errorf("admitted session %s not found by id", s.ID())
		}
	}
	if len(want) == 0 {
		t.Fatal("no submission was admitted")
	}
	listed := make(map[string]bool)
	for _, s := range m.Sessions() {
		if !want[s.ID()] || listed[s.ID()] {
			t.Errorf("Sessions lists %s, which was refused or is listed twice", s.ID())
		}
		listed[s.ID()] = true
	}
	if len(listed) != len(want) {
		t.Errorf("Sessions lists %d sessions, %d were admitted", len(listed), len(want))
	}
	for i := 1; i <= n; i++ {
		if id := fmt.Sprintf("p%d", i); !want[id] {
			if _, ok := m.Session(id); ok {
				t.Errorf("refused id %s is in the session table", id)
			}
		}
	}
}

// TestDrain: queued sessions finish, new submissions are refused, and the
// last session process ends within the bound.
func TestDrain(t *testing.T) {
	m := New(Config{MaxActive: 1, QueueDepth: 8})
	var sessions []*Session
	for i := 0; i < 3; i++ {
		sessions = append(sessions, submit(t, m, Request{Source: helloSrc}))
	}
	if err := m.Drain(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		st, serr := s.State()
		if st != StateDone {
			t.Fatalf("session %s drained into state %q (err=%v); want done", s.ID(), st, serr)
		}
	}
	if _, err := m.Submit(Request{Source: helloSrc}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit = %v; want ErrDraining", err)
	}
	// Idempotent: a second drain returns promptly.
	if err := m.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitRacingDrainRunsOrRefuses: four submissions and a Drain start at
// once on a fresh daemon.  Each submission is refused or admitted, and once
// Drain returns nil every admitted session has finished.  Admission and
// Drain must decide under one lock: a submission that passed a draining
// check made outside it can be admitted after the last session process
// ended, and a 202 then never runs.
func TestSubmitRacingDrainRunsOrRefuses(t *testing.T) {
	const rounds, submitters = 2000, 4
	for round := 0; round < rounds; round++ {
		m := New(Config{MaxActive: 1})
		start := make(chan struct{})
		admitted := make([]*Session, submitters)
		var drainErr error
		var wg sync.WaitGroup
		wg.Add(submitters + 1)
		for i := range admitted {
			go func() {
				defer wg.Done()
				<-start
				s, err := m.Submit(Request{Source: helloSrc})
				if err != nil && !errors.Is(err, ErrDraining) {
					t.Error(err)
				}
				admitted[i] = s
			}()
		}
		go func() {
			defer wg.Done()
			<-start
			drainErr = m.Drain(10 * time.Second)
		}()
		close(start)
		wg.Wait()
		if drainErr != nil {
			t.Fatal(drainErr)
		}
		for _, s := range admitted {
			if s == nil {
				continue
			}
			if st, err := s.State(); st != StateDone {
				t.Fatalf("round %d: session %s admitted beside Drain is %q (err %v) after Drain returned", round, s.ID(), st, err)
			}
		}
	}
}

// TestSubmittedLineComesFirst runs sessions on the real backend, where a
// session's process can finish before Submit returns: every session's
// submitted log line still precedes each other line of that session.
func TestSubmittedLineComesFirst(t *testing.T) {
	const rounds, sessions = 200, 8
	for round := 0; round < rounds; round++ {
		var log bytes.Buffer
		m := New(Config{MaxActive: 4, Log: &log})
		for i := 0; i < sessions; i++ {
			submit(t, m, Request{Source: helloSrc})
		}
		drainAll(t, m)
		first := make(map[string]string) // id -> its first line's event
		for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
			var rec struct{ ID, Event string }
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("round %d: log line %q: %v", round, line, err)
			}
			if _, seen := first[rec.ID]; !seen {
				first[rec.ID] = rec.Event
			}
		}
		if len(first) != sessions {
			t.Fatalf("round %d: log names %d sessions, want %d:\n%s", round, len(first), sessions, log.String())
		}
		for id, event := range first {
			if event != "submitted" {
				t.Fatalf("round %d: session %s logged %q before submitted:\n%s", round, id, event, log.String())
			}
		}
	}
}

func TestManagerSnapshotMetrics(t *testing.T) {
	m := New(Config{MaxActive: 1, TenantMetrics: true})
	defer drainAll(t, m)
	s := submit(t, m, Request{Tenant: "alice", Source: helloSrc})
	waitSession(t, s)

	snap := m.Snapshot()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["serve.sessions.submitted"] != 1 || counters["serve.sessions.completed"] != 1 {
		t.Fatalf("session counters wrong: %v", counters)
	}
	if counters["serve.cache.misses"] != 1 {
		t.Fatalf("cache misses = %d; want 1", counters["serve.cache.misses"])
	}
	var tenantSeries int
	for name := range counters {
		if strings.HasPrefix(name, "tenant."+s.ID()+".") {
			tenantSeries++
		}
	}
	if tenantSeries == 0 {
		t.Fatalf("no tenant.%s.* series in daemon snapshot", s.ID())
	}
	if counters["tenant."+s.ID()+".compile.cache.miss"] != 1 {
		t.Fatal("per-tenant compile.cache.miss not scoped into the snapshot")
	}
}

// --- HTTP API ---

// serveHTTP answers one request through h, with no socket in between.
func serveHTTP(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// getJSON decodes a 200 answer to GET path into v.
func getJSON(t *testing.T, h http.Handler, path string, v any) {
	t.Helper()
	rec := serveHTTP(h, http.MethodGet, path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatal(err)
	}
}

func postProgram(t *testing.T, h http.Handler, body SubmitRequest) (int, StatusResponse) {
	t.Helper()
	raw, _ := json.Marshal(body)
	rec := serveHTTP(h, http.MethodPost, "/programs", raw)
	var st StatusResponse
	if rec.Code == http.StatusAccepted {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, st
}

func TestHTTPSubmitStatusOutput(t *testing.T) {
	m := New(Config{MaxActive: 2})
	defer drainAll(t, m)
	h := m.Handler()

	code, st := postProgram(t, h, SubmitRequest{Tenant: "alice", Source: helloSrc})
	if code != http.StatusAccepted {
		t.Fatalf("POST /programs = %d; want 202", code)
	}
	if st.ID == "" || st.Tenant != "alice" {
		t.Fatalf("submit response = %+v", st)
	}

	// ?wait=1 blocks until completion, then serves the terminal output.
	out := serveHTTP(h, http.MethodGet, "/programs/"+st.ID+"/output?wait=1", nil)
	if !strings.Contains(out.Body.String(), "HELLO SERVE") {
		t.Fatalf("output body = %q; want HELLO SERVE", out.Body)
	}
	if ct := out.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("output content-type = %q", ct)
	}

	var got StatusResponse
	getJSON(t, h, "/programs/"+st.ID+"/status", &got)
	if got.State != StateDone || got.OutputBytes == 0 {
		t.Fatalf("status = %+v; want done with output", got)
	}

	var list []StatusResponse
	getJSON(t, h, "/programs", &list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v; want the one session", list)
	}

	if code := serveHTTP(h, http.MethodGet, "/programs/nope/status", nil).Code; code != http.StatusNotFound {
		t.Fatalf("unknown id = %d; want 404", code)
	}
}

func TestHTTPQuotaViolationSurfaces(t *testing.T) {
	m := newManager(Config{MaxActive: 1}, sim.New(1))
	h := m.Handler()

	// fanin initiates six workers; a MaxTasks of 3 fails it on quota.
	_, corpus := corpusPrograms(backend.Default())
	code, st := postProgram(t, h, SubmitRequest{
		Source: corpus["fanin.pf"],
		Limits: LimitsSpec{MaxTasks: 3},
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d; want 202", code)
	}
	drainAll(t, m)
	var got StatusResponse
	getJSON(t, h, "/programs/"+st.ID+"/status", &got)
	if got.State != StateFailed || got.Quota != "tasks" {
		t.Fatalf("status = %+v; want failed with quota_violation=tasks", got)
	}
	if !strings.Contains(got.Error, "tenant limit exceeded") {
		t.Fatalf("error = %q; want tenant limit exceeded", got.Error)
	}
}

// TestHTTPAdmissionStatusCodes: one session running and one queued, then
// every refusal's status code.  Admission is decided in Submit, so nothing
// has to run before the queue is full.
func TestHTTPAdmissionStatusCodes(t *testing.T) {
	m := newManager(Config{MaxActive: 1, QueueDepth: 1}, sim.New(1))
	h := m.Handler()
	for i, want := range []int{http.StatusAccepted, http.StatusAccepted, http.StatusTooManyRequests} {
		if code, _ := postProgram(t, h, SubmitRequest{Source: slowSrc}); code != want {
			t.Fatalf("POST %d = %d; want %d", i+1, code, want)
		}
	}
	if code, _ := postProgram(t, h, SubmitRequest{Source: ""}); code != http.StatusBadRequest {
		t.Fatalf("empty POST = %d; want 400", code)
	}
	if code, _ := postProgram(t, h, SubmitRequest{Source: "C" + strings.Repeat(" ", maxSubmitBytes)}); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST = %d; want 413", code)
	}
	// Negative limits — and a wall clock that would wrap time.Duration into
	// one — are malformed requests, answered before the queue is consulted.
	before := len(m.Sessions())
	for _, l := range []LimitsSpec{
		{HeapBytes: -1}, {MaxTasks: -1}, {OutputBytes: -1}, {WallClockMS: -1},
		{WallClockMS: math.MaxInt64/int64(time.Millisecond) + 1},
		{WallClockMS: math.MaxInt64}, {WallClockMS: math.MinInt64},
	} {
		if code, _ := postProgram(t, h, SubmitRequest{Source: helloSrc, Limits: l}); code != http.StatusBadRequest {
			t.Errorf("POST with limits %+v = %d; want 400", l, code)
		}
	}
	if n := len(m.Sessions()); n != before {
		t.Fatalf("refused limits admitted %d sessions", n-before)
	}

	drainAll(t, m)
	if code, _ := postProgram(t, h, SubmitRequest{Source: helloSrc}); code != http.StatusServiceUnavailable {
		t.Fatalf("draining POST = %d; want 503", code)
	}
}
