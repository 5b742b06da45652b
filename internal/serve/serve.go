// Package serve is the multi-tenant serving core: it turns the
// one-process-one-program runtime into a long-running daemon that owns many
// isolated program sessions at once.  Each session is one tenant's program
// run — compiled through a cache shared across tenants, executed on its own
// core.VM with its own heap shards, resource quota (core.Limits) and metric
// registry — so a tenant that exhausts its budget, crashes, or floods its
// terminal fails alone while its neighbours run on.
//
// The lifecycle is submit -> queue -> compile (shared cache) -> boot VM ->
// run -> reap.  Each admitted session is one backend process, at most
// MaxActive at once, then a bounded queue: when the queue is full, Submit
// refuses immediately (ErrQueueFull) instead of letting latency grow without
// bound.  Drain stops admission, lets queued and running sessions finish,
// and bounds the wait — the daemon's SIGTERM path.  Sessions, their VMs and
// every time the manager records run on one backend.Backend, so under a
// sim.Scheduler N tenants sharing a daemon replay byte for byte.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/obs"
	"repro/internal/pfi"
)

// Admission errors.
var (
	// ErrQueueFull is returned by Submit when the bounded run queue is at
	// capacity; the caller should retry later (HTTP 429).
	ErrQueueFull = errors.New("serve: run queue full")
	// ErrDraining is returned by Submit once Drain has begun (HTTP 503).
	ErrDraining = errors.New("serve: draining, not accepting submissions")
	// ErrNoSource is returned by Submit for an empty program.
	ErrNoSource = errors.New("serve: empty program source")
	// ErrInvalidLimit is returned for a submission carrying a limit no
	// tenant may ask for: core reads any value <= 0 as "unlimited", so a
	// negative field would override the daemon's default quota instead of
	// inheriting it the way 0 does.
	ErrInvalidLimit = errors.New("serve: invalid limit")
)

// State is a session's position in its lifecycle.
type State string

const (
	StateQueued    State = "queued"    // admitted, waiting for a running session to finish
	StateCompiling State = "compiling" // compiling (or fetching from cache)
	StateRunning   State = "running"   // VM booted, program executing
	StateDone      State = "done"      // completed without error
	StateFailed    State = "failed"    // compile error, run error, or quota violation
)

// retainedSessions bounds the finished-session history a long-running daemon
// keeps for status/output queries; the oldest finished sessions are reaped
// once the table grows past it.
const retainedSessions = 512

// maxOutputBytes bounds each session's retained output buffer when the
// session's own OutputBytes limit is unlimited.
const maxOutputBytes int64 = 1 << 20

// Config tunes a Manager.
type Config struct {
	// Clusters and Slots shape each session's VM (config.Simple); zero
	// selects 2 clusters of 8 slots, the conformance-harness shape.
	Clusters, Slots int
	// ForceCluster/ForcePEs give one cluster secondary PEs so force
	// constructs have members to split across (0 = no forces).
	ForceCluster int
	ForcePEs     []int
	// MaxActive bounds the sessions running concurrently, each one backend
	// process.  Zero selects 4.
	MaxActive int
	// QueueDepth bounds the admission queue. Zero selects 64.
	QueueDepth int
	// DefaultLimits fills any limit a submission leaves zero.  The zero
	// value imposes no defaults (unlimited tenants).
	DefaultLimits core.Limits
	// CacheBytes bounds the compile cache the manager builds and every
	// tenant shares (0 = pfi.DefaultCacheBytes).
	CacheBytes int64
	// TenantMetrics enables a per-session obs.Registry on each VM, exposed
	// through Snapshot under a tenant.<id>. prefix.  Costs the usual
	// instrumentation overhead per session, so it is opt-in.
	TenantMetrics bool
	// AcceptTimeout is each VM's default ACCEPT timeout (zero = core's 5s).
	AcceptTimeout time.Duration
	// History receives one JSON line per finished session — the daemon's
	// session journal (tenant, verdict, quota outcome, timings, cache
	// outcome).  Nil disables the journal.  Writes are serialised.
	History io.Writer
	// Log receives structured JSON log lines for session lifecycle events
	// (submitted, finished, panic, limit).  Nil disables.
	Log io.Writer
}

// Request is one tenant's program submission.
type Request struct {
	// Tenant identifies the submitting tenant (metrics attribution and
	// reporting only; isolation comes from the per-session VM).  Empty is
	// the anonymous tenant.
	Tenant string
	// Source is the Pisces Fortran program text.
	Source string
	// Main optionally names the entry tasktype (default: MAIN or first).
	Main string
	// Limits is the session's resource policy; zero fields inherit the
	// manager's DefaultLimits.
	Limits core.Limits
}

// Session is one admitted program run.  All accessors are safe to call from
// any goroutine at any point in the lifecycle.
type Session struct {
	id     string
	tenant string
	src    string
	main   string
	limits core.Limits

	mu        sync.Mutex
	state     State
	err       error
	cacheHit  bool
	submitted time.Time
	started   time.Time // left the queue
	finished  time.Time

	out  *boundedBuf
	reg  *obs.Registry // per-tenant registry; nil unless TenantMetrics
	rec  *obs.Recorder // per-session flight recorder; always on
	snap *obs.Snapshot // final registry snapshot, set at reap
	done chan struct{}
}

// ID returns the session id ("p1", "p2", ... in admission order).
func (s *Session) ID() string { return s.id }

// Tenant returns the submitting tenant's name.
func (s *Session) Tenant() string { return s.tenant }

// State returns the session's lifecycle state and, in StateFailed, the
// error that failed it (a *core.LimitError for quota violations).
func (s *Session) State() (State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.err
}

// Done is closed when the session reaches StateDone or StateFailed.
func (s *Session) Done() <-chan struct{} { return s.done }

// Output returns the program's user-terminal output so far.
func (s *Session) Output() []byte { return s.out.bytes() }

// Events returns the session's flight-recorder events so far (oldest first).
// The recorder is always on, so a failed session's last sends, accepts, kills
// and limit violations are inspectable after the fact.
func (s *Session) Events() []msgcodec.BlackboxEvent { return s.rec.Events() }

// CacheHit reports whether the program compiled from the shared cache.
func (s *Session) CacheHit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cacheHit
}

// Times returns the submit, start (left queue) and finish instants; zero
// values for stages not reached yet.
func (s *Session) Times() (submitted, started, finished time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitted, s.started, s.finished
}

func (s *Session) setState(st State) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
}

// Manager owns the session table and admission queue of one serving daemon.
type Manager struct {
	cfg   Config
	b     backend.Backend // runs every session and tells every time
	cache *pfi.UnitCache  // the compile cache every tenant shares
	reg   *obs.Registry   // the manager's own series; per-tenant ones are in Snapshot

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string // admission order, for deterministic listing and reaping
	seq      int64
	queued   []*Session   // admitted while MaxActive sessions run, oldest first
	running  int          // session processes alive
	draining bool         // Drain has begun: Submit refuses
	drained  backend.Gate // opened once draining with no session process alive

	logMu sync.Mutex // serialises History and Log line writes

	mSubmitted *obs.Counter
	mRejected  *obs.Counter
	mCompleted *obs.Counter
	mFailed    *obs.Counter
	mQuota     *obs.Counter
	mActive    *obs.Gauge
	mQueued    *obs.Gauge
	mQueueNS   *obs.Histogram
	mRunNS     *obs.Histogram
	mE2ENS     *obs.Histogram
}

// New builds a Manager whose sessions run on the real backend.
func New(cfg Config) *Manager { return newManager(cfg, backend.Default()) }

func newManager(cfg Config, b backend.Backend) *Manager {
	if cfg.Clusters <= 0 {
		cfg.Clusters = 2
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 8
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	m := &Manager{
		cfg:      cfg,
		b:        b,
		cache:    pfi.NewUnitCache(cfg.CacheBytes),
		reg:      obs.New(),
		sessions: make(map[string]*Session),
		drained:  b.NewGate(),
	}
	m.reg.SetClock(b.Now)
	m.reg.Enable(obs.Metrics)
	m.mSubmitted = m.reg.Counter("serve.sessions.submitted")
	m.mRejected = m.reg.Counter("serve.sessions.rejected")
	m.mCompleted = m.reg.Counter("serve.sessions.completed")
	m.mFailed = m.reg.Counter("serve.sessions.failed")
	m.mQuota = m.reg.Counter("serve.sessions.quota")
	m.mActive = m.reg.Gauge("serve.sessions.active")
	m.mQueued = m.reg.Gauge("serve.queue.depth")
	m.mQueueNS = m.reg.Histogram("serve.queue.wait.ns", "ns")
	m.mRunNS = m.reg.Histogram("serve.run.ns", "ns")
	m.mE2ENS = m.reg.Histogram("serve.e2e.ns", "ns")
	return m
}

// Cache returns the compile cache shared by this manager's tenants.
func (m *Manager) Cache() *pfi.UnitCache { return m.cache }

// mergeLimits fills zero fields of l from the manager defaults and refuses
// negative ones.
func (m *Manager) mergeLimits(l core.Limits) (core.Limits, error) {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"heap bytes", l.HeapBytes}, {"max tasks", l.MaxTasks},
		{"wall clock", int64(l.WallClock)}, {"output bytes", l.OutputBytes},
	} {
		if f.v < 0 {
			return l, fmt.Errorf("%w: %s %d is negative (0 inherits the daemon default)", ErrInvalidLimit, f.name, f.v)
		}
	}
	d := m.cfg.DefaultLimits
	if l.HeapBytes == 0 {
		l.HeapBytes = d.HeapBytes
	}
	if l.MaxTasks == 0 {
		l.MaxTasks = d.MaxTasks
	}
	if l.WallClock == 0 {
		l.WallClock = d.WallClock
	}
	if l.OutputBytes == 0 {
		l.OutputBytes = d.OutputBytes
	}
	return l, nil
}

// Submit admits one program submission: on success the session's process is
// spawned, or the session queued behind MaxActive running ones, and its id
// allocated.  Fails fast with ErrQueueFull or ErrDraining; a malformed
// request (ErrNoSource, ErrInvalidLimit) admits nothing.
func (m *Manager) Submit(req Request) (*Session, error) {
	if req.Source == "" {
		return nil, ErrNoSource
	}
	limits, err := m.mergeLimits(req.Limits)
	if err != nil {
		return nil, err
	}
	outCap := maxOutputBytes
	if limits.OutputBytes > 0 && limits.OutputBytes+1024 < outCap {
		// The VM drops output past the quota; the +1KiB slack keeps the
		// system termination notice visible in the retained buffer.
		outCap = limits.OutputBytes + 1024
	}
	s := &Session{
		tenant:    req.Tenant,
		src:       req.Source,
		main:      req.Main,
		limits:    limits,
		state:     StateQueued,
		submitted: m.b.Now(),
		out:       &boundedBuf{max: outCap},
		rec:       obs.NewRecorder(0, 0, 0),
		done:      make(chan struct{}),
	}
	if m.cfg.TenantMetrics {
		s.reg = obs.New()
		s.reg.Enable(obs.Metrics)
	}

	// Admission is decided under m.mu, the lock Drain and a finishing
	// session's process take: a session admitted before Drain runs before it
	// returns, and one after it is refused.  A refused submission never
	// touches the table.  The log's lock is held from before the decision
	// until the submitted line is written, so no line of the session's own
	// process can come first; the order is logMu, then m.mu, and no line is
	// written under m.mu.
	m.logMu.Lock()
	defer m.logMu.Unlock()
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.mRejected.Inc()
		return nil, ErrDraining
	}
	m.seq++
	s.id = fmt.Sprintf("p%d", m.seq)
	switch {
	case m.running < m.cfg.MaxActive:
		m.running++
		m.b.Spawn("session "+s.id, func() { m.serveFrom(s) })
	case len(m.queued) < m.cfg.QueueDepth:
		m.queued = append(m.queued, s)
	default:
		m.mu.Unlock()
		m.mRejected.Inc()
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, m.cfg.QueueDepth)
	}
	m.sessions[s.id] = s
	m.order = append(m.order, s.id)
	m.reapLocked()
	m.mQueued.Set(int64(len(m.queued)))
	m.mu.Unlock()
	m.mSubmitted.Inc()
	m.logLocked("submitted", map[string]any{"id": s.id, "tenant": s.tenant})
	return s, nil
}

// serveFrom is one session process: it runs s, then each session queued
// behind it, and ends when the queue is empty.
func (m *Manager) serveFrom(s *Session) {
	for s != nil {
		m.runSession(s)
		m.mu.Lock()
		s = nil
		if len(m.queued) > 0 {
			s = m.queued[0]
			m.queued[0] = nil
			m.queued = m.queued[1:]
		} else {
			m.running--
			if m.draining && m.running == 0 {
				m.drained.Open()
			}
		}
		m.mQueued.Set(int64(len(m.queued)))
		m.mu.Unlock()
	}
}

// Session looks a session up by id.
func (m *Manager) Session(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// Sessions returns every retained session in admission order.
func (m *Manager) Sessions() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.order))
	for _, id := range m.order {
		if s, ok := m.sessions[id]; ok {
			out = append(out, s)
		}
	}
	return out
}

// reapLocked drops the oldest finished sessions beyond the retention bound.
// Queued and running sessions are never reaped.  Caller holds m.mu.
func (m *Manager) reapLocked() {
	excess := len(m.order) - retainedSessions
	for i := 0; excess > 0 && i < len(m.order); {
		s := m.sessions[m.order[i]]
		if s != nil {
			if st, _ := s.State(); st != StateDone && st != StateFailed {
				i++
				continue
			}
			delete(m.sessions, m.order[i])
		}
		m.order = append(m.order[:i], m.order[i+1:]...)
		excess--
	}
}

// Drain stops admission, lets queued and running sessions finish, and waits
// up to timeout (on the backend's clock) for the last session process to
// end.  It is idempotent; later calls just wait again.  A timeout leaves the
// stragglers running and returns an error (the daemon exits anyway; the OS
// reaps).
func (m *Manager) Drain(timeout time.Duration) error {
	m.mu.Lock()
	m.draining = true
	if m.running == 0 {
		m.drained.Open()
	}
	m.mu.Unlock()
	expired := m.b.NewGate()
	defer m.b.AfterFunc(timeout, expired.Open).Stop()
	m.drained.WaitOr(expired)
	if !m.drained.IsOpen() {
		return fmt.Errorf("serve: drain timed out after %v with sessions still running", timeout)
	}
	return nil
}

// runSession executes one session end to end: compile via the shared cache,
// boot an isolated VM under the session's limits, run, and reap.
func (m *Manager) runSession(s *Session) {
	m.mActive.Add(1)
	defer m.mActive.Add(-1)

	start := m.b.Now()
	s.mu.Lock()
	s.started = start
	s.state = StateCompiling
	s.mu.Unlock()
	m.mQueueNS.ObserveDuration(start.Sub(s.submitted))

	prog, hit, err := m.cache.CompileTrace(s.src)
	// Read once, by this session's process only: a retained session must not pin up to
	// maxSubmitBytes of program text the compile cache's bound never sees.
	s.src = ""
	if err != nil {
		m.finish(s, fmt.Errorf("compile: %w", err))
		return
	}
	s.mu.Lock()
	s.cacheHit = hit
	s.mu.Unlock()
	if s.reg != nil {
		if hit {
			s.reg.Counter("compile.cache.hit").Inc()
		} else {
			s.reg.Counter("compile.cache.miss").Inc()
		}
	}

	cfg := config.Simple(m.cfg.Clusters, m.cfg.Slots)
	if m.cfg.ForceCluster > 0 && len(m.cfg.ForcePEs) > 0 {
		cfg = cfg.WithForces(m.cfg.ForceCluster, m.cfg.ForcePEs...)
	}
	vm, err := core.NewVM(cfg, core.Options{
		UserOutput:     s.out,
		AcceptTimeout:  m.cfg.AcceptTimeout,
		Limits:         s.limits,
		Backend:        m.b,
		Metrics:        s.reg,
		FlightRecorder: s.rec,
		FailureSink: func(reason string) {
			m.logJSON("failure", map[string]any{"id": s.id, "tenant": s.tenant, "reason": reason})
		},
	})
	if err != nil {
		m.finish(s, fmt.Errorf("boot: %w", err))
		return
	}
	s.setState(StateRunning)
	// A panicking session must not take its process (and with it the
	// daemon) down: recover, fail the session alone, and leave its flight recorder
	// holding the events leading up to the panic.
	runErr := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: session panicked: %v", r)
				m.logJSON("panic", map[string]any{"id": s.id, "tenant": s.tenant, "panic": fmt.Sprint(r)})
			}
		}()
		return prog.Run(vm, pfi.Options{Main: s.main})
	}()
	violation := vm.LimitViolation()
	vm.Shutdown()
	if s.reg != nil {
		snap := s.reg.Snapshot()
		s.mu.Lock()
		s.snap = snap
		s.mu.Unlock()
	}
	switch {
	case violation != nil:
		// Quota beats the run error: a killed tenant's tasks report killed /
		// terminated errors that are the violation's cascade, not the cause.
		m.mQuota.Inc()
		m.finish(s, violation)
	case runErr != nil:
		m.finish(s, runErr)
	default:
		m.finish(s, nil)
	}
}

// finish moves the session to its terminal state and publishes timings.
func (m *Manager) finish(s *Session, err error) {
	now := m.b.Now()
	s.mu.Lock()
	s.finished = now
	s.err = err
	if err != nil {
		s.state = StateFailed
	} else {
		s.state = StateDone
	}
	started := s.started
	submitted := s.submitted
	s.mu.Unlock()
	if err != nil {
		m.mFailed.Inc()
	} else {
		m.mCompleted.Inc()
	}
	m.mRunNS.ObserveDuration(now.Sub(started))
	m.mE2ENS.ObserveDuration(now.Sub(submitted))
	m.journal(s, err, submitted, started, now)
	close(s.done)
}

// historyRecord is one line of the daemon's session journal (-history-file):
// everything an operator needs to reconstruct a tenant's run after the
// session itself has been reaped.
type historyRecord struct {
	Time     string `json:"time"`
	ID       string `json:"id"`
	Tenant   string `json:"tenant,omitempty"`
	Verdict  State  `json:"verdict"`
	Error    string `json:"error,omitempty"`
	Quota    string `json:"quota,omitempty"` // which limit, when the verdict is a quota kill
	CacheHit bool   `json:"cache_hit"`
	QueueMS  int64  `json:"queue_ms"`
	RunMS    int64  `json:"run_ms"`
}

// journal appends the session's history line and mirrors it to the
// structured log.
func (m *Manager) journal(s *Session, err error, submitted, started, finished time.Time) {
	rec := historyRecord{
		Time:     finished.UTC().Format(time.RFC3339Nano),
		ID:       s.id,
		Tenant:   s.tenant,
		Verdict:  StateDone,
		CacheHit: s.CacheHit(),
	}
	if err != nil {
		rec.Verdict = StateFailed
		rec.Error = err.Error()
		var le *core.LimitError
		if errors.As(err, &le) {
			rec.Quota = le.Resource
		}
	}
	if !started.IsZero() {
		rec.QueueMS = started.Sub(submitted).Milliseconds()
		rec.RunMS = finished.Sub(started).Milliseconds()
	}
	if m.cfg.History != nil {
		if line, jerr := json.Marshal(rec); jerr == nil {
			m.logMu.Lock()
			_, _ = m.cfg.History.Write(append(line, '\n'))
			m.logMu.Unlock()
		}
	}
	m.logJSON("finished", map[string]any{
		"id": s.id, "tenant": s.tenant, "verdict": rec.Verdict,
		"error": rec.Error, "quota": rec.Quota,
		"queue_ms": rec.QueueMS, "run_ms": rec.RunMS, "cache_hit": rec.CacheHit,
	})
}

// logJSON writes one structured log line ({"time":..., "event":..., fields})
// to the configured Log writer.  Keys marshal sorted, so lines are stable.
func (m *Manager) logJSON(event string, fields map[string]any) {
	m.logMu.Lock()
	defer m.logMu.Unlock()
	m.logLocked(event, fields)
}

// logLocked is logJSON for a caller that holds m.logMu.
func (m *Manager) logLocked(event string, fields map[string]any) {
	if m.cfg.Log == nil {
		return
	}
	fields["time"] = m.b.Now().UTC().Format(time.RFC3339Nano)
	fields["event"] = event
	line, err := json.Marshal(fields)
	if err != nil {
		return
	}
	_, _ = m.cfg.Log.Write(append(line, '\n'))
}

// Snapshot assembles the daemon-wide metrics view: the manager's own series,
// the shared compile cache's counters, and — when TenantMetrics is on — each
// retained session's registry under a tenant.<id>. prefix.
func (m *Manager) Snapshot() *obs.Snapshot {
	cs := m.cache.Stats()
	snap := m.reg.Snapshot()
	snap.Merge(&obs.Snapshot{
		Counters: []obs.CounterSnap{
			{Name: "serve.cache.hits", Value: cs.Hits},
			{Name: "serve.cache.misses", Value: cs.Misses},
			{Name: "serve.cache.evictions", Value: cs.Evictions},
		},
		Gauges: []obs.GaugeSnap{
			{Name: "serve.cache.entries", Value: int64(cs.Entries)},
			{Name: "serve.cache.weight.bytes", Value: cs.Weight},
		},
	})
	for _, s := range m.Sessions() {
		s.mu.Lock()
		tsnap := s.snap
		reg := s.reg
		s.mu.Unlock()
		if tsnap == nil && reg != nil {
			tsnap = reg.Snapshot() // still running: live view
		}
		if tsnap != nil {
			snap.Merge(clone(tsnap).Prefix("tenant." + s.id + "."))
		}
	}
	return snap
}

// clone deep-copies a snapshot so Prefix cannot mutate a retained one.
func clone(s *obs.Snapshot) *obs.Snapshot {
	out := &obs.Snapshot{}
	out.Merge(s)
	return out
}

// boundedBuf is a goroutine-safe output buffer with a retention cap: writes
// past the cap are dropped, keeping a hostile tenant's terminal from growing
// the daemon's memory without bound.
type boundedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
	max int64
}

func (b *boundedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if room := b.max - int64(b.buf.Len()); room < int64(len(p)) {
		if room > 0 {
			b.buf.Write(p[:room])
		}
		return len(p), nil
	}
	return b.buf.Write(p)
}

func (b *boundedBuf) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

func (b *boundedBuf) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

var _ io.Writer = (*boundedBuf)(nil)
