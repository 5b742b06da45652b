package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/pfi"
	"repro/internal/serve"
)

const (
	tenants = 2
	// serveSessions is one trial: every tenant submits half, one after the
	// other (a closed loop: a tenant waits for its output).
	serveSessions = 512
	// uniqueEvery makes every eighth submission of a tenant a source the
	// daemon has not seen, so 1 in 8 misses the compile cache by
	// construction.
	uniqueEvery = 8
	// sessionTimeout is what a failed session is charged as its latency.
	sessionTimeout = 30 * time.Second
	// templateK is the constant the checked-in templates carry; the harness
	// replaces its line (kLine) to make a source unique.
	templateK = 3
)

func kLine(k int) string { return fmt.Sprintf("      K = %d\n", k) }

// serveTemplate is one program of programs/serve/ with the Go formula of
// what it prints for a given K.  The formulas never run the interpreter; the
// hand-written .out files pin them at K = 3 (TestExpectedOutputs).
type serveTemplate struct {
	name    string
	src     string
	out     string // the hand-written expected output of the template as checked in
	formula func(k int) string
}

func sumTo(n int) int { return n * (n + 1) / 2 }

var serveFormulas = map[string]func(k int) string{
	// MAIN sums 1..100; the worker answers K*K.
	"small": func(k int) string { return fmt.Sprintf("SUM %d %d\n", sumTo(100), k*k) },
	// MAIN sums 1..300; worker W of 3 answers (K+W)**2.
	"medium": func(k int) string {
		s := 0
		for w := 1; w <= 3; w++ {
			s += (k + w) * (k + w)
		}
		return fmt.Sprintf("MED %d %d\n", sumTo(300), s)
	},
	// MAIN sums 1..1000; worker W of 4 answers 25*(K+W).
	"large": func(k int) string {
		s := 0
		for w := 1; w <= 4; w++ {
			s += 25 * (k + w)
		}
		return fmt.Sprintf("LRG %d %d\n", sumTo(1000), s)
	},
}

func (e *env) serveTemplates() ([]serveTemplate, error) {
	var out []serveTemplate
	for _, name := range []string{"small", "medium", "large"} {
		src, err := e.readProgram("serve/" + name + ".pf")
		if err != nil {
			return nil, err
		}
		want, err := e.readProgram("serve/" + name + ".out")
		if err != nil {
			return nil, err
		}
		if !strings.Contains(src, kLine(templateK)) {
			return nil, fmt.Errorf("programs/serve/%s.pf no longer contains the line %q", name, kLine(templateK))
		}
		out = append(out, serveTemplate{name: name, src: src, out: want, formula: serveFormulas[name]})
	}
	return out, nil
}

// submission is one generated program with its expected output.
type submission struct {
	src, want string
	unique    bool
}

// serveMix draws the seeded mix: per tenant a sequence of n submissions over
// the three templates, every uniqueEvery-th made unique by a constant no
// earlier submission of this run carried.
type serveMix struct {
	templates []serveTemplate
	rng       *rand.Rand
	nextK     int
}

func newServeMix(templates []serveTemplate, seed int64) *serveMix {
	rng := rand.New(rand.NewSource(seed))
	return &serveMix{templates: templates, rng: rng, nextK: 100 + rng.Intn(1000)}
}

func (mix *serveMix) draw(n int) [tenants][]submission {
	var out [tenants][]submission
	for t := range out {
		for i := 0; i < n/tenants; i++ {
			tmpl := mix.templates[mix.rng.Intn(len(mix.templates))]
			sub := submission{src: tmpl.src, want: tmpl.out}
			if i%uniqueEvery == uniqueEvery-1 {
				k := mix.nextK
				mix.nextK++
				sub = submission{
					src:    strings.Replace(tmpl.src, kLine(templateK), kLine(k), 1),
					want:   tmpl.formula(k),
					unique: true,
				}
			}
			out[t] = append(out[t], sub)
		}
	}
	return out
}

func (e *env) serveSessions() int {
	return max(int(serveSessions*e.scale)/(tenants*uniqueEvery), 1) * tenants * uniqueEvery
}

// daemon is a running pisces serve child.
type daemon struct {
	*daemonCmd
	base   string // http://127.0.0.1:port
	client *http.Client
}

// startDaemon starts pisces serve on a free port with every other flag at
// its default and waits for the address it prints.
func (e *env) startDaemon() (*daemon, error) {
	dc, err := e.procs.startDaemon(e.pisces, "serve", "-addr", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	select {
	case line := <-dc.firstLine:
		const marker = "serving on "
		i := strings.Index(line, marker)
		if i < 0 {
			_ = e.procs.stopDaemon(dc)
			return nil, fmt.Errorf("pisces serve printed %q, not its address\n%s", line, dc.stderr.String())
		}
		return &daemon{daemonCmd: dc, base: strings.TrimSpace(line[i+len(marker):]), client: &http.Client{
			Timeout:   sessionTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: tenants},
		}}, nil
	case <-time.After(20 * time.Second):
		_ = e.procs.stopDaemon(dc)
		return nil, fmt.Errorf("pisces serve did not print its address within 20s\n%s", dc.stderr.String())
	}
}

// session runs one submission against the daemon: POST /programs, GET the
// output (waiting for the session to end), GET the status; all three are
// verified.
func (d *daemon) session(tenant string, sub submission) error {
	body, err := json.Marshal(serve.SubmitRequest{Tenant: tenant, Source: sub.src})
	if err != nil {
		return err
	}
	var posted serve.StatusResponse
	if err := d.do(http.MethodPost, "/programs", body, http.StatusAccepted, func(b []byte) error {
		return json.Unmarshal(b, &posted)
	}); err != nil {
		return err
	}
	if err := d.do(http.MethodGet, "/programs/"+posted.ID+"/output?wait=1", nil, http.StatusOK, func(b []byte) error {
		if string(b) != sub.want {
			return fmt.Errorf("session %s printed %q, want %q", posted.ID, b, sub.want)
		}
		return nil
	}); err != nil {
		return err
	}
	return d.do(http.MethodGet, "/programs/"+posted.ID+"/status", nil, http.StatusOK, func(b []byte) error {
		var st serve.StatusResponse
		if err := json.Unmarshal(b, &st); err != nil {
			return err
		}
		if st.State != serve.StateDone {
			return fmt.Errorf("session %s ended %s: %s", posted.ID, st.State, st.Error)
		}
		return nil
	})
}

func (d *daemon) do(method, path string, body []byte, wantCode int, check func([]byte) error) error {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != wantCode {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return check(b)
}

// mixOutcome is one trial of the mix, against the daemon or the in-process
// manager.
type mixOutcome struct {
	wall     time.Duration
	allMS    []float64 // ascending session latencies, one per session attempted
	coldMS   []float64 // the unique-source sessions among them
	failures []error
}

// runMix has every tenant run its submissions one after the other.  A failed
// session is charged sessionTimeout and stays in the percentiles.
func runMix(mix [tenants][]submission, session func(tenant string, sub submission) error) mixOutcome {
	var mu sync.Mutex
	var out mixOutcome
	var wg sync.WaitGroup
	t0 := time.Now()
	for t := range mix {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant%d", t)
			all := make([]float64, 0, len(mix[t]))
			var cold []float64
			var failures []error
			for _, sub := range mix[t] {
				s0 := time.Now()
				err := session(tenant, sub)
				ms := float64(time.Since(s0)) / float64(time.Millisecond)
				if err != nil {
					failures = append(failures, err)
					ms = float64(sessionTimeout) / float64(time.Millisecond)
				}
				all = append(all, ms)
				if sub.unique {
					cold = append(cold, ms)
				}
			}
			mu.Lock()
			out.allMS = append(out.allMS, all...)
			out.coldMS = append(out.coldMS, cold...)
			out.failures = append(out.failures, failures...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.wall = time.Since(t0)
	sort.Float64s(out.allMS)
	sort.Float64s(out.coldMS)
	return out
}

// serveSetUp boots a daemon and runs a tenth of a trial through it, which
// also leaves the three templates in the compile cache.
func (e *env) serveSetUp(mix *serveMix) (*daemon, error) {
	d, err := e.startDaemon()
	if err != nil {
		return nil, err
	}
	warm := runMix(mix.draw(max(e.serveSessions()/10, tenants*uniqueEvery)), d.session)
	if len(warm.failures) > 0 {
		_, _, _ = e.stopDaemon(d)
		return nil, fmt.Errorf("warm-up: %w", warm.failures[0])
	}
	return d, nil
}

// stopDaemon drains the daemon with SIGTERM and returns its peak resident
// set in KB and the processor time it used; a daemon that does not exit 0 is
// an error.
func (e *env) stopDaemon(d *daemon) (rssKB int64, cpu time.Duration, err error) {
	d.client.CloseIdleConnections()
	rssKB = vmHWMKB(d.cmd.Process.Pid)
	if err := e.procs.stopDaemon(d.daemonCmd); err != nil {
		return 0, 0, err
	}
	st := d.cmd.ProcessState
	return rssKB, st.UserTime() + st.SystemTime(), nil
}

// serveTrialsPerDaemon is how many trials one daemon serves before the next
// daemon is started.
const serveTrialsPerDaemon = 2

// runServe measures serve_mix.
func runServe(e *env) (*result, error) {
	templates, err := e.serveTemplates()
	if err != nil {
		return nil, err
	}
	mix := newServeMix(templates, e.seed)
	r := e.newResult()
	s := series{}

	n := e.serveSessions()
	err = e.measure(s, serveTrialsPerDaemon, func() (instance, error) {
		d, err := e.serveSetUp(mix)
		if err != nil {
			return instance{}, err
		}
		// The daemon's processor time is exact only once it has exited, so
		// it is taken over the daemon's trials together: what it used in
		// total, less what /proc says it had used when set-up ended.
		setUpCPU, err := pidCPU(d.cmd.Process.Pid)
		if err != nil {
			_, _, _ = e.stopDaemon(d)
			return instance{}, err
		}
		sessions := 0
		return instance{
			trial: func() error {
				out := runMix(mix.draw(n), d.session)
				sessions += len(out.allMS)
				r.Attempted += int64(len(out.allMS))
				for _, f := range out.failures {
					r.fail(1, "%v", f)
				}
				s.add("ops_per_s", float64(len(out.allMS)-len(out.failures))/out.wall.Seconds())
				return nil
			},
			close: func() error {
				rssKB, cpu, err := e.stopDaemon(d)
				if err != nil {
					r.fail(int64(sessions), "%v", err)
					return nil
				}
				s.add("cpu_us_per_op", float64(cpu-setUpCPU)/float64(time.Microsecond)/float64(sessions))
				s.add("peak_rss_mb", float64(rssKB)/1024)
				return nil
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	s.intoEndToEnd(r)
	return r, nil
}

// serveConfig is the daemon's default configuration (cmd/pisces/daemon.go),
// for the in-process rungs.
func serveConfig() serve.Config {
	return serve.Config{
		Clusters: 2, Slots: 8, ForceCluster: 1, ForcePEs: []int{7, 8},
		MaxActive: 4, QueueDepth: 64, AcceptTimeout: 30 * time.Second,
	}
}

func serveVMConfig() *config.Configuration {
	c := serveConfig()
	return config.Simple(c.Clusters, c.Slots).WithForces(c.ForceCluster, c.ForcePEs...)
}

// traceServe is the traced run of serve_mix.
func traceServe(e *env) (*result, error) {
	templates, err := e.serveTemplates()
	if err != nil {
		return nil, err
	}
	mix := newServeMix(templates, e.seed)
	r := e.newResult()
	s := series{}
	const root = 0
	n := e.serveSessions()

	// The rung the workload measures: the real daemon over HTTP.
	sp := e.spans.begin("pisces serve over HTTP", root)
	d, err := e.serveSetUp(mix)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rungTrials; i++ {
		tsp := e.spans.begin("trial", sp)
		out := runMix(mix.draw(n), d.session)
		e.spans.end(tsp)
		if len(out.failures) > 0 {
			_, _, _ = e.stopDaemon(d)
			return nil, out.failures[0]
		}
		r.Attempted += int64(len(out.allMS))
		s.add("e2e.ns_per_op", quantile(out.allMS, 0.5)*1e6)
		s.add("e2e.session_p50_ms", quantile(out.allMS, 0.5))
		s.add("e2e.session_p95_ms", quantile(out.allMS, 0.95))
		s.add("e2e.cold_session_p50_ms", quantile(out.coldMS, 0.5))
	}
	if _, _, err := e.stopDaemon(d); err != nil {
		return nil, err
	}
	e.spans.end(sp)

	// The same mix through serve.Manager in the harness process: no HTTP.
	sp = e.spans.begin("serve.Manager in process", root)
	if err := e.managerRung(s, sp, mix, n); err != nil {
		return nil, err
	}
	e.spans.end(sp)

	// What a session boots and tears down, at the daemon's geometry.
	sp = e.spans.begin("session boot", root)
	if err := e.bootProbes(s); err != nil {
		return nil, err
	}
	e.spans.end(sp)

	var sources []string
	for _, t := range templates {
		sources = append(sources, t.src)
	}
	if err := e.compileProbes(s, root, sources); err != nil {
		return nil, err
	}
	if err := e.runProbe(s, root, templates); err != nil {
		return nil, err
	}
	s.add("bench.build_s", e.buildS)
	s.intoLayers(r)

	e2eUS := r.value("e2e.session_p50_ms") * 1e3
	r.set("serve.http.added_us", e2eUS-r.value("serve.submit_done.p50_us"))
	// A session pays HTTP, a recorder, a VM boot and shutdown, the arena of
	// a cluster it sends across, a compile (a cache hit 7 times in 8) and
	// the program's run; every row is in microseconds.
	const miss = 1.0 / uniqueEvery
	r.budget(e2eUS*1e3, map[string]float64{
		"serve.http.added_us":         1e3,
		"obs.newrecorder.us":          1e3,
		"core.newvm.us":               1e3,
		"core.shutdown.us":            1e3,
		"memory.arena.first_touch_us": 1e3,
		"pfi.compile.us_per_prog":     1e3 * miss,
		"pfi.cache_hit.us_per_prog":   1e3 * (1 - miss),
		"pfi.run.us_per_prog":         1e3,
	})
	return r, nil
}

// managerRung runs the mix through an in-process serve.Manager with the
// daemon's configuration and reads each session's own clock.
func (e *env) managerRung(s series, parent int, mix *serveMix, n int) error {
	m := serve.New(serveConfig())
	defer func() { _ = m.Drain(sessionTimeout) }()
	var mu sync.Mutex
	var queueUS, runUS []float64
	session := func(tenant string, sub submission) error {
		sess, err := m.Submit(serve.Request{Tenant: tenant, Source: sub.src})
		if err != nil {
			return err
		}
		select {
		case <-sess.Done():
		case <-time.After(sessionTimeout):
			return fmt.Errorf("session %s did not finish", sess.ID())
		}
		if st, err := sess.State(); st != serve.StateDone {
			return fmt.Errorf("session %s ended %s: %v", sess.ID(), st, err)
		}
		if got := string(sess.Output()); got != sub.want {
			return fmt.Errorf("session %s printed %q, want %q", sess.ID(), got, sub.want)
		}
		submitted, started, finished := sess.Times()
		mu.Lock()
		queueUS = append(queueUS, float64(started.Sub(submitted))/float64(time.Microsecond))
		runUS = append(runUS, float64(finished.Sub(started))/float64(time.Microsecond))
		mu.Unlock()
		return nil
	}
	if warm := runMix(mix.draw(max(n/10, tenants*uniqueEvery)), session); len(warm.failures) > 0 {
		return warm.failures[0]
	}
	for i := 0; i < rungTrials; i++ {
		queueUS, runUS = queueUS[:0], runUS[:0]
		subs := mix.draw(n)
		before := m.Cache().Stats()
		submitted0, rejected0 := managerAdmissions(m)
		var out mixOutcome
		tsp := e.spans.begin("trial", parent)
		bytes, objects := allocDelta(func() { out = runMix(subs, session) })
		e.spans.end(tsp)
		if len(out.failures) > 0 {
			return out.failures[0]
		}
		after := m.Cache().Stats()
		sort.Float64s(queueUS)
		sort.Float64s(runUS)
		s.add("serve.submit_done.p50_us", quantile(out.allMS, 0.5)*1e3)
		s.add("serve.session.p99_ms", quantile(out.allMS, 0.99))
		s.add("serve.queue_wait.p50_us", quantile(queueUS, 0.5))
		s.add("serve.run.p50_us", quantile(runUS, 0.5))
		s.add("serve.alloc_bytes_per_session", bytes/float64(len(out.allMS)))
		s.add("serve.allocs_per_session", objects/float64(len(out.allMS)))
		hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
		s.add("pfi.cache.hit_share", hits/(hits+misses))
		submitted, rejected := managerAdmissions(m)
		s.add("serve.rejected_share", (rejected-rejected0)/(submitted-submitted0+rejected-rejected0))
	}
	return nil
}

// managerAdmissions reads the manager's own admission counters.
func managerAdmissions(m *serve.Manager) (submitted, rejected float64) {
	for _, c := range m.Snapshot().Counters {
		switch c.Name {
		case "serve.sessions.submitted":
			submitted = float64(c.Value)
		case "serve.sessions.rejected":
			rejected = float64(c.Value)
		}
	}
	return submitted, rejected
}

// bootProbes prices what every session creates and destroys, one call at a
// time at the daemon's geometry.
func (e *env) bootProbes(s series) error {
	reps := max(int(200*e.scale), 3)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	cfg := serveVMConfig()
	var shardBytes int
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		vm, err := core.NewVM(cfg, core.Options{AcceptTimeout: 30 * time.Second, FlightRecorder: obs.NewRecorder(0, 0, 0)})
		if err != nil {
			return err
		}
		s.add("core.newvm.us", us(time.Since(t0)))
		vm.Register("noop", func(*core.Task) {})
		shardBytes = vm.Machine().Shared().HeapShard(0).Size()
		t0 = time.Now()
		_, err = vm.Run("noop", core.Any())
		s.add("core.initiate.us", us(time.Since(t0)))
		t0 = time.Now()
		vm.Shutdown()
		s.add("core.shutdown.us", us(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	for i := 0; i < reps; i++ {
		// Timed apart from the MemStats reads, which stop the world.
		t0 := time.Now()
		_ = obs.NewRecorder(0, 0, 0)
		s.add("obs.newrecorder.us", us(time.Since(t0)))
		bytes, _ := allocDelta(func() { _ = obs.NewRecorder(0, 0, 0) })
		s.add("obs.newrecorder.alloc_bytes", bytes)

		shard := memory.New(shardBytes)
		off, err := shard.Alloc(64)
		if err != nil {
			return err
		}
		t0 = time.Now()
		shard.Bytes(off, 64)[0] = 1
		s.add("memory.arena.first_touch_us", us(time.Since(t0)))
		s.add("memory.arena.first_touch_bytes", float64(shardBytes))
	}
	return nil
}

// runProbe prices Program.Run of each template on a warm VM.
func (e *env) runProbe(s series, parent int, templates []serveTemplate) error {
	reps := max(int(200*e.scale), 3)
	var out lockedBuffer
	vm, err := core.NewVM(serveVMConfig(), core.Options{
		UserOutput: &out, AcceptTimeout: 30 * time.Second, FlightRecorder: obs.NewRecorder(0, 0, 0),
	})
	if err != nil {
		return err
	}
	defer vm.Shutdown()
	var progs []*pfi.Program
	for _, t := range templates {
		p, err := pfi.CompileUncached(t.src)
		if err != nil {
			return err
		}
		if err := p.Run(vm, pfi.Options{}); err != nil { // warms the VM
			return err
		}
		progs = append(progs, p)
	}
	e.probe(s, parent, "pfi.run.us_per_prog", time.Microsecond, reps*len(progs), func() {
		for i := 0; i < reps; i++ {
			for _, p := range progs {
				if rerr := p.Run(vm, pfi.Options{}); rerr != nil {
					err = rerr
				}
			}
		}
	})
	if err != nil {
		return err
	}
	want := ""
	for i := 0; i < 1+probeReps*reps; i++ {
		for _, t := range templates {
			want += t.out
		}
	}
	if got := out.String(); got != want {
		return fmt.Errorf("templates on a warm VM printed %d bytes, want %d", len(got), len(want))
	}
	return nil
}
