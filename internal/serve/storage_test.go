package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/msgcodec"
)

// daemonShape is `pisces serve` with every flag at its default
// (cmd/pisces/daemon.go): the geometry the storage figures below are for.
func daemonShape(cfg Config) Config {
	cfg = harnessShape(cfg)
	cfg.MaxActive = 4
	cfg.QueueDepth = 64
	return cfg
}

// runToDone submits every source as one batch (a batch must fit the admission
// queue), waits for all of them and requires each to finish without error.
func runToDone(t *testing.T, m *Manager, tenant string, srcs ...string) {
	t.Helper()
	batch := make([]*Session, len(srcs))
	for i, src := range srcs {
		batch[i] = submit(t, m, Request{Tenant: tenant, Source: src})
	}
	for _, s := range batch {
		waitSession(t, s)
		if st, err := s.State(); st != StateDone {
			t.Fatalf("session %s: state %q, err %v", s.ID(), st, err)
		}
	}
}

// secretSrc is tenant A: it sends a recognisable character argument and a
// REAL array across clusters, so both land in its sending shard's arena.
const secretSrc = `TASKTYPE MAIN
      TASKID WID
      REAL R(64)
      INTEGER I
      DO 10 I = 1, 64
        R(I) = 31337.0 + I
10    CONTINUE
      ON CLUSTER 2 INITIATE KEEPER
      ACCEPT 1 OF READY
      WID = SENDER
      TO WID SEND SECRET('TENANT-A-SECRET-XYZZY-TENANT-A-SECRET', R)
      ACCEPT 1 OF KEPT
      PRINT *, 'KEPT ', MSGS('KEPT', 1, 1), MSGR('KEPT', 1, 2)
END TASKTYPE

TASKTYPE KEEPER
      TO PARENT SEND READY
      ACCEPT 1 OF SECRET
      TO SENDER SEND KEPT(MSGS('SECRET', 1, 1), 2.5)
END TASKTYPE
`

const secretOut = "KEPT  TENANT-A-SECRET-XYZZY-TENANT-A-SECRET 2.5\n"

// echoSrc is tenant B: the same shape with a short payload, every event of
// which is causally ordered (one message in flight at a time), so its
// flight-recorder contents do not depend on scheduling.
const echoSrc = `TASKTYPE MAIN
      TASKID WID
      REAL V(8)
      INTEGER I
      DO 10 I = 1, 8
        V(I) = 0.5 * I
10    CONTINUE
      ON CLUSTER 2 INITIATE ECHOER
      ACCEPT 1 OF READY
      WID = SENDER
      TO WID SEND PROBE('B', V)
      ACCEPT 1 OF ECHO
      PRINT *, 'ECHO ', MSGS('ECHO', 1, 1), MSGR('ECHO', 1, 2)
END TASKTYPE

TASKTYPE ECHOER
      TO PARENT SEND READY
      ACCEPT 1 OF PROBE
      TO SENDER SEND ECHO(MSGS('PROBE', 1, 1), 4.5)
END TASKTYPE
`

// observed is everything a tenant can see of its own session.  The daemon
// runs on the wall clock, so the time stamps — and only they — are zeroed
// before two sessions are compared.
type observed struct {
	output, events, blackbox string
}

func observe(t *testing.T, h http.Handler, s *Session) observed {
	t.Helper()
	var events []EventResponse
	getJSON(t, h, "/programs/"+s.ID()+"/events", &events)
	for i := range events {
		events[i].TSNS = 0
	}
	eventsJSON, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	dump, err := s.rec.Dump()
	if err != nil {
		t.Fatal(err)
	}
	node, _, boxed, err := msgcodec.DecodeBlackbox(dump)
	if err != nil {
		t.Fatal(err)
	}
	for i := range boxed {
		boxed[i].TS = 0
	}
	box, err := msgcodec.EncodeBlackbox(node, 0, boxed)
	if err != nil {
		t.Fatal(err)
	}
	output := serveHTTP(h, http.MethodGet, "/programs/"+s.ID()+"/output", nil).Body.String()
	return observed{output: output, events: string(eventsJSON), blackbox: string(box)}
}

// TestCrossTenantStorageRecycling: sessions reuse what earlier sessions gave
// back — pooled message headers, frames and recorder storage.  Tenant B,
// running after and beside tenant A's recognisable cross-cluster payloads,
// four sessions at once, must see exactly what it sees on a daemon nobody
// else has used: output, /events and blackbox dump.
func TestCrossTenantStorageRecycling(t *testing.T) {
	fresh := New(daemonShape(Config{}))
	solo := submit(t, fresh, Request{Tenant: "b", Source: echoSrc})
	waitSession(t, solo)
	want := observe(t, fresh.Handler(), solo)
	drainAll(t, fresh)
	if want.output != "ECHO  B 4.5\n" || !strings.Contains(want.events, `"kind":"send"`) {
		t.Fatalf("tenant B alone: output %q, events %s", want.output, want.events)
	}

	m := New(daemonShape(Config{}))
	defer drainAll(t, m)
	h := m.Handler()
	const rounds, perRound = 4, 8
	for round := 0; round < rounds; round++ {
		var as, bs []*Session
		for i := 0; i < perRound; i++ {
			as = append(as, submit(t, m, Request{Tenant: "a", Source: secretSrc}))
			bs = append(bs, submit(t, m, Request{Tenant: "b", Source: echoSrc}))
		}
		for _, s := range as {
			waitSession(t, s)
			if got := string(s.Output()); got != secretOut {
				t.Fatalf("tenant A session %s printed %q", s.ID(), got)
			}
		}
		for _, s := range bs {
			waitSession(t, s)
			if got := observe(t, h, s); got != want {
				t.Fatalf("tenant B session %s on recycled storage differs from a fresh daemon's:\n got %+v\nwant %+v", s.ID(), got, want)
			}
		}
	}
}

// TestFinishedSessionReleasesSource: a session reads its source once, to
// compile it.  512 retained sessions of 64 KiB unique sources pinned 32 MiB
// at the parent commit (up to 512 MiB at maxSubmitBytes), outside the compile
// cache's weight bound.
func TestFinishedSessionReleasesSource(t *testing.T) {
	const srcBytes = 64 << 10
	m := New(daemonShape(Config{CacheBytes: 256 << 10}))
	defer drainAll(t, m)
	pad := strings.Repeat("C "+strings.Repeat("X", 61)+"\n", srcBytes/64)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for base := 0; base < retainedSessions; base += 64 {
		srcs := make([]string, 64)
		for i := range srcs {
			srcs[i] = fmt.Sprintf("C UNIQUE %d\n%s%s", base+i, pad, helloSrc)
		}
		runToDone(t, m, "t", srcs...)
	}
	sessions := m.Sessions()
	if len(sessions) != retainedSessions {
		t.Fatalf("%d sessions retained, want %d", len(sessions), retainedSessions)
	}
	for _, s := range sessions {
		if s.src != "" {
			t.Fatalf("finished session %s still holds %d bytes of source", s.ID(), len(s.src))
		}
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 8<<20 {
		t.Fatalf("%d retained sessions of %d-byte sources hold %d B of heap, want < 8 MiB", retainedSessions, srcBytes, grown)
	}
}
