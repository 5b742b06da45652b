package core

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
)

// TestRoutedSendAcceptAllocs holds the production hot path — flight recorder
// attached, trace, spans and metrics off — to its allocation count: a
// ping-pong between two clusters is two routed sends and two ACCEPTs a round,
// and half a round allocates 4.00.  It was 13.00 from PR 16's parent
// (8cc4440) to PR 20 and 8.00 at PR 21: the five that went then are the
// AcceptResult, its map (two objects) and its two slices, which AcceptOne
// hands back to the task for its next ACCEPT; the one that went at PR 22 is
// Send's variadic list, which stays on the caller's stack now that no route
// keeps it (the message's own list — AcceptOne does not hand messages back,
// so the header and its store are still two of the four — replaced the
// decoded one).  PR 25 took 7.00 to 4.00: each ACCEPT here blocks under a
// finite timeout, and the timer its wait made is now made once per task
// (backend's gEvent.WaitTimeout).  An Event that escaped to the heap at any
// of the four sites a message passes would show up here as +1.  Under the
// race detector the ping-pong still runs but the count is only logged: a
// routed send takes a pooled frame, and race-mode sync.Pool drops some puts.
func TestRoutedSendAcceptAllocs(t *testing.T) {
	const pinned = 4.0

	vm, err := NewVM(config.Simple(2, 2), Options{
		AcceptTimeout:  30 * time.Second,
		FlightRecorder: obs.NewRecorder(0, 0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()
	vm.Register("echo", func(task *Task) {
		for {
			m, err := task.AcceptOne("ping")
			if err != nil || m.Args[0].Integer() < 0 {
				return
			}
			if err := task.SendSender("pong", Int(0)); err != nil {
				return
			}
		}
	})
	result := make(chan float64, 1)
	vm.Register("prober", func(task *Task) {
		to := MustID(task.Arg(0))
		round := func() {
			if err := task.Send(to, "ping", Int(1)); err != nil {
				t.Errorf("send: %v", err)
			}
			if _, err := task.AcceptOne("pong"); err != nil {
				t.Errorf("accept: %v", err)
			}
		}
		for i := 0; i < 64; i++ {
			round()
		}
		result <- testing.AllocsPerRun(2000, round) / 2
		_ = task.Send(to, "ping", Int(-1))
	})
	echoID, err := vm.Initiate("echo", OnCluster(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Initiate("prober", OnCluster(1), ID(echoID)); err != nil {
		t.Fatal(err)
	}
	got := <-result
	t.Logf("%.2f allocations a routed send + ACCEPT", got)
	if !raceEnabled && got > pinned {
		t.Errorf("a routed send + ACCEPT allocates %.2f times, more than the pinned %.2f", got, pinned)
	}
}
