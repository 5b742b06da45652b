package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
)

// waitViolation polls for the recorded violation: the kill sweep is
// asynchronous with respect to the observing test goroutine.
func waitViolation(t *testing.T, vm *VM) *LimitError {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := vm.LimitViolation(); err != nil {
			var le *LimitError
			if !errors.As(err, &le) {
				t.Fatalf("LimitViolation returned %T, want *LimitError", err)
			}
			if !errors.Is(err, ErrLimitExceeded) {
				t.Fatal("LimitError does not match ErrLimitExceeded")
			}
			return le
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no limit violation recorded")
	return nil
}

// TestHeapLimitFailsTenant: a tenant flooding its own queue with large
// messages must hit HeapBytes long before the arena fills, see the failure
// as heap exhaustion at the send site, and have the violation recorded.
func TestHeapLimitFailsTenant(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 4), Options{Limits: Limits{HeapBytes: 4096}})
	errCh := make(chan error, 1)
	vm.Register("flood", func(tk *Task) {
		payload := Str(strings.Repeat("x", 256))
		for i := 0; i < 1000; i++ {
			if err := tk.SendSelf("data", payload); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	})
	if _, err := vm.Run("flood", Any()); err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
	sendErr := <-errCh
	if sendErr == nil {
		t.Fatal("flood completed without hitting the heap limit")
	}
	if !errors.Is(sendErr, ErrHeapExhausted) {
		t.Fatalf("send error = %v; want ErrHeapExhausted", sendErr)
	}
	if !errors.Is(sendErr, ErrLimitExceeded) {
		t.Fatalf("send error = %v; want it to also match ErrLimitExceeded", sendErr)
	}
	le := waitViolation(t, vm)
	if le.Resource != LimitHeap {
		t.Fatalf("violation resource = %q; want %q", le.Resource, LimitHeap)
	}
	vm.Shutdown()
	if used := vm.heapBudget.Used(); used != 0 {
		t.Fatalf("the tenant budget holds %d bytes after shutdown", used)
	}
}

// TestHeapUnlimitedByDefault: without Limits the same flood only ever sees
// arena exhaustion, never a limit violation.
func TestHeapUnlimitedByDefault(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 4), Options{})
	done := make(chan struct{})
	vm.Register("burst", func(tk *Task) {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := tk.SendSelf("data", Int(int64(i))); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	})
	if _, err := vm.Run("burst", Any()); err != nil {
		t.Fatal(err)
	}
	<-done
	vm.WaitIdle()
	if err := vm.LimitViolation(); err != nil {
		t.Fatalf("unexpected violation: %v", err)
	}
}

// TestMaxTasksLimit: the cumulative initiate count is capped; the refusal
// surfaces to the initiator and the violation is recorded.
func TestMaxTasksLimit(t *testing.T) {
	vm := newTestVM(t, config.Simple(2, 8), Options{Limits: Limits{MaxTasks: 3}})
	vm.Register("child", func(tk *Task) {})
	var refused error
	var spawned int
	done := make(chan struct{})
	vm.Register("spawner", func(tk *Task) {
		// The defer (not a channel send at the end) survives the task being
		// kill-unwound mid-InitiateWait by the fail-stop sweep.
		defer close(done)
		for i := 0; i < 10; i++ {
			if _, err := tk.InitiateWait(Any(), "child"); err != nil {
				refused = err
				return
			}
			spawned++
		}
	})
	if _, err := vm.Run("spawner", Any()); err != nil {
		t.Fatal(err)
	}
	<-done
	vm.WaitIdle()
	if spawned >= 10 {
		t.Fatal("spawner initiated 10 children past a MaxTasks of 3")
	}
	// The refusal either surfaced as an initiate error or the sweep killed
	// the spawner first — both are a correctly fail-stopped tenant.
	if refused != nil && !errors.Is(refused, ErrVMTerminated) {
		t.Fatalf("refusal error = %v; want ErrVMTerminated", refused)
	}
	le := waitViolation(t, vm)
	if le.Resource != LimitTasks {
		t.Fatalf("violation resource = %q; want %q", le.Resource, LimitTasks)
	}
	// The spawner itself plus at most two admitted children.
	if got := vm.Stats().TasksInitiated; got > 3 {
		t.Fatalf("initiated %d tasks; want <= 3", got)
	}
}

// TestWallClockLimit: a tenant parked in an ACCEPT nobody satisfies is
// killed when its wall-clock budget expires; the run unblocks.
func TestWallClockLimit(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 4), Options{Limits: Limits{WallClock: 50 * time.Millisecond}})
	vm.Register("sleeper", func(tk *Task) {
		_, _ = tk.Accept(AcceptSpec{
			Types: []TypeCount{{Type: "never", Count: 1}},
			Delay: 30 * time.Second,
		})
	})
	start := time.Now()
	if _, err := vm.Run("sleeper", Any()); err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run took %v; wall-clock limit did not interrupt the ACCEPT", elapsed)
	}
	le := waitViolation(t, vm)
	if le.Resource != LimitWallClock {
		t.Fatalf("violation resource = %q; want %q", le.Resource, LimitWallClock)
	}
}

// TestOutputBytesLimit: terminal output past the cap is dropped, the
// violation recorded, and the system termination notice still delivered.
func TestOutputBytesLimit(t *testing.T) {
	var out syncBuffer
	vm := newTestVM(t, config.Simple(1, 4), Options{
		UserOutput: &out,
		Limits:     Limits{OutputBytes: 64},
	})
	done := make(chan struct{})
	vm.Register("chatty", func(tk *Task) {
		defer close(done)
		for i := 0; i < 50; i++ {
			tk.Println("0123456789")
		}
	})
	if _, err := vm.Run("chatty", Any()); err != nil {
		t.Fatal(err)
	}
	<-done
	vm.WaitIdle()
	vm.FlushUserOutput()
	le := waitViolation(t, vm)
	if le.Resource != LimitOutput {
		t.Fatalf("violation resource = %q; want %q", le.Resource, LimitOutput)
	}
	got := out.String()
	if n := strings.Count(got, "0123456789"); n >= 50 {
		t.Fatalf("all %d prints delivered; output cap did not drop any", n)
	}
	if !strings.Contains(got, "tenant limit exceeded") {
		t.Fatalf("termination notice missing from output:\n%s", got)
	}
}

// TestLimitErrorText pins the error formats the serving API surfaces.
func TestLimitErrorText(t *testing.T) {
	cases := []struct {
		err  *LimitError
		want string
	}{
		{&LimitError{Resource: LimitHeap, Limit: 100, Used: 120}, "tenant limit exceeded: heap cap 100, used 120"},
		{&LimitError{Resource: LimitTasks, Limit: 5}, "tenant limit exceeded: tasks cap 5"},
		{&LimitError{Resource: LimitWallClock, Limit: int64(time.Second)}, "tenant limit exceeded: wallclock cap 1s elapsed"},
	}
	for _, c := range cases {
		if got := c.err.Error(); got != c.want {
			t.Errorf("Error() = %q; want %q", got, c.want)
		}
	}
}
