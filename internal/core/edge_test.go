package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/flex"
	"repro/internal/msgcodec"
	"repro/internal/rect"
)

func TestTaskIDParseAndString(t *testing.T) {
	id := TaskID{Cluster: 3, Slot: 2, Unique: 47}
	parsed, err := ParseTaskID(id.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != id {
		t.Fatalf("round trip %v -> %v", id, parsed)
	}
	for _, bad := range []string{"", "1.2", "1.2.3.4", "a.b.c", "1..3"} {
		if _, err := ParseTaskID(bad); err == nil {
			t.Errorf("ParseTaskID(%q) should fail", bad)
		}
	}
	if !NilTask.IsNil() || id.IsNil() {
		t.Error("IsNil wrong")
	}
}

func TestValueAccessorsRejectWrongKinds(t *testing.T) {
	if _, err := AsInt(Real(1.5)); err == nil || err.Error() != "core: value is REAL, not INTEGER" {
		t.Errorf("AsInt of REAL: %v", err)
	}
	if _, err := AsReal(Int(1)); err == nil {
		t.Error("AsReal of INTEGER accepted")
	}
	if _, err := AsBool(Int(1)); err == nil {
		t.Error("AsBool of INTEGER accepted")
	}
	if _, err := AsStr(Int(1)); err == nil {
		t.Error("AsStr of INTEGER accepted")
	}
	if _, err := AsID(Int(1)); err == nil {
		t.Error("AsID of INTEGER accepted")
	}
	if _, err := AsInts(Int(1)); err == nil || err.Error() != "core: value is INTEGER, not INTEGER array" {
		t.Errorf("AsInts of INTEGER: %v", err)
	}
	if _, err := AsReals(Int(1)); err == nil {
		t.Error("AsReals of INTEGER accepted")
	}
	if _, err := AsWin(Int(1)); err == nil {
		t.Error("AsWin of INTEGER accepted")
	}
	// Must* panics on mismatch.
	assertPanics(t, func() { MustInt(Str("x")) })
	assertPanics(t, func() { MustReal(Str("x")) })
	assertPanics(t, func() { MustStr(Int(1)) })
	assertPanics(t, func() { MustID(Int(1)) })
	assertPanics(t, func() { MustReals(Int(1)) })
	assertPanics(t, func() { MustWin(Int(1)) })
	// Round trips of the remaining accessors.
	if v, err := AsInts(Ints([]int64{1, 2})); err != nil || len(v) != 2 {
		t.Error("AsInts round trip")
	}
	if v, err := AsBool(Bool(true)); err != nil || !v {
		t.Error("AsBool round trip")
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// TestSendHeapExhaustion verifies that a send which cannot be satisfied by
// the shared-memory message heap fails with ErrHeapExhausted and that the
// failure is clean (no storage leaked, later sends succeed after space is
// recovered).
func TestSendHeapExhaustion(t *testing.T) {
	// A tiny machine with an almost-empty message heap.
	machineCfg := flex.DefaultConfig()
	machineCfg.SharedBytes = 96 * 1024
	machineCfg.TableBytes = 32 * 1024
	machineCfg.CommonBytes = 32 * 1024
	machine := flex.MustNewMachine(machineCfg)
	vm, err := NewVMOn(machine, config.Simple(1, 2), Options{AcceptTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Shutdown()

	result := make(chan error, 1)
	vm.Register("bulky", func(task *Task) {
		// ~32 KiB heap: a 1000-real payload is 8 KB + packets, so a few
		// unaccepted sends must exhaust it.
		payload := make([]float64, 1000)
		var sendErr error
		for i := 0; i < 16; i++ {
			if err := task.SendSelf("blob", Reals(payload)); err != nil {
				sendErr = err
				break
			}
		}
		if sendErr == nil {
			result <- errors.New("heap never exhausted")
			return
		}
		if !errors.Is(sendErr, ErrHeapExhausted) {
			result <- sendErr
			return
		}
		// Accept everything queued; afterwards sending works again.
		if _, err := task.Accept(AcceptSpec{Types: []TypeCount{{Type: "blob", Count: All}}}); err != nil {
			result <- err
			return
		}
		result <- task.SendSelf("blob", Reals(payload))
	})
	if _, err := vm.Run("bulky", OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	if err := <-result; err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
	if in := vm.Machine().Shared().HeapShard(0).InUse(); in != 0 {
		t.Fatalf("heap not recovered after the task terminated: %d bytes", in)
	}
}

// TestKillWhileBlockedInCritical verifies that killing a task blocked on a
// lock unwinds it and that the lock itself remains usable.
func TestKillInterruptsLongAccept(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 2), Options{})
	entered := make(chan TaskID, 1)
	vm.Register("sleepy", func(task *Task) {
		entered <- task.ID()
		// A long but finite DELAY: the kill must take effect well before it.
		_, _ = task.Accept(AcceptSpec{Total: 1, Types: []TypeCount{{Type: "never"}}, Delay: time.Minute})
		task.Printf("should not be reached\n")
	})
	id, err := vm.Initiate("sleepy", OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	start := time.Now()
	if err := vm.Kill(id); err != nil {
		t.Fatal(err)
	}
	if err := vm.WaitTask(id); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("kill did not interrupt the ACCEPT promptly")
	}
}

// TestUserControllerFormatsArbitraryMessages covers the user controller's
// rendering of non-"print" messages and of every value kind.
func TestUserControllerFormatsArbitraryMessages(t *testing.T) {
	out := &syncBuffer{}
	vm := newTestVM(t, config.Simple(1, 2), Options{UserOutput: out})
	vm.Register("reporter", func(task *Task) {
		win := Window{Owner: task.ID(), ArrayID: 3, Region: rect.Whole(2, 2)}
		_ = task.SendUser("report",
			Int(42), Real(2.5), Bool(true), Str("text"), ID(task.ID()),
			Ints([]int64{1, 2}), Reals([]float64{3, 4}), Win(win))
	})
	if _, err := vm.Run("reporter", OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
	vm.FlushUserOutput()
	got := out.String()
	for _, want := range []string{"report", "42", "2.5", "true", `"text"`, "INTEGER[2]", "REAL[2]", "WINDOW(owner="} {
		if !strings.Contains(got, want) {
			t.Errorf("user output missing %q in %q", want, got)
		}
	}
}

// TestStatsCountersAdvance covers VM.Stats across a small run.
func TestStatsCountersAdvance(t *testing.T) {
	vm := newTestVM(t, config.Simple(2, 2), Options{})
	vm.Register("chatty", func(task *Task) {
		_ = task.SendSelf("note")
		_, _ = task.AcceptOne("note")
	})
	for i := 0; i < 3; i++ {
		if _, err := vm.Run("chatty", Any()); err != nil {
			t.Fatal(err)
		}
	}
	st := vm.Stats()
	if st.TasksInitiated != 3 || st.TasksCompleted != 3 {
		t.Errorf("task counters %+v", st)
	}
	if st.MessagesSent < 3 || st.MessagesAccepted < 3 {
		t.Errorf("message counters %+v", st)
	}
}

// TestEncodedSizeMatchesCodec pins the run-time's heap charge to the codec's
// declared message layout.
func TestEncodedSizeMatchesCodec(t *testing.T) {
	args := []Value{Int(1), Str("hello"), Reals(make([]float64, 10))}
	n, err := encodedSize(args)
	if err != nil {
		t.Fatal(err)
	}
	want, err := msgcodec.EncodedSize(args)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("encodedSize %d != codec %d", n, want)
	}
}
