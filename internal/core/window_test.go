package core

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/rect"
)

func TestArrayBasics(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 2), Options{})
	runTaskBodyOn(t, vm, func(task *Task) error {
		a, err := task.NewArray("grid", 4, 5)
		if err != nil {
			return err
		}
		if a.Rows() != 4 || a.Cols() != 5 || a.Name() != "grid" || a.Owner() != task.ID() {
			t.Errorf("array metadata wrong: %+v", a)
		}
		if err := a.Set(2, 3, 7.5); err != nil {
			return err
		}
		if v, err := a.Get(2, 3); err != nil || v != 7.5 {
			t.Errorf("Get = %v, %v", v, err)
		}
		if err := a.Set(0, 1, 1); err == nil {
			t.Error("out-of-range Set accepted")
		}
		if _, err := a.Get(5, 1); err == nil {
			t.Error("out-of-range Get accepted")
		}
		a.Fill(1.25)
		if v, _ := a.Get(4, 5); v != 1.25 {
			t.Errorf("Fill failed: %v", v)
		}
		if _, err := task.NewArray("bad", 0, 5); err == nil {
			t.Error("zero-dimension array accepted")
		}
		return nil
	})
}

func TestArrayChargesLocalMemory(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 2), Options{})
	pe := vm.Machine().PE(3)
	var during int
	runTaskBodyOn(t, vm, func(task *Task) error {
		if _, err := task.NewArray("big", 100, 100); err != nil {
			return err
		}
		during, _, _ = pe.LocalStats()
		return nil
	})
	vm.WaitIdle()
	after, _, _ := pe.LocalStats()
	if during-after < 8*100*100 {
		t.Errorf("array storage not recovered at task termination: during=%d after=%d", during, after)
	}
}

func TestWindowCreateShrinkReadWrite(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 2), Options{})
	runTaskBodyOn(t, vm, func(task *Task) error {
		a, err := task.NewArray("data", 6, 6)
		if err != nil {
			return err
		}
		for r := 1; r <= 6; r++ {
			for c := 1; c <= 6; c++ {
				a.Set(r, c, float64(10*r+c))
			}
		}
		w, err := task.WholeWindow(a)
		if err != nil {
			return err
		}
		if w.Rows() != 6 || w.Cols() != 6 || w.Size() != 36 {
			t.Errorf("whole window shape %dx%d", w.Rows(), w.Cols())
		}
		if w.Owner != task.ID() {
			t.Errorf("window owner %s", w.Owner)
		}

		// Shrink to rows 2..3, cols 4..6 and read through it.
		sub, err := w.Shrink(rect.New(2, 3, 4, 6))
		if err != nil {
			return err
		}
		data, err := task.ReadWindow(sub)
		if err != nil {
			return err
		}
		want := []float64{24, 25, 26, 34, 35, 36}
		if len(data) != len(want) {
			t.Fatalf("read %d elements, want %d", len(data), len(want))
		}
		for i := range want {
			if data[i] != want[i] {
				t.Errorf("element %d = %v, want %v", i, data[i], want[i])
			}
		}

		// Write through a window and observe it in the owner's array.
		if err := task.WriteWindow(sub, []float64{1, 2, 3, 4, 5, 6}); err != nil {
			return err
		}
		if v, _ := a.Get(3, 6); v != 6 {
			t.Errorf("write through window not visible: %v", v)
		}
		if err := task.WriteWindow(sub, []float64{1, 2}); err == nil {
			t.Error("shape-mismatched write accepted")
		}

		// Shrinking beyond the window is rejected; growing is impossible.
		if _, err := sub.Shrink(rect.New(1, 6, 1, 6)); err == nil {
			t.Error("growing shrink accepted")
		}
		// Windows on regions outside the array are rejected.
		if _, err := task.WindowOn(a, rect.New(1, 7, 1, 6)); err == nil {
			t.Error("window outside array accepted")
		}
		return nil
	})
}

func TestWindowOwnershipRule(t *testing.T) {
	vm := newTestVM(t, config.Simple(2, 2), Options{})
	ownerArr := make(chan *Array, 1)
	ownerReady := make(chan TaskID, 1)
	release := make(chan struct{})
	vm.Register("owner", func(task *Task) {
		a, err := task.NewArray("mine", 3, 3)
		if err != nil {
			panic(err)
		}
		ownerArr <- a
		ownerReady <- task.ID()
		// Stay alive until the test is done so the array remains resolvable.
		_, _ = task.Accept(AcceptSpec{Total: 1, Types: []TypeCount{{Type: "done"}}, Delay: Forever})
		close(release)
	})
	ownerID, err := vm.Initiate("owner", OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	a := <-ownerArr
	<-ownerReady

	errs := make(chan error, 1)
	vm.Register("stranger", func(task *Task) {
		// A task cannot create a window on an array it does not own...
		if _, err := task.WindowOn(a, rect.Whole(3, 3)); err == nil {
			errs <- nil
			return
		}
		// ...but it can read and write through a window value it was given.
		w := Window{Owner: a.Owner(), ArrayID: a.ID(), Region: rect.Whole(3, 3)}
		if err := task.WriteWindow(w, make([]float64, 9)); err != nil {
			errs <- err
			return
		}
		_, err := task.ReadWindow(w)
		errs <- err
	})
	if _, err := vm.Run("stranger", OnCluster(2)); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := vm.SendFromUser(ownerID, "done"); err != nil {
		t.Fatal(err)
	}
	<-release
	vm.WaitIdle()
}

func TestWindowOnTerminatedOwnerFails(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 2), Options{})
	winCh := make(chan Window, 1)
	vm.Register("ephemeral", func(task *Task) {
		a, err := task.NewArray("gone", 2, 2)
		if err != nil {
			panic(err)
		}
		w, err := task.WholeWindow(a)
		if err != nil {
			panic(err)
		}
		winCh <- w
	})
	if _, err := vm.Run("ephemeral", OnCluster(1)); err != nil {
		t.Fatal(err)
	}
	w := <-winCh
	runTaskBodyOn(t, vm, func(task *Task) error {
		if _, err := task.ReadWindow(w); err == nil {
			t.Error("read through a window whose owner terminated should fail")
		}
		return nil
	})
}

func TestWindowRowBandsPartitioning(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 2), Options{})
	runTaskBodyOn(t, vm, func(task *Task) error {
		a, err := task.NewArray("field", 10, 4)
		if err != nil {
			return err
		}
		w, err := task.WholeWindow(a)
		if err != nil {
			return err
		}
		bands, err := w.RowBands(3)
		if err != nil {
			return err
		}
		if len(bands) != 3 {
			t.Fatalf("bands = %d", len(bands))
		}
		total := 0
		for _, b := range bands {
			if b.Owner != w.Owner || b.ArrayID != w.ArrayID {
				t.Error("band window lost its owner/array identity")
			}
			total += b.Size()
		}
		if total != w.Size() {
			t.Errorf("bands cover %d elements, want %d", total, w.Size())
		}
		return nil
	})
}

func TestWindowValueThroughMessages(t *testing.T) {
	// The full Section 8 pattern: the owner partitions its array into window
	// values and sends them to worker tasks; each worker reads its partition,
	// processes it, and writes the result back through the window.
	vm := newTestVM(t, config.Simple(2, 4), Options{})
	const rows, cols, workers = 8, 6, 4

	vm.Register("worker", func(task *Task) {
		m, err := task.AcceptOne("partition")
		if err != nil {
			panic(err)
		}
		w := MustWin(m.Arg(0))
		data, err := task.ReadWindow(w)
		if err != nil {
			panic(err)
		}
		for i := range data {
			data[i] *= 2
		}
		if err := task.WriteWindow(w, data); err != nil {
			panic(err)
		}
		if err := task.SendParent("partition-done"); err != nil {
			panic(err)
		}
	})
	vm.Register("owner", func(task *Task) {
		a, err := task.NewArray("field", rows, cols)
		if err != nil {
			panic(err)
		}
		for r := 1; r <= rows; r++ {
			for c := 1; c <= cols; c++ {
				a.Set(r, c, 1)
			}
		}
		whole, err := task.WholeWindow(a)
		if err != nil {
			panic(err)
		}
		bands, err := whole.RowBands(workers)
		if err != nil {
			panic(err)
		}
		for _, band := range bands {
			id, err := task.InitiateWait(Any(), "worker")
			if err != nil {
				panic(err)
			}
			if err := task.Send(id, "partition", Win(band)); err != nil {
				panic(err)
			}
		}
		if _, err := task.AcceptN(workers, "partition-done"); err != nil {
			panic(err)
		}
		// Every element must have been doubled exactly once.
		for r := 1; r <= rows; r++ {
			for c := 1; c <= cols; c++ {
				if v, _ := a.Get(r, c); v != 2 {
					panic("element not processed exactly once")
				}
			}
		}
		task.SendParent("all-ok")
	})

	ownerID, err := vm.Initiate("owner", OnCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.WaitTask(ownerID); err != nil {
		t.Fatal(err)
	}
	vm.WaitIdle()
	ops, bytes := vm.WindowTraffic()
	if ops < int64(2*workers) {
		t.Errorf("window ops = %d, want at least %d", ops, 2*workers)
	}
	if bytes != int64(2*8*rows*cols) {
		t.Errorf("window bytes = %d, want %d (one read + one write of the array)", bytes, 2*8*rows*cols)
	}
}

func TestFileArrays(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 2), Options{})
	w, err := vm.CreateFileArray("input.dat", 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if w.Owner != vm.fileCtrl {
		t.Fatalf("file array owner = %s, want file controller %s", w.Owner, vm.fileCtrl)
	}
	if _, err := vm.CreateFileArray("input.dat", 5, 5); err == nil {
		t.Fatal("duplicate file array accepted")
	}
	if _, err := vm.CreateFileArray("bad", 0, 1); err == nil {
		t.Fatal("zero-dimension file array accepted")
	}
	arr, ok := vm.FileArray("input.dat")
	if !ok {
		t.Fatal("FileArray lookup failed")
	}
	arr.Fill(3)

	runTaskBodyOn(t, vm, func(task *Task) error {
		fw, err := task.RequestFileWindow("input.dat")
		if err != nil {
			return err
		}
		data, err := task.ReadWindow(fw)
		if err != nil {
			return err
		}
		if len(data) != 25 || data[0] != 3 {
			t.Errorf("file window read %d elements, first %v", len(data), data[0])
		}
		sub, err := fw.Shrink(rect.New(1, 1, 1, 5))
		if err != nil {
			return err
		}
		if err := task.WriteWindow(sub, []float64{9, 9, 9, 9, 9}); err != nil {
			return err
		}
		if _, err := task.RequestFileWindow("missing.dat"); err == nil {
			t.Error("window on unknown file array accepted")
		}
		return nil
	})
	if v, _ := arr.Get(1, 3); v != 9 {
		t.Fatalf("file array write not visible: %v", v)
	}
}

func TestFileControllerDirectory(t *testing.T) {
	vm := newTestVM(t, config.Simple(1, 2), Options{})
	if _, err := vm.CreateFileArray("a.dat", 2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.CreateFileArray("b.dat", 2, 2); err != nil {
		t.Fatal(err)
	}
	runTaskBodyOn(t, vm, func(task *Task) error {
		if err := task.Send(vm.fileCtrl, "directory"); err != nil {
			return err
		}
		m, err := task.Accept(AcceptSpec{Total: 1, Types: []TypeCount{{Type: "directory-reply"}}, Delay: 3 * time.Second})
		if err != nil {
			return err
		}
		if m.TimedOut {
			t.Error("file controller never answered the directory request")
			return nil
		}
		reply := MustStr(m.ByType("directory-reply")[0].Arg(0))
		if reply != "[a.dat b.dat]" {
			t.Errorf("directory reply = %q", reply)
		}
		return nil
	})
}
