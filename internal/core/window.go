package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/rect"
)

// Window is the PISCES 2 "window" data type (Section 8): "a type of
// generalized pointer that points to a rectangular subregion of an array that
// is 'owned' by another task ... The window value contains the taskid of the
// owner, the address of the array, and a descriptor for the subarray."
// Windows are plain data values: they can be stored in variables, passed in
// messages (as WINDOW arguments), shrunk, and used to read or write the
// visible subarray.
type Window struct {
	// Owner is the task that owns the underlying array (a user task or the
	// file controller).
	Owner TaskID
	// ArrayID identifies the array within its owner.
	ArrayID int32
	// Region is the rectangular subregion visible through the window.
	Region rect.Rect
}

// Rows returns the number of rows visible through the window.
func (w Window) Rows() int { return w.Region.Rows() }

// Cols returns the number of columns visible through the window.
func (w Window) Cols() int { return w.Region.Cols() }

// Size returns the number of elements visible through the window.
func (w Window) Size() int { return w.Region.Size() }

// String renders the window for traces and displays.
func (w Window) String() string {
	return fmt.Sprintf("WINDOW{owner=%s array=%d region=%s}", w.Owner, w.ArrayID, w.Region)
}

// Shrink derives a window on a smaller subarray ("Another task may also
// 'shrink' the window to point to a smaller subarray").
func (w Window) Shrink(to rect.Rect) (Window, error) {
	r, err := w.Region.Shrink(to)
	if err != nil {
		return Window{}, err
	}
	return Window{Owner: w.Owner, ArrayID: w.ArrayID, Region: r}, nil
}

// RowBands partitions the window into n horizontal bands, one window per
// band — the top-level partitioning pattern of Section 8.
func (w Window) RowBands(n int) ([]Window, error) {
	bands, err := w.Region.RowBands(n)
	if err != nil {
		return nil, err
	}
	out := make([]Window, len(bands))
	for i, b := range bands {
		out[i] = Window{Owner: w.Owner, ArrayID: w.ArrayID, Region: b}
	}
	return out, nil
}

// Array is a two-dimensional REAL array owned by a task (or by the file
// controller).  Windows point into arrays; the owner keeps the storage and
// other tasks move data in and out through window reads and writes.
type Array struct {
	owner TaskID
	id    int32
	name  string
	rows  int
	cols  int

	mu   sync.RWMutex
	data []float64
}

// Name returns the name the owner gave the array.
func (a *Array) Name() string { return a.name }

// Rows returns the number of rows.
func (a *Array) Rows() int { return a.rows }

// Cols returns the number of columns.
func (a *Array) Cols() int { return a.cols }

// Owner returns the taskid of the owning task.
func (a *Array) Owner() TaskID { return a.owner }

// ID returns the array identifier within its owner.
func (a *Array) ID() int32 { return a.id }

// Set stores one element (1-based indices).
func (a *Array) Set(row, col int, v float64) error {
	if row < 1 || row > a.rows || col < 1 || col > a.cols {
		return fmt.Errorf("core: element (%d,%d) outside %dx%d array %q", row, col, a.rows, a.cols, a.name)
	}
	a.mu.Lock()
	a.data[(row-1)*a.cols+(col-1)] = v
	a.mu.Unlock()
	return nil
}

// Get reads one element (1-based indices).
func (a *Array) Get(row, col int) (float64, error) {
	if row < 1 || row > a.rows || col < 1 || col > a.cols {
		return 0, fmt.Errorf("core: element (%d,%d) outside %dx%d array %q", row, col, a.rows, a.cols, a.name)
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.data[(row-1)*a.cols+(col-1)], nil
}

// Fill sets every element of the array to v.
func (a *Array) Fill(v float64) {
	a.mu.Lock()
	for i := range a.data {
		a.data[i] = v
	}
	a.mu.Unlock()
}

// readRegion copies the elements visible in region out of the array.
func (a *Array) readRegion(region rect.Rect) ([]float64, error) {
	offs, err := region.Offsets(a.rows, a.cols)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(offs))
	a.mu.RLock()
	for i, off := range offs {
		out[i] = a.data[off]
	}
	a.mu.RUnlock()
	return out, nil
}

// writeRegion copies data (row-major, region-shaped) into the array.
func (a *Array) writeRegion(region rect.Rect, data []float64) error {
	offs, err := region.Offsets(a.rows, a.cols)
	if err != nil {
		return err
	}
	if len(data) != len(offs) {
		return fmt.Errorf("core: window write of %d values into %d-element region %s", len(data), len(offs), region)
	}
	a.mu.Lock()
	for i, off := range offs {
		a.data[off] = data[i]
	}
	a.mu.Unlock()
	return nil
}

// arrayKey identifies an array globally.
type arrayKey struct {
	owner TaskID
	id    int32
}

// arrayStore is the run-time's registry of task-owned arrays.
type arrayStore struct {
	mu     sync.Mutex
	arrays map[arrayKey]*Array
}

func newArrayStore() *arrayStore {
	return &arrayStore{arrays: make(map[arrayKey]*Array)}
}

func (s *arrayStore) add(a *Array) {
	s.mu.Lock()
	s.arrays[arrayKey{a.owner, a.id}] = a
	s.mu.Unlock()
}

func (s *arrayStore) get(owner TaskID, id int32) (*Array, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.arrays[arrayKey{owner, id}]
	return a, ok
}

// dropOwner removes all arrays owned by a terminated task, releasing their
// local-memory charge.
func (s *arrayStore) dropOwner(owner TaskID, vm *VM) {
	s.mu.Lock()
	var dropped []*Array
	for k, a := range s.arrays {
		if k.owner == owner {
			dropped = append(dropped, a)
			delete(s.arrays, k)
		}
	}
	s.mu.Unlock()
	for _, a := range dropped {
		if cl, ok := vm.cluster(owner.Cluster); ok {
			cl.primary.FreeLocal(8 * len(a.data))
		}
	}
}

// fileStore holds the file-resident arrays owned by the file controller
// ("Windows also provide a uniform access method for large arrays on
// secondary storage", Section 8).
type fileStore struct {
	mu     sync.Mutex
	owner  TaskID
	nextID int32
	byName map[string]*Array
	byID   map[int32]*Array
}

func newFileStore() *fileStore {
	return &fileStore{byName: make(map[string]*Array), byID: make(map[int32]*Array)}
}

func (s *fileStore) create(name string, rows, cols int) (*Array, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("core: file array %q must have positive dimensions, got %dx%d", name, rows, cols)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.byName[name]; exists {
		return nil, fmt.Errorf("core: file array %q already exists", name)
	}
	s.nextID++
	a := &Array{owner: s.owner, id: s.nextID, name: name, rows: rows, cols: cols, data: make([]float64, rows*cols)}
	s.byName[name] = a
	s.byID[a.id] = a
	return a, nil
}

func (s *fileStore) lookup(name string) (*Array, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.byName[name]
	return a, ok
}

func (s *fileStore) byIDLookup(id int32) (*Array, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.byID[id]
	return a, ok
}

func (s *fileStore) names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.byName))
	for n := range s.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// --- VM-level file-array API -------------------------------------------------

// CreateFileArray creates a file-resident array owned by the file controller
// and returns a window covering the whole array.  In the paper this is the
// "large arrays on secondary storage" case; the FLEX at NASA had no local
// disks, so as there, the file system is reached through the terminal
// cluster.
func (vm *VM) CreateFileArray(name string, rows, cols int) (Window, error) {
	a, err := vm.files.create(name, rows, cols)
	if err != nil {
		return Window{}, err
	}
	return Window{Owner: vm.fileCtrl, ArrayID: a.id, Region: rect.Whole(rows, cols)}, nil
}

// FileArray returns the underlying array of a file-resident array, for
// loading input data and checking results outside the simulation.
func (vm *VM) FileArray(name string) (*Array, bool) { return vm.files.lookup(name) }

// --- Task-level window API ---------------------------------------------------

// NewArray creates a rows x cols REAL array owned by this task.  The storage
// is charged to the owner's PE local memory.
func (t *Task) NewArray(name string, rows, cols int) (*Array, error) {
	t.checkKilled()
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("core: array %q must have positive dimensions, got %dx%d", name, rows, cols)
	}
	bytes := 8 * rows * cols
	if err := t.rec.cluster.primary.AllocLocal(bytes); err != nil {
		return nil, fmt.Errorf("core: allocating array %q: %w", name, err)
	}
	t.arraySeq++
	a := &Array{owner: t.ID(), id: t.arraySeq, name: name, rows: rows, cols: cols, data: make([]float64, rows*cols)}
	t.vm.arrays.add(a)
	return a, nil
}

// WindowOn creates a window on a rectangular subregion of one of this task's
// own arrays ("Any task may create windows on one of its local arrays").
func (t *Task) WindowOn(a *Array, region rect.Rect) (Window, error) {
	t.checkKilled()
	if a.owner != t.ID() {
		return Window{}, fmt.Errorf("core: task %s cannot create a window on array owned by %s", t.ID(), a.owner)
	}
	if !rect.Whole(a.rows, a.cols).Contains(region) {
		return Window{}, fmt.Errorf("core: region %s outside %dx%d array %q", region, a.rows, a.cols, a.name)
	}
	t.Charge(costWindowOp)
	return Window{Owner: t.ID(), ArrayID: a.id, Region: region}, nil
}

// WholeWindow creates a window covering one of this task's arrays entirely.
func (t *Task) WholeWindow(a *Array) (Window, error) {
	return t.WindowOn(a, rect.Whole(a.rows, a.cols))
}

// RequestFileWindow returns a window on a file-resident array by name, owned
// by the file controller.
func (t *Task) RequestFileWindow(name string) (Window, error) {
	t.checkKilled()
	a, ok := t.vm.files.lookup(name)
	if !ok {
		return Window{}, fmt.Errorf("core: no file array named %q", name)
	}
	t.Charge(costWindowOp)
	return Window{Owner: t.vm.fileCtrl, ArrayID: a.id, Region: rect.Whole(a.rows, a.cols)}, nil
}

// resolveWindowArray finds the array a window points into.
func (vm *VM) resolveWindowArray(w Window) (*Array, error) {
	if w.Owner == vm.fileCtrl {
		if a, ok := vm.files.byIDLookup(w.ArrayID); ok {
			return a, nil
		}
		return nil, fmt.Errorf("core: window names unknown file array %d", w.ArrayID)
	}
	if a, ok := vm.arrays.get(w.Owner, w.ArrayID); ok {
		return a, nil
	}
	return nil, fmt.Errorf("core: window owner %s has no array %d (owner terminated?)", w.Owner, w.ArrayID)
}

// ReadWindow reads a copy of the subarray visible in the window ("If the
// subtask chooses to process the data, then it reads a copy of the data
// visible in the window into a local array").  The returned slice is in
// row-major order with w.Rows() x w.Cols() elements.
//
// In the FLEX implementation the read was performed by exchanging messages
// with the owning task; here the run-time performs the copy directly on the
// owner's storage while charging the same costs (a request header plus one
// packet per element transferred), so the storage and traffic accounting seen
// by experiments is the same.
func (t *Task) ReadWindow(w Window) ([]float64, error) {
	t.checkKilled()
	a, err := t.vm.resolveWindowArray(w)
	if err != nil {
		return nil, err
	}
	data, err := a.readRegion(w.Region)
	if err != nil {
		return nil, err
	}
	t.chargeWindowTransfer(w, len(data), "read")
	return data, nil
}

// WriteWindow writes data (row-major, matching the window's shape) into the
// subarray visible in the window.
func (t *Task) WriteWindow(w Window, data []float64) error {
	t.checkKilled()
	a, err := t.vm.resolveWindowArray(w)
	if err != nil {
		return err
	}
	if err := a.writeRegion(w.Region, data); err != nil {
		return err
	}
	t.chargeWindowTransfer(w, len(data), "write")
	return nil
}

// chargeWindowTransfer charges the simulated cost and traffic accounting of
// moving n elements through a window, and traces it as a message exchange
// with the owner.
func (t *Task) chargeWindowTransfer(w Window, n int, dir string) {
	t.Charge(int64(costSendHeader + costWindowElement*n))
	if t.vm.metricsOn() {
		m := t.vm.om.metrics()
		m.windowOps.Inc()
		m.windowBytes.Add(int64(8 * n))
	}
	if t.vm.om.reg.Watching(obs.MsgWindow) {
		t.vm.emit(&obs.Event{Kind: obs.MsgWindow, Task: obs.TaskRef(t.ID()), Peer: obs.TaskRef(w.Owner),
			Type: dir, Detail: w.Region.String(), A: int64(w.ArrayID), B: int64(n)}, t.rec.cluster.primary)
	}
}
