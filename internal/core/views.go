package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/flex"
	"repro/internal/obs"
)

// TaskInfo describes one running task for the DISPLAY RUNNING TASKS view.
type TaskInfo struct {
	ID         TaskID
	TaskType   string
	Parent     TaskID
	Cluster    int
	Slot       int
	PE         int
	State      string
	QueueLen   int
	Controller bool
}

// RunningTasks returns the tasks currently occupying slots, controllers
// included, ordered by cluster then slot.
func (vm *VM) RunningTasks() []TaskInfo {
	vm.mu.Lock()
	recs := make([]*taskRec, 0, len(vm.tasks))
	for _, rec := range vm.tasks {
		recs = append(recs, rec)
	}
	vm.mu.Unlock()

	out := make([]TaskInfo, 0, len(recs))
	for _, rec := range recs {
		info := TaskInfo{
			ID:         rec.id,
			TaskType:   rec.tasktype,
			Parent:     rec.parent,
			Cluster:    rec.cluster.cfg.Number,
			Slot:       rec.slot,
			PE:         rec.cluster.primary.ID(),
			QueueLen:   rec.queue.len(),
			Controller: rec.isController,
		}
		if p := rec.getProc(); p != nil {
			info.State = p.State().String()
		} else {
			info.State = "STARTING"
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cluster != out[j].Cluster {
			return out[i].Cluster < out[j].Cluster
		}
		return out[i].Slot < out[j].Slot
	})
	return out
}

// Kill terminates a task (menu option "KILL A TASK").  The task unwinds at
// its next run-time call or as soon as it wakes from an ACCEPT wait;
// controllers cannot be killed.
func (vm *VM) Kill(id TaskID) error {
	rec, ok := vm.lookupTask(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTask, id)
	}
	if rec.isController {
		return fmt.Errorf("core: %s is a controller task and cannot be killed", id)
	}
	vm.emit(&obs.Event{Kind: obs.Kill, A: int64(id.Cluster), B: int64(id.Slot)}, nil)
	rec.kill()
	return nil
}

// SendFromUser sends a message to a task on behalf of the user at the
// terminal (menu option "SEND A MESSAGE").  The sender appears as the user
// controller.
func (vm *VM) SendFromUser(to TaskID, msgType string, args ...Value) error {
	if vm.terminated() {
		return ErrVMTerminated
	}
	if _, _, err := vm.dispatch(nil, to, msgType, vm.userCtrl, args, 0, nil); err != nil {
		return err
	}
	vm.msgsSent.Add(1)
	return nil
}

// QueuedMessage describes one waiting message for the DISPLAY MESSAGE QUEUE
// view.
type QueuedMessage struct {
	Type   string
	Sender TaskID
	Args   int
	Bytes  int
}

// MessageQueue returns the messages waiting in a task's in-queue, oldest
// first.
func (vm *VM) MessageQueue(id TaskID) ([]QueuedMessage, error) {
	rec, ok := vm.lookupTask(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTask, id)
	}
	msgs := rec.queue.snapshot()
	out := make([]QueuedMessage, len(msgs))
	for i := range msgs {
		m := &msgs[i]
		out[i] = QueuedMessage{Type: m.Type, Sender: m.Sender, Args: len(m.Args), Bytes: m.heapBytes}
	}
	return out, nil
}

// DeleteMessages removes waiting messages of the given type from a task's
// in-queue (menu option "DELETE MESSAGES"); an empty type removes every
// waiting message.  It returns the number of messages removed; their
// shared-memory storage is recovered.
func (vm *VM) DeleteMessages(id TaskID, msgType string) (int, error) {
	rec, ok := vm.lookupTask(id)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchTask, id)
	}
	removed := rec.queue.removeType(msgType)
	for _, m := range removed {
		vm.dropMessage(m)
	}
	return len(removed), nil
}

// PELoad describes one processor for the DISPLAY PE LOADING view.
type PELoad struct {
	PE           int
	Unix         bool
	BoundProcs   int
	Ticks        int64
	LocalUsed    int
	LocalHigh    int
	LocalTotal   int
	MaxMultiprog int // configuration bound from Section 9's arithmetic
}

// PELoading returns per-PE loading information.
func (vm *VM) PELoading() []PELoad {
	out := make([]PELoad, 0, vm.machine.NumPE())
	for n := 1; n <= vm.machine.NumPE(); n++ {
		pe := vm.machine.PE(n)
		used, high, total := pe.LocalStats()
		out = append(out, PELoad{
			PE:           n,
			Unix:         pe.IsUnix(),
			BoundProcs:   pe.BoundProcs(),
			Ticks:        pe.Ticks(),
			LocalUsed:    used,
			LocalHigh:    high,
			LocalTotal:   total,
			MaxMultiprog: vm.cfg.MaxMultiprogramming(n),
		})
	}
	return out
}

// ClusterInfo describes one cluster for displays and the Figure 1 rendering.
type ClusterInfo struct {
	Number        int
	PrimaryPE     int
	SecondaryPEs  []int
	Slots         int // user slots
	ReservedSlots int // controller slots preceding the user slots
	FreeSlots     int
	Pending       int
	Occupants     map[int]string // slot index -> tasktype (controllers included)
}

// Clusters returns per-cluster occupancy information.
func (vm *VM) Clusters() []ClusterInfo {
	var out []ClusterInfo
	for _, n := range vm.clusterNumbers() {
		cl, _ := vm.cluster(n)
		occ := make(map[int]string)
		for slot, rec := range cl.occupiedSlots() {
			if rec == reservedMarker {
				occ[slot] = "<starting>"
			} else {
				occ[slot] = rec.tasktype
			}
		}
		out = append(out, ClusterInfo{
			Number:        n,
			PrimaryPE:     cl.cfg.PrimaryPE,
			SecondaryPEs:  append([]int(nil), cl.cfg.SecondaryPEs...),
			Slots:         cl.cfg.Slots,
			ReservedSlots: cl.userLo,
			FreeSlots:     cl.freeSlots(),
			Pending:       cl.pendingCount(),
			Occupants:     occ,
		})
	}
	return out
}

// DumpState writes the DUMP SYSTEM STATE view: clusters, slots, running
// tasks, message queues, PE loading, and shared-memory usage.
func (vm *VM) DumpState(w io.Writer) {
	fmt.Fprintf(w, "PISCES 2 system state dump\n")
	fmt.Fprintf(w, "configuration: %s", vm.cfg.String())

	fmt.Fprintf(w, "\nclusters:\n")
	for _, ci := range vm.Clusters() {
		fmt.Fprintf(w, "  cluster %d  primary PE %d  user slots %d (%d free, %d pending)\n",
			ci.Number, ci.PrimaryPE, ci.Slots, ci.FreeSlots, ci.Pending)
		slots := make([]int, 0, len(ci.Occupants))
		for s := range ci.Occupants {
			slots = append(slots, s)
		}
		sort.Ints(slots)
		for _, s := range slots {
			fmt.Fprintf(w, "    slot %-2d %s\n", s, ci.Occupants[s])
		}
	}

	fmt.Fprintf(w, "\nrunning tasks:\n")
	for _, ti := range vm.RunningTasks() {
		kind := "user"
		if ti.Controller {
			kind = "controller"
		}
		fmt.Fprintf(w, "  %-12s %-26s %-10s pe=%-2d state=%-8s queued=%d\n",
			ti.ID, ti.TaskType, kind, ti.PE, ti.State, ti.QueueLen)
	}

	fmt.Fprintf(w, "\nPE loading:\n")
	for _, pl := range vm.PELoading() {
		if pl.Unix {
			fmt.Fprintf(w, "  PE %-2d unix front-end\n", pl.PE)
			continue
		}
		if pl.BoundProcs == 0 && pl.Ticks == 0 && pl.MaxMultiprog == 0 {
			continue
		}
		fmt.Fprintf(w, "  PE %-2d procs=%-2d ticks=%-10d local=%d/%d max-multiprog=%d\n",
			pl.PE, pl.BoundProcs, pl.Ticks, pl.LocalUsed, pl.LocalTotal, pl.MaxMultiprog)
	}

	u := vm.machine.Shared().Usage()
	fmt.Fprintf(w, "\nshared memory: tables %d/%d bytes (%.3f%%), heap %d in use (high %d), common %d/%d\n",
		u.TableUsed, u.TableTotal, u.TablePercent(), u.HeapInUse, u.HeapHighWater, u.CommonUsed, u.CommonTotal)

	st := vm.Stats()
	fmt.Fprintf(w, "activity: %d tasks initiated, %d completed, %d messages sent, %d accepted\n",
		st.TasksInitiated, st.TasksCompleted, st.MessagesSent, st.MessagesAccepted)
}

// RenderFigure1 renders the virtual-machine organisation diagram of Figure 1
// of the paper from the live system state: each cluster with its slots and
// their occupants (task controller, user controller, user tasks, free slots),
// joined by the message-passing network.
func (vm *VM) RenderFigure1(w io.Writer) {
	fmt.Fprintln(w, "PISCES 2 VIRTUAL MACHINE ORGANIZATION")
	fmt.Fprintln(w, strings.Repeat("=", 60))
	for _, ci := range vm.Clusters() {
		fmt.Fprintf(w, "CLUSTER %d (primary PE %d)\n", ci.Number, ci.PrimaryPE)
		fmt.Fprintln(w, "  Slots")
		for s := 0; s < ci.ReservedSlots+ci.Slots; s++ {
			label, ok := ci.Occupants[s]
			switch {
			case ok && isControllerName(label):
				fmt.Fprintf(w, "  | %-22s | <-- intra-cluster network\n", controllerLabel(label))
			case ok:
				fmt.Fprintf(w, "  | User task: %-11s|\n", label)
			default:
				fmt.Fprintf(w, "  | %-22s |\n", "<not in use>")
			}
		}
		if len(ci.SecondaryPEs) > 0 {
			fmt.Fprintf(w, "  force PEs: %v\n", ci.SecondaryPEs)
		}
		fmt.Fprintln(w, "        |")
	}
	fmt.Fprintln(w, "  Message-passing network connects all clusters")
}

func isControllerName(name string) bool {
	return strings.HasPrefix(name, "pisces.")
}

func controllerLabel(tasktype string) string {
	switch tasktype {
	case TaskControllerType:
		return "Task controller"
	case UserControllerType:
		return "User controller"
	case FileControllerType:
		return "File controller"
	}
	return tasktype
}

// SystemStorage reports the storage-overhead quantities of Section 13.
type SystemStorage struct {
	// SystemLocalBytesPerPE is the PISCES system code+data charged to each
	// used PE's local memory, and LocalPercent its share of that memory.
	SystemLocalBytesPerPE int
	LocalPercent          float64
	// TableBytes is the shared-memory system-table allocation, and
	// TablePercent its share of total shared memory.
	TableBytes   int
	TablePercent float64
	// Shared is the full shared-memory usage snapshot (message heap, SHARED
	// COMMON, tables).
	Shared flex.Usage
}

// SystemStorage returns the Section 13 storage-overhead measurements for this
// VM.
func (vm *VM) SystemStorage() SystemStorage {
	u := vm.machine.Shared().Usage()
	return SystemStorage{
		SystemLocalBytesPerPE: DefaultSystemLocalBytes,
		LocalPercent:          100 * float64(DefaultSystemLocalBytes) / float64(vm.machine.Config().LocalBytes),
		TableBytes:            vm.tableBytes,
		TablePercent:          100 * float64(vm.tableBytes) / float64(u.Total),
		Shared:                u,
	}
}
