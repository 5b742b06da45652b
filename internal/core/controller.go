package core

import (
	"fmt"

	"repro/internal/mmos"
)

// Controller tasktype names, visible in the execution environment's displays.
const (
	TaskControllerType = "pisces.task-controller"
	UserControllerType = "pisces.user-controller"
	FileControllerType = "pisces.file-controller"
)

// startControllers spawns the operating system of the virtual machine: "The
// operating system is represented as a set of 'controller' tasks that run in
// slots in the clusters" (Section 5).  Every cluster gets a task controller;
// the terminal cluster also gets the user controller and the file controller.
func (vm *VM) startControllers() error {
	for _, n := range vm.clusterNumbers() {
		cl, _ := vm.cluster(n)
		ctrlID, err := vm.startController(cl, TaskControllerType, vm.taskControllerBody(cl))
		if err != nil {
			return err
		}
		cl.controllerID = ctrlID
		if cl.terminal {
			userID, err := vm.startController(cl, UserControllerType, vm.userControllerBody())
			if err != nil {
				return err
			}
			vm.userCtrl = userID
			fileID, err := vm.startController(cl, FileControllerType, vm.fileControllerBody())
			if err != nil {
				return err
			}
			vm.fileCtrl = fileID
			vm.files.owner = fileID
		}
	}
	return nil
}

// startController creates one controller task in a reserved slot of the
// cluster and spawns its process on the cluster's primary PE.
func (vm *VM) startController(cl *clusterRT, tasktype string, body func(*Task)) (TaskID, error) {
	rec := &taskRec{
		tasktype:     tasktype,
		cluster:      cl,
		isController: true,
		localBytes:   DefaultTaskLocalBytes,
	}
	rec.wake, rec.queue, rec.done = newTaskRecParts(vm.backend)
	if vm.ha {
		// Controllers are never replayed, but they need duplicate-suppression
		// floors: a replayed task regenerates its TO USER prints and INITIATE
		// requests, and the controller side must drop (or re-answer) them.
		rec.queue.ha = newTaskHA(false)
	}
	slot, err := cl.placeController(rec)
	if err != nil {
		return NilTask, err
	}
	rec.slot = slot
	rec.id = TaskID{Cluster: cl.cfg.Number, Slot: slot, Unique: vm.nextUnique()}
	rec.parent = rec.id // controllers are their own parents
	vm.registerTask(rec)

	ready := vm.backend.NewGate()
	procBody := func(p *mmos.Proc) {
		rec.setProc(p)
		ready.Open()
		defer vm.finishController(rec)
		ctx := newTask(vm, rec, nil)
		body(ctx)
	}
	if _, err := vm.kernel.Spawn(cl.primary, tasktype+"/"+rec.id.String(), rec.localBytes, procBody); err != nil {
		vm.unregisterTask(rec.id)
		cl.clearSlot(slot)
		return NilTask, fmt.Errorf("core: starting %s in cluster %d: %w", tasktype, cl.cfg.Number, err)
	}
	ready.Wait()
	return rec.id, nil
}

// finishController tears a controller down at shutdown.
func (vm *VM) finishController(rec *taskRec) {
	if r := recover(); r != nil {
		if _, isKill := r.(killSentinel); !isKill {
			vm.userPrintf("pisces: controller %s failed: %v\n", rec.id, r)
		}
	}
	for _, m := range rec.queue.close() {
		vm.dropMessage(m)
	}
	vm.unregisterTask(rec.id)
	rec.cluster.clearSlot(rec.slot)
	rec.done.Open()
}

// taskControllerBody is the body of a cluster's task controller, "responsible
// for initiating, terminating, and monitoring the operation of user tasks
// within their cluster" (Section 5).  It fields INITIATE requests, starting
// the task when a slot is free and holding the request otherwise.
func (vm *VM) taskControllerBody(cl *clusterRT) func(*Task) {
	return func(t *Task) {
		for {
			res, err := t.Accept(AcceptSpec{
				Total: 1,
				Types: []TypeCount{{Type: msgInitRequest}, {Type: msgTaskDone}, {Type: msgShutdown}},
				Delay: Forever,
			})
			if err != nil {
				return
			}
			if res.Count(msgShutdown) > 0 {
				return
			}
			for _, m := range res.ByType(msgInitRequest) {
				req, err := decodeInitRequest(m)
				if err != nil {
					vm.userPrintf("pisces: task controller %s: bad initiate request: %v\n", t.ID(), err)
					m.reply.deliver(NilTask)
					continue
				}
				if err := cl.request(req, t.rec.getProc()); err != nil {
					vm.userPrintf("pisces: task controller %s: %v\n", t.ID(), err)
				}
			}
			// The controller fully owns its accepted messages: a request
			// took the argument list it retains out of the header
			// (decodeInitRequest), so the messages go back to the pool.
			t.RecycleAccept(res)
		}
	}
}

// initRequestArgs packs the arguments of an initiate-request message:
// tasktype name, parent taskid, a reserved argument, then the user arguments.
func initRequestArgs(tasktype string, parent TaskID, args []Value) []Value {
	return append([]Value{Str(tasktype), ID(parent), {Kind: kindIntArray}}, args...)
}

// decodeInitRequest unpacks what initRequestArgs packed.  The user arguments
// become the new task's, which outlives the request: the message gives its
// list up for them (keepArgs).
func decodeInitRequest(m *Message) (pendingInit, error) {
	if m.NumArgs() < 3 {
		return pendingInit{}, fmt.Errorf("initiate request with %d arguments", m.NumArgs())
	}
	tasktype, err := AsStr(m.Arg(0))
	if err != nil {
		return pendingInit{}, err
	}
	parent, err := AsID(m.Arg(1))
	if err != nil {
		return pendingInit{}, err
	}
	return pendingInit{
		tasktype: tasktype,
		parent:   parent,
		args:     m.keepArgs()[3:],
		reply:    m.reply,
		key:      initKey{parent: parent, seq: m.sendSeq},
	}, nil
}

// userControllerBody is the body of the user controller, "responsible for
// control of communication with user terminals that are directly accessible
// from their cluster" (Section 5).  Messages sent TO USER are written to the
// configured output; "print" messages are written verbatim, any other type is
// shown with its type and arguments.
func (vm *VM) userControllerBody() func(*Task) {
	return func(t *Task) {
		printMsg := func(t *Task, m *Message) {
			if m.Type == "print" && m.NumArgs() == 1 {
				if s, err := AsStr(m.Arg(0)); err == nil {
					vm.userPrintf("%s", s)
					return
				}
			}
			vm.userPrintf("[%s -> USER] %s %s\n", m.Sender, m.Type, formatArgs(m.Args))
		}
		for {
			// The user controller fields whatever user tasks choose to send
			// TO USER, so it accepts any message type.
			res, err := t.Accept(AcceptSpec{
				Total: 1,
				Types: []TypeCount{{Type: AnyMessage}},
				Delay: Forever,
			})
			if err != nil {
				return
			}
			if res.Count(msgShutdown) > 0 {
				return
			}
			for _, m := range res.Accepted {
				switch m.Type {
				case msgShutdown:
				case msgUserSync:
					if m.sync != nil {
						m.sync.Open()
					}
				default:
					printMsg(t, m)
				}
			}
			t.RecycleAccept(res)
		}
	}
}

// formatArgs renders message arguments for terminal display.
func formatArgs(args []Value) string {
	out := "("
	for i, a := range args {
		if i > 0 {
			out += ", "
		}
		switch {
		case a.Kind == 0:
			out += "?"
		default:
			out += formatValue(a)
		}
	}
	return out + ")"
}

func formatValue(v Value) string {
	switch v.Kind {
	case kindInteger:
		return fmt.Sprintf("%d", v.Integer())
	case kindReal:
		return fmt.Sprintf("%g", v.Real())
	case kindLogical:
		return fmt.Sprintf("%v", v.Logical())
	case kindCharacter:
		return fmt.Sprintf("%q", v.Character())
	case kindTaskID:
		return taskIDFromCodec(v.TaskID()).String()
	case kindWindow:
		w := v.Window()
		return fmt.Sprintf("WINDOW(owner=%s array=%d)", taskIDFromCodec(w.Owner), w.ArrayID)
	case kindIntArray:
		return fmt.Sprintf("INTEGER[%d]", len(v.IntArray()))
	case kindRealArray:
		return fmt.Sprintf("REAL[%d]", len(v.RealArray))
	}
	return "?"
}

// fileControllerBody is the body of the file controller, "responsible for
// control of access to the files on disks directly accessible from their
// cluster" (Section 5).  It owns the file-resident arrays created through
// VM.CreateFileArray and services window read and write requests on them; the
// run-time routes those requests through vm.files, so the controller's
// message loop only needs to stay alive (and answer directory queries) until
// shutdown.
func (vm *VM) fileControllerBody() func(*Task) {
	return func(t *Task) {
		for {
			res, err := t.Accept(AcceptSpec{
				Total: 1,
				Types: []TypeCount{{Type: "directory"}, {Type: msgShutdown}},
				Delay: Forever,
			})
			if err != nil {
				return
			}
			if res.Count(msgShutdown) > 0 {
				return
			}
			if len(res.ByType("directory")) > 0 {
				_ = t.SendSender("directory-reply", Str(fmt.Sprintf("%v", vm.files.names())))
			}
			t.RecycleAccept(res)
		}
	}
}
