package core

import (
	"errors"
	"fmt"

	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// killSentinel is the panic value used to unwind a task that has been killed
// (KILL A TASK, run time limit, or VM shutdown).
type killSentinel struct{}

// encodedSize computes the shared-memory footprint of a message with the
// given arguments.
func encodedSize(args []Value) (int, error) { return msgcodec.EncodedSize(args) }

// Handler is a message handler subroutine: "A message type with a 'handler'
// is processed by a HANDLER subroutine before it is deleted from the
// in-queue ... Any arguments that arrive in the message are provided to the
// handler as arguments" (Section 6).
type Handler func(t *Task, msg *Message)

// Task is the run-time context handed to a tasktype body.  All Pisces Fortran
// statement forms (INITIATE, SEND, ACCEPT, FORCESPLIT, window operations) are
// methods on it.  A Task value must only be used from the goroutine running
// the task body (or, inside a force, through the ForceMember it is given).
type Task struct {
	vm  *VM
	rec *taskRec

	args       []Value
	lastSender TaskID
	// handlers holds the HANDLER declarations, made on the first one; a
	// type without one is a SIGNAL type, declared or not.
	handlers map[string]Handler

	// acc is the task's reusable ACCEPT matching state; accActive guards it
	// against re-entrant Accept calls from handlers or timeout callbacks.
	acc       acceptState
	accActive bool
	// accFree is the emptied AcceptResult RecycleAccept handed back, which
	// the next ACCEPT fills again; nil when there is none.
	accFree *AcceptResult

	// sendArgs is the argument scratch SendArgs lends out.
	sendArgs []Value

	arraySeq int32
}

func newTask(vm *VM, rec *taskRec, args []Value) *Task {
	return &Task{vm: vm, rec: rec, args: args}
}

// VM returns the virtual machine the task runs on.
func (t *Task) VM() *VM { return t.vm }

// ID returns this task's taskid ("SELF").
func (t *Task) ID() TaskID { return t.rec.id }

// Parent returns the taskid of the task that requested this task's
// initiation ("PARENT").  For top-level tasks it is the user controller.
func (t *Task) Parent() TaskID { return t.rec.parent }

// Sender returns the taskid of the sender of the last message accepted
// ("SENDER").
func (t *Task) Sender() TaskID { return t.lastSender }

// Cluster returns the number of the cluster the task runs in.
func (t *Task) Cluster() int { return t.rec.cluster.cfg.Number }

// TaskType returns the tasktype name the task was initiated as.
func (t *Task) TaskType() string { return t.rec.tasktype }

// Args returns the argument list passed in the INITIATE statement.
func (t *Task) Args() []Value { return t.args }

// Arg returns initiation argument i, or a zero Value if out of range.
func (t *Task) Arg(i int) Value {
	if i < 0 || i >= len(t.args) {
		return Value{}
	}
	return t.args[i]
}

// checkKilled unwinds the task if it has been killed.  Every run-time entry
// point calls it, so a kill takes effect at the task's next run-time call.
func (t *Task) checkKilled() {
	if t.rec.isKilled() {
		panic(killSentinel{})
	}
}

// Charge adds n ticks of simulated computation to the task's PE clock.
// Application bodies call it to model their compute phases so that
// simulated-time experiments see realistic interleavings.
func (t *Task) Charge(n int64) {
	t.checkKilled()
	if p := t.rec.getProc(); p != nil {
		p.Charge(n)
	}
}

// Yield releases the PE so other tasks multiprogrammed on it can run.
func (t *Task) Yield() {
	t.checkKilled()
	if p := t.rec.getProc(); p != nil {
		p.Yield()
	}
}

// Println sends a line of output to the user terminal by way of the user
// controller ("TO USER SEND ...").
func (t *Task) Println(args ...any) {
	t.SendUser("print", Str(fmt.Sprintln(args...)))
}

// Printf formats a line of output to the user terminal.
func (t *Task) Printf(format string, args ...any) {
	t.SendUser("print", Str(fmt.Sprintf(format, args...)))
}

// --- INITIATE -------------------------------------------------------------

// Initiate executes "ON <placement> INITIATE <tasktype>(<args>)".  The call
// is asynchronous: it sends an initiation request to the task controller of
// the placed cluster and returns as soon as the request is queued there.  The
// new task's id is not returned — as in the paper, the child learns its
// parent's id and typically reports back with a message, from which the
// parent captures the child's id via Sender.  Use InitiateWait when the
// initiator needs the id directly.
func (t *Task) Initiate(placement Placement, tasktype string, args ...Value) error {
	return t.initiate(placement, tasktype, args, nil)
}

// InitiateWait initiates a task and waits until the task controller has
// assigned it a slot, returning the new task's id.  This is a convenience
// extension over the paper's INITIATE; it blocks while the target cluster is
// full.
func (t *Task) InitiateWait(placement Placement, tasktype string, args ...Value) (TaskID, error) {
	reply := newInitReply(t.vm.backend)
	if err := t.initiate(placement, tasktype, args, reply); err != nil {
		return NilTask, err
	}
	// Block without holding the PE while the controller assigns a slot.
	var id TaskID
	t.blockFn(func() { id = reply.wait() })
	if id.IsNil() {
		return NilTask, ErrVMTerminated
	}
	return id, nil
}

func (t *Task) initiate(placement Placement, tasktype string, args []Value, reply *initReply) error {
	t.checkKilled()
	if _, ok := t.vm.taskType(tasktype); !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTaskType, tasktype)
	}
	sendSeq := t.nextSendSeq()
	cl, err := t.vm.placeCluster(placement, t.Cluster(), sendSeq)
	if err != nil {
		return err
	}
	t.Charge(costSendHeader)
	if _, _, err := t.vm.dispatch(t.rec.cluster, cl.controllerID, msgInitRequest, t.ID(), initRequestArgs(tasktype, t.ID(), args), sendSeq, reply); err != nil {
		return err
	}
	if t.vm.om.reg.Watching(obs.MsgInitiate) {
		t.vm.emit(&obs.Event{Kind: obs.MsgInitiate, Task: obs.TaskRef(t.ID()), Peer: obs.TaskRef(cl.controllerID),
			Type: tasktype, Detail: placement.String()}, t.rec.cluster.primary)
	}
	return nil
}

// --- SEND -----------------------------------------------------------------

// SendArgs lends the task's argument scratch: a zeroed list of n values for
// the next SEND (or broadcast) to fill and pass.  No message keeps the list
// it was sent with — SEND copies or encodes it on every route — so every call
// hands out the same storage, zeroing what the last caller wrote, and the
// list is the task's again as soon as the send returns.
func (t *Task) SendArgs(n int) []Value {
	if n == 0 {
		return nil
	}
	if cap(t.sendArgs) < n {
		t.sendArgs = make([]Value, n)
	}
	args := t.sendArgs[:n]
	clear(args)
	return args
}

// Send executes "TO <taskid> SEND <msgtype>(<args>)".
func (t *Task) Send(to TaskID, msgType string, args ...Value) error {
	t.checkKilled()
	return t.send(to, msgType, args, t.nextSendSeq())
}

// SendParent sends to the task's parent ("TO PARENT SEND ...").
func (t *Task) SendParent(msgType string, args ...Value) error {
	return t.Send(t.Parent(), msgType, args...)
}

// SendSelf sends a message to the task itself ("TO SELF SEND ...").
func (t *Task) SendSelf(msgType string, args ...Value) error {
	return t.Send(t.ID(), msgType, args...)
}

// SendSender replies to the sender of the last accepted message
// ("TO SENDER SEND ...").
func (t *Task) SendSender(msgType string, args ...Value) error {
	if t.lastSender.IsNil() {
		return fmt.Errorf("core: no message has been accepted yet, SENDER is undefined")
	}
	return t.Send(t.lastSender, msgType, args...)
}

// SendUser sends to the user at the terminal ("TO USER SEND ..."); the user
// controller writes printable arguments to the configured output.
func (t *Task) SendUser(msgType string, args ...Value) error {
	return t.Send(t.vm.userCtrl, msgType, args...)
}

// SendTaskController sends to the task controller of the given cluster
// ("TO TCONTR <cluster> SEND ...").
func (t *Task) SendTaskController(cluster int, msgType string, args ...Value) error {
	cl, ok := t.vm.cluster(cluster)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchCluster, cluster)
	}
	return t.Send(cl.controllerID, msgType, args...)
}

// Broadcast sends the message to every running user task in every cluster
// except the sender itself ("TO ALL SEND ...").
func (t *Task) Broadcast(msgType string, args ...Value) error {
	return t.broadcast(0, msgType, args)
}

// BroadcastCluster sends the message to every running user task in the given
// cluster, except the sender ("TO ALL CLUSTER <n> SEND ...").
func (t *Task) BroadcastCluster(cluster int, msgType string, args ...Value) error {
	if _, ok := t.vm.cluster(cluster); !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchCluster, cluster)
	}
	return t.broadcast(cluster, msgType, args)
}

func (t *Task) broadcast(cluster int, msgType string, args []Value) error {
	t.checkKilled()
	targets := t.vm.broadcastTargets(cluster, t.ID())
	// One send sequence number covers every copy of the broadcast: a replayed
	// broadcast regenerates one number, and each receiver's floor is per
	// (sender, receiver), so all copies dedup consistently.
	sendSeq := t.nextSendSeq()
	var firstErr error
	for _, rec := range targets {
		if err := t.send(rec.id, msgType, args, sendSeq); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Tasks hosted on other nodes are not in vm.tasks; ship them one
	// broadcast frame per node and let each receiver fan out locally.
	if t.vm.partial() && (cluster == 0 || !t.vm.hosts(cluster)) {
		if err := t.vm.routeBroadcast(t.rec.cluster, cluster, msgType, t.ID(), args, sendSeq); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// send is the task's half of one message send: the run-time dispatches the
// message (router.go), the task pays the send ticks and announces it.  A send
// that found no receiver because it re-executes a delivery that already
// happened (see haSendSuppressed) succeeds silently.
func (t *Task) send(to TaskID, msgType string, args []Value, sendSeq uint64) error {
	size, remote, err := t.vm.dispatch(t.rec.cluster, to, msgType, t.ID(), args, sendSeq, nil)
	if err != nil {
		if errors.Is(err, ErrNoSuchTask) && t.haSendSuppressed(to, sendSeq) {
			return nil
		}
		return err
	}
	t.Charge(int64(costSendHeader + costSendPacket*((size-msgcodec.HeaderBytes)/msgcodec.PacketBytes)))
	t.vm.msgsSent.Add(1)
	kind, nargs := obs.MsgSend, int64(len(args))
	if remote {
		kind, nargs = obs.MsgSendRemote, 0
	}
	if t.vm.om.reg.Watching(kind) {
		t.vm.emit(&obs.Event{Kind: kind, Task: obs.TaskRef(t.ID()), Peer: obs.TaskRef(to), Type: msgType, A: nargs, B: int64(size)}, t.rec.cluster.primary)
	}
	return nil
}

// blockFn releases the PE while wait runs; it also honours kills by
// re-checking the kill flag after waking.
func (t *Task) blockFn(wait func()) {
	p := t.rec.getProc()
	if p == nil {
		wait()
	} else {
		p.BlockFn(wait)
	}
	t.checkKilled()
}

// --- message declarations ---------------------------------------------------

// OnMessage declares a HANDLER for a message type: when a message of this
// type is accepted, the handler runs with the message (and thus its
// arguments) before the message is deleted from the in-queue.
func (t *Task) OnMessage(msgType string, h Handler) {
	if t.handlers == nil {
		t.handlers = make(map[string]Handler)
	}
	t.handlers[msgType] = h
}

// Signal declares a message type as a SIGNAL type: accepted messages of this
// type are simply counted and deleted.  Declaring a type neither way treats
// it as a signal by default.
func (t *Task) Signal(msgType string) { delete(t.handlers, msgType) }

// QueueLength returns the number of messages currently waiting in the task's
// in-queue.
func (t *Task) QueueLength() int { return t.rec.queue.len() }
