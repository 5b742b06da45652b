package pfi

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/pfc"
)

// ctlKind is the control-flow outcome of executing a statement sequence.
type ctlKind int

const (
	ctlNext   ctlKind = iota
	ctlGoto           // transfer to a statement label (propagates outward until found)
	ctlStop           // STOP: terminate the task
	ctlReturn         // RETURN/END: terminate the task body normally
)

type ctl struct {
	kind  ctlKind
	label string
}

var ctlOK = ctl{kind: ctlNext}

// lockTable is the task-level LOCK variable registry, shared by every member
// of the task's forces.
type lockTable struct {
	mu     sync.Mutex
	byName map[string]*core.Lock
}

// get returns the named lock, creating it on first use.
func (lt *lockTable) get(t *core.Task, name string) (*core.Lock, error) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if l, ok := lt.byName[name]; ok {
		return l, nil
	}
	l, err := t.NewLock(name)
	if err != nil {
		return nil, err
	}
	lt.byName[name] = l
	return l, nil
}

// stickyErr collects the first error raised inside a FORCESPLIT region.
// Inside a region, a failing statement is recorded and skipped rather than
// aborting the member: an aborting member would desert the force and leave
// the others waiting forever at the next BARRIER, turning a reportable error
// into a deadlock.  Skipping one statement keeps every member aligned on the
// region's collective operations, and the recorded error fails the task once
// the force has joined.
type stickyErr struct {
	mu  sync.Mutex
	err error
}

func (s *stickyErr) record(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *stickyErr) get() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// execState is the execution context of one task (or one force member of a
// task): the frame, the optional member handle, and the most recent ACCEPT
// result for the MSG* intrinsics.
type execState struct {
	p          *Program
	tp         *taskProgram
	t          *core.Task
	m          *core.ForceMember
	f          *frame
	locks      *lockTable
	lastAccept *core.AcceptResult
	forceSize  int              // cached cluster force size; 0 = not yet computed
	sticky     *stickyErr       // non-nil inside a FORCESPLIT region
	argv       []value          // intrinsic argument stack, reused across calls
	specTypes  []core.TypeCount // acceptSpec's type list, reused across ACCEPTs
	// yield makes every statement boundary a scheduling point.  It is set
	// only under a deterministic backend, where per-statement yields let the
	// seeded scheduler explore statement-level interleavings; the goroutine
	// backend keeps its statement loop free of per-statement CPU churn.
	yield bool
	// obsReg/obsStmt are set at task start only when metrics are enabled, so
	// the statement loop pays a nil check per statement when they are off
	// (the enable mask is sampled once per task, like yield).
	obsReg  *obs.Registry
	obsStmt *obs.Histogram
}

// schedPoint offers the deterministic scheduler a chance to interleave
// another task between two interpreted statements.
func (st *execState) schedPoint() {
	if !st.yield {
		return
	}
	if st.m != nil {
		st.m.Yield()
	} else {
		st.t.Yield()
	}
}

// requirePrimary guards message and terminal operations inside a force
// region: only the primary member owns the task's message machinery.
func (st *execState) requirePrimary(op string) error {
	if st.m != nil && !st.m.IsPrimary() {
		return fmt.Errorf("%s inside a FORCESPLIT region is limited to the primary member (use a BARRIER body)", op)
	}
	return nil
}

// execSeq executes a compiled statement sequence, resolving GOTOs whose
// target label is in this sequence and propagating every other control
// transfer outward.  Inside a force region (sticky mode) a failing statement
// is recorded and skipped so the member stays aligned on the region's
// collectives.
func (st *execState) execSeq(ns []cstmt) (ctl, error) {
	pc := 0
	for pc < len(ns) {
		s := &ns[pc]
		st.p.cs.statements.Inc()
		st.schedPoint()
		var c ctl
		var err error
		if st.obsStmt != nil {
			t0 := st.obsReg.Now()
			c, err = s.run(st)
			st.obsStmt.ObserveDuration(st.obsReg.Now().Sub(t0))
		} else {
			c, err = s.run(st)
		}
		if err != nil {
			if s.line > 0 {
				if _, ok := err.(*Error); !ok {
					err = &Error{Line: s.line, Msg: err.Error()}
				}
			}
			if st.sticky != nil {
				st.sticky.record(st.memberErr(err))
				if st.m != nil && s.collective {
					// Skipping a statement that contains collective
					// operations would strand the other members at them;
					// degrade the whole force's synchronisation instead.
					st.m.Abort()
				}
				pc++
				continue
			}
			return ctl{}, err
		}
		switch c.kind {
		case ctlNext:
			pc++
		case ctlGoto:
			if i, ok := findLabel(ns, c.label); ok {
				pc = i
				continue
			}
			return c, nil
		default:
			return c, nil
		}
	}
	return ctlOK, nil
}

// memberErr stamps an error with the force-member number when raised inside
// a region.
func (st *execState) memberErr(err error) error {
	if st.m != nil {
		return fmt.Errorf("force member %d: %w", st.m.Member()+1, err)
	}
	return err
}

func findLabel(ns []cstmt, label string) (int, bool) {
	for i := range ns {
		if ns[i].label == label {
			return i, true
		}
	}
	return 0, false
}

// --- ordinary statements -----------------------------------------------------

func (st *execState) execDo(d *cdo) (ctl, error) {
	lo, hi, step, err := st.loopBounds(d.lo, d.hi, d.step)
	if err != nil {
		return ctl{}, err
	}
	var brk ctl
	var bodyErr error
	err = loops.ForEach(lo, hi, step, func(i int) bool {
		st.p.cs.loopIterations.Inc()
		if e := d.store(st, intVal(int64(i))); e != nil {
			bodyErr = e
			return false
		}
		c, e := st.execSeq(d.body)
		if e != nil {
			bodyErr = e
			return false
		}
		if c.kind != ctlNext {
			brk = c
			return false
		}
		return true
	})
	if err != nil {
		return ctl{}, err
	}
	if bodyErr != nil {
		return ctl{}, bodyErr
	}
	if brk.kind != ctlNext {
		return brk, nil
	}
	return ctlOK, nil
}

func (st *execState) loopBounds(lo, hi, step cexpr) (l, h, s int, err error) {
	lv, err := st.evalInt(lo)
	if err != nil {
		return 0, 0, 0, err
	}
	hv, err := st.evalInt(hi)
	if err != nil {
		return 0, 0, 0, err
	}
	sv, err := st.evalInt(step)
	if err != nil {
		return 0, 0, 0, err
	}
	return int(lv), int(hv), int(sv), nil
}

func (st *execState) execPrint(items []cexpr) error {
	if err := st.requirePrimary("PRINT"); err != nil {
		return err
	}
	var sb strings.Builder
	for i, e := range items {
		v, err := e(st)
		if err != nil {
			return err
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(v.format())
	}
	st.p.cs.prints.Inc()
	return st.printLine(sb.String())
}

// printLine sends one line of output to the user terminal by way of the user
// controller, as "TO USER SEND" does.
func (st *execState) printLine(line string) error {
	return st.t.SendUser("print", core.Str(line+"\n"))
}

func (st *execState) execDecl(items []cdeclItem) error {
	for i := range items {
		d := &items[i]
		b := &st.f.slots[d.slot]
		if len(d.dims) == 0 {
			b.kind = d.kind
			if c := b.cell; c != nil {
				cv, err := convert(c.load(), d.kind)
				if err != nil {
					return fmt.Errorf("%s: %v", d.name, err)
				}
				c.store(cv)
				continue
			}
			if b.v.kind != kNone {
				cv, err := convert(b.v, d.kind)
				if err != nil {
					return fmt.Errorf("%s: %v", d.name, err)
				}
				b.v = cv
				continue
			}
			if d.kind == kWindow {
				// A WINDOW declaration defines the zero window: the run-time
				// already treats a never-assigned WINDOW as zero (see
				// value.windowPayload), and programs have no other way to
				// manufacture a window value, so reading one before its first
				// assignment must not be a use-before-set error.
				b.v = value{kind: kWindow}
			}
			continue
		}
		rows, cols, n, err := st.arrayExtents(d)
		if err != nil {
			return err
		}
		if a := b.arr; a != nil {
			// Re-declaration (typing a SHARED COMMON array, or the required
			// declaration of an array-valued tasktype parameter): re-kind and
			// reshape the existing storage in place, preserving its values in
			// Fortran storage order, so every sharer sees the change and
			// INITIATE-passed data survives — including 1-D message arrays
			// bound to parameters declared two-dimensional.
			if len(a.data) != n {
				return fmt.Errorf("array %s re-declared with conflicting extents", d.name)
			}
			for i := range a.data {
				cv, err := convert(a.data[i], d.kind)
				if err != nil {
					return fmt.Errorf("%s: %v", d.name, err)
				}
				a.data[i] = cv
			}
			a.kind = d.kind
			a.rows, a.cols = rows, cols
			continue
		}
		b.arr = newArray(d.kind, rows, cols)
	}
	return nil
}

// arrayExtents evaluates a declaration's one or two extents and returns them
// with the element count they give, refusing an array over maxArrayElems.
// Each extent is held to the cap before it is multiplied in, so the product
// of two accepted extents (below 2**44) cannot overflow.
func (st *execState) arrayExtents(d *cdeclItem) (rows, cols, n int, err error) {
	var ext [2]int64
	elems := int64(1)
	for i, dim := range d.dims {
		e, err := st.evalInt(dim)
		if err != nil {
			return 0, 0, 0, err
		}
		if e < 1 {
			return 0, 0, 0, fmt.Errorf("array %s has non-positive extent %d", d.name, e)
		}
		if e > maxArrayElems || elems*e > maxArrayElems {
			return 0, 0, 0, fmt.Errorf("array %s has more than %d elements (extent %d)", d.name, maxArrayElems, e)
		}
		ext[i] = e
		elems *= e
	}
	return int(ext[0]), int(ext[1]), int(elems), nil
}

// --- Pisces statements -------------------------------------------------------

func (st *execState) execInitiate(c *cinitiate) error {
	if err := st.requirePrimary("INITIATE"); err != nil {
		return err
	}
	var placement core.Placement
	switch c.placement {
	case pfc.PlaceAny:
		placement = core.Any()
	case pfc.PlaceOther:
		placement = core.Other()
	case pfc.PlaceSame:
		placement = core.Same()
	case pfc.PlaceCluster:
		cl, err := st.evalInt(c.where)
		if err != nil {
			return err
		}
		placement = core.OnCluster(int(cl))
	}
	args := st.t.SendArgs(len(c.args))
	if err := st.evalSendArgs(c.args, args); err != nil {
		return err
	}
	st.p.cs.initiates.Inc()
	return st.t.Initiate(placement, c.tasktype, args...)
}

func (st *execState) execSend(c *csend) error {
	if err := st.requirePrimary("SEND"); err != nil {
		return err
	}
	args := st.t.SendArgs(len(c.args))
	if err := st.evalSendArgs(c.args, args); err != nil {
		return err
	}
	st.p.cs.sends.Inc()
	switch c.dest {
	case pfc.DestParent:
		return st.t.SendParent(c.msgType, args...)
	case pfc.DestSelf:
		return st.t.SendSelf(c.msgType, args...)
	case pfc.DestSender:
		return st.t.SendSender(c.msgType, args...)
	case pfc.DestUser:
		return st.t.SendUser(c.msgType, args...)
	case pfc.DestAll:
		return st.t.Broadcast(c.msgType, args...)
	case pfc.DestAllCluster:
		cl, err := st.evalInt(c.where)
		if err != nil {
			return err
		}
		return st.t.BroadcastCluster(int(cl), c.msgType, args...)
	case pfc.DestTContr:
		cl, err := st.evalInt(c.where)
		if err != nil {
			return err
		}
		return st.t.SendTaskController(int(cl), c.msgType, args...)
	default:
		v, err := c.where(st)
		if err != nil {
			return err
		}
		if v.kind != kTaskID {
			return fmt.Errorf("SEND destination is %s, not a TASKID", v.kind)
		}
		return st.t.Send(v.id(), c.msgType, args...)
	}
}

func (st *execState) execAccept(a *caccept) (ctl, error) {
	if err := st.requirePrimary("ACCEPT"); err != nil {
		return ctl{}, err
	}
	spec, err := st.acceptSpec(a)
	if err != nil {
		return ctl{}, err
	}
	res, err := st.t.Accept(spec)
	if err != nil {
		return ctl{}, err
	}
	if old := st.lastAccept; old != nil && old != res && st.m == nil && st.sticky == nil {
		// Outside any force region the interpreter is the sole owner of the
		// previous result; its message headers go back to the run-time pool.
		st.t.RecycleAccept(old)
	}
	st.lastAccept = res
	st.p.cs.accepts.Inc()
	if res.TimedOut {
		st.p.cs.acceptTimeouts.Inc()
		// The DELAY ... THEN sequence runs with the ACCEPT's result already
		// installed, so TIMEDOUT(), NMSG, and MSG* reflect this ACCEPT.
		if len(a.onTimeout) > 0 {
			return st.execSeq(a.onTimeout)
		}
	}
	return ctlOK, nil
}

// forceMembers returns the force size of the task's cluster (1 + the
// cluster's secondary PEs), computed once per task: Configuration() clones
// the whole mapping, too costly to repeat on every FORCESPLIT.
func (st *execState) forceMembers() int {
	if st.forceSize == 0 {
		st.forceSize = 1
		cfg := st.t.VM().Configuration()
		if cl := cfg.Cluster(st.t.Cluster()); cl != nil {
			st.forceSize = cl.ForceSize()
		}
	}
	return st.forceSize
}

func (st *execState) execForce(body []cstmt) (ctl, error) {
	if st.m != nil {
		return ctl{}, fmt.Errorf("nested FORCESPLIT")
	}
	st.p.cs.forceSplits.Inc()
	// Pre-copy the secondary members' frames so no member reads the primary's
	// frame while the primary is already executing the region.
	members := st.forceMembers()
	frames := make([]*frame, members)
	for i := 1; i < members; i++ {
		frames[i] = st.f.copyForMember()
	}
	sticky := &stickyErr{}
	// Captured once before the split: every member reads the same pre-split
	// ACCEPT result (MSG*/NMSG/TIMEDOUT intrinsics), so region control flow
	// that depends on it stays identical across the force.  The primary's
	// post-region result is written back only after ForceSplit has joined.
	preAccept := st.lastAccept
	primAccept := preAccept
	err := st.t.ForceSplit(func(m *core.ForceMember) {
		sub := &execState{p: st.p, tp: st.tp, t: st.t, m: m, locks: st.locks,
			sticky: sticky, lastAccept: preAccept, yield: st.yield,
			obsReg: st.obsReg, obsStmt: st.obsStmt}
		if m.IsPrimary() {
			sub.f = st.f
		} else {
			sub.f = frames[m.Member()]
		}
		c, _ := sub.execSeq(body) // statement errors are in sticky
		if m.IsPrimary() {
			primAccept = sub.lastAccept
		}
		// A control transfer out of the region deserts the force — the other
		// members would wait forever at their next barrier — so it is an
		// error for every member, the primary included.
		switch c.kind {
		case ctlGoto:
			sticky.record(sub.memberErr(fmt.Errorf("GOTO %s escapes the FORCESPLIT region", c.label)))
		case ctlStop, ctlReturn:
			sticky.record(sub.memberErr(fmt.Errorf("STOP/RETURN inside a FORCESPLIT region would desert the force")))
		}
	})
	if err != nil {
		return ctl{}, err
	}
	// The primary continues as the task after the force: state it changed in
	// the region (its latest ACCEPT) must survive.
	st.lastAccept = primAccept
	if err := sticky.get(); err != nil {
		return ctl{}, err
	}
	return ctlOK, nil
}

func (st *execState) execBarrier(body []cstmt) (ctl, error) {
	st.p.cs.barriers.Inc()
	if st.m == nil {
		return st.execSeq(body)
	}
	var c ctl
	var err error
	st.m.Barrier(func() { c, err = st.execSeq(body) })
	if err != nil {
		return ctl{}, err
	}
	if c.kind != ctlNext {
		// The body ran on the primary only; transferring control out of it
		// would take the primary somewhere the other members are not going.
		return ctl{}, fmt.Errorf("control transfer out of a BARRIER body is not allowed")
	}
	return ctlOK, nil
}

func (st *execState) execCritical(name string, body []cstmt) (ctl, error) {
	st.p.cs.criticals.Inc()
	if st.m == nil {
		// Outside a force the task is the only possible holder; the body runs
		// directly.
		return st.execSeq(body)
	}
	l, err := st.locks.get(st.t, name)
	if err != nil {
		return ctl{}, err
	}
	var c ctl
	var bodyErr error
	st.m.Critical(l, func() { c, bodyErr = st.execSeq(body) })
	if bodyErr != nil {
		return ctl{}, bodyErr
	}
	return c, nil
}

func (st *execState) execScheduledDo(d *csched) (ctl, error) {
	lo, hi, step, err := st.loopBounds(d.lo, d.hi, d.step)
	if err != nil {
		// execSeq's sticky handler aborts the force for us: this node is a
		// collective the member cannot execute.
		return ctl{}, err
	}
	var brk ctl
	var bodyErr error
	aborted := false
	iter := func(i int) {
		if aborted {
			return
		}
		st.p.cs.loopIterations.Inc()
		if e := d.store(st, intVal(int64(i))); e != nil {
			bodyErr, aborted = e, true
			return
		}
		c, e := st.execSeq(d.body)
		if e != nil {
			bodyErr, aborted = e, true
			return
		}
		if c.kind != ctlNext {
			brk, aborted = c, true
		}
	}
	if st.m != nil {
		if !d.selfsched {
			err = st.m.Presched(lo, hi, step, iter)
		} else {
			_, err = st.m.Selfsched(lo, hi, step, iter)
		}
	} else {
		// Outside a force the scheduled loop degenerates to the whole
		// iteration space, exactly as a one-member force would run it.
		err = loops.ForEach(lo, hi, step, func(i int) bool {
			iter(i)
			return !aborted
		})
	}
	if err != nil {
		return ctl{}, err
	}
	if bodyErr != nil {
		return ctl{}, bodyErr
	}
	if brk.kind != ctlNext {
		if st.m != nil {
			// The transfer fired on one member's iteration only; following it
			// would diverge this member from the rest of the force.
			return ctl{}, fmt.Errorf("control transfer out of a scheduled DO loop is not allowed inside a force")
		}
		return brk, nil
	}
	return ctlOK, nil
}

func (st *execState) execParseg(segments [][]cstmt) (ctl, error) {
	var brk ctl
	var bodyErr error
	aborted := false
	run := func(seg []cstmt) {
		if aborted {
			return
		}
		c, e := st.execSeq(seg)
		if e != nil {
			bodyErr, aborted = e, true
			return
		}
		if c.kind != ctlNext {
			brk, aborted = c, true
		}
	}
	if st.m != nil {
		fns := make([]func(), len(segments))
		for i, seg := range segments {
			seg := seg
			fns[i] = func() { run(seg) }
		}
		if err := st.m.Parseg(fns...); err != nil {
			return ctl{}, err
		}
	} else {
		for _, seg := range segments {
			run(seg)
		}
	}
	if bodyErr != nil {
		return ctl{}, bodyErr
	}
	if brk.kind != ctlNext {
		if st.m != nil {
			// The transfer fired in one member's segment only.
			return ctl{}, fmt.Errorf("control transfer out of a PARSEG segment is not allowed inside a force")
		}
		return brk, nil
	}
	return ctlOK, nil
}

// execSharedCommon declares the block's variables as shared storage: arrays
// become frame arrays (shared by reference between members), scalars become
// mutex-protected shared cells.  Each is charged to the FLEX/32 SHARED
// COMMON region when it is made, so a re-executed declaration charges
// nothing more.
func (st *execState) execSharedCommon(blockName string, items []cdeclItem) error {
	if st.m != nil {
		// Member frames were copied at the split; storage created now would be
		// member-private, silently breaking the block's sharing semantics.
		return fmt.Errorf("SHARED COMMON /%s/ must be declared before FORCESPLIT", blockName)
	}
	for i := range items {
		d := &items[i]
		b := &st.f.slots[d.slot]
		if len(d.dims) > 0 {
			if b.arr != nil {
				continue // already declared (re-execution or prior typing)
			}
			kind := d.kind
			if b.kind != kNone {
				kind = b.kind
			}
			rows, cols, n, err := st.arrayExtents(d)
			if err != nil {
				return err
			}
			if err := st.t.ChargeSharedCommon(blockName, n); err != nil {
				return err
			}
			b.arr = newArray(kind, rows, cols)
			continue
		}
		if b.cell != nil {
			continue
		}
		if err := st.t.ChargeSharedCommon(blockName, 1); err != nil {
			return err
		}
		kind := st.f.declaredKind(d.slot)
		cell := &sharedCell{v: zeroVal(kind)}
		if b.v.kind != kNone {
			cv, err := convert(b.v, kind)
			if err != nil {
				return fmt.Errorf("%s: %v", d.name, err)
			}
			cell.v = cv
			b.v = value{}
		}
		b.cell = cell
	}
	return nil
}
