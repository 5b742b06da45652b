// Package core implements the PISCES 2 virtual machine and run-time library —
// the paper's primary contribution (Sections 4-8 and 11).  It provides:
//
//   - the clustered virtual machine: a set of clusters, each offering a finite
//     set of slots in which tasks run, with a task controller per cluster, a
//     user controller for terminal communication, and a file controller for
//     file-resident arrays;
//   - dynamic task initiation ("ON <cluster> INITIATE <tasktype>(<args>)")
//     with CLUSTER/ANY/OTHER/SAME placement, mediated by the task controllers;
//   - asynchronous message passing ("TO <taskid> SEND <msgtype>(<args>)"),
//     broadcast, in-queues, and the ACCEPT statement with per-type counts,
//     ALL, DELAY timeouts, and the signal/handler distinction;
//   - forces: FORCESPLIT, SHARED COMMON, LOCK variables, BARRIER and CRITICAL
//     statements, PRESCHED and SELFSCHED loops, and PARSEG parallel segments;
//   - windows: generalized pointers to rectangular subregions of arrays owned
//     by another task or by the file controller;
//   - the execution-environment views (running tasks, message queues, PE
//     loading, system state dump) and the tracing hooks of Section 12.
//
// Tasks are Go functions registered per tasktype; each running task is an
// MMOS process bound to its cluster's primary PE, so the slot-bounded
// multiprogramming and the programmer-controlled mapping of the virtual
// machine onto the hardware behave as on the FLEX/32.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// TaskID identifies a task.  "The taskid consists of <cluster number, slot
// number, unique number> where the unique number distinguishes tasks that
// have run at different times in the same slot" (Section 6).  TaskIDs are
// ordinary data values: they can be stored in variables, passed as message
// arguments, and compared.
type TaskID struct {
	Cluster int
	Slot    int
	Unique  int
}

// NilTask is the zero TaskID; no real task has it.
var NilTask TaskID

// IsNil reports whether the TaskID is the zero value.
func (t TaskID) IsNil() bool { return t == NilTask }

// less orders taskids by (cluster, slot, unique).  The run-time sorts task
// sets with it wherever map iteration order could otherwise leak into
// observable behaviour (broadcast delivery, shutdown teardown), which must
// stay reproducible under the deterministic backend.
func (t TaskID) less(o TaskID) bool {
	if t.Cluster != o.Cluster {
		return t.Cluster < o.Cluster
	}
	if t.Slot != o.Slot {
		return t.Slot < o.Slot
	}
	return t.Unique < o.Unique
}

// String renders the taskid as "cluster.slot.unique".
func (t TaskID) String() string {
	return obs.TaskRef(t).String()
}

// ParseTaskID parses the "cluster.slot.unique" form produced by String.
func ParseTaskID(s string) (TaskID, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 3 {
		return NilTask, fmt.Errorf("core: malformed taskid %q", s)
	}
	var vals [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return NilTask, fmt.Errorf("core: malformed taskid %q: %w", s, err)
		}
		vals[i] = v
	}
	return TaskID{Cluster: vals[0], Slot: vals[1], Unique: vals[2]}, nil
}

// codecValue converts the TaskID to its wire representation.
func (t TaskID) codecValue() msgcodec.TaskIDValue {
	return msgcodec.TaskIDValue{Cluster: int32(t.Cluster), Slot: int32(t.Slot), Unique: int32(t.Unique)}
}

// taskIDFromCodec converts a wire representation back to a TaskID.
func taskIDFromCodec(v msgcodec.TaskIDValue) TaskID {
	return TaskID{Cluster: int(v.Cluster), Slot: int(v.Slot), Unique: int(v.Unique)}
}

// AppendWire appends the taskid's 12-byte wire form (checkpoint sections and
// node protocol frames).
func (t TaskID) AppendWire(b []byte) []byte { return msgcodec.AppendTaskID(b, t.codecValue()) }

// ReadTaskID reads a taskid's wire form off a cursor.
func ReadTaskID(c *msgcodec.Cursor) TaskID { return taskIDFromCodec(c.TaskID()) }
