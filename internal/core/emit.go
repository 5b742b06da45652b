package core

import (
	"repro/internal/flex"
	"repro/internal/obs"
	"repro/internal/trace"
)

// watching is the one question an announcement site may ask before building
// anything costly for an event: is any sink taking this kind right now?
func (vm *VM) watching(k obs.Kind) bool {
	return vm.tracer.Wants(k.Trace()) || vm.om.reg.Watching(k)
}

// emit is the core's emission routine: every announcement site makes one
// call to it, and the kind's row of the obs event table decides who hears —
// the Section 12 trace (a line stamped with pe's clock, subject to the
// per-kind and per-task switches), the flight recorder, the span capture.
// pe is nil for kinds that have no trace line.  With nothing watching it
// costs the mask loads that find that out, and never allocates.
func (vm *VM) emit(e *obs.Event, pe *flex.PE) {
	if k := e.Kind.Trace(); vm.tracer.Wants(k) {
		line := trace.Event{Kind: k, Task: TaskID(e.Task).String(), Info: e.Info()}
		if peer := TaskID(e.Peer); !peer.IsNil() {
			line.Other = peer.String()
		}
		if pe != nil {
			line.PE = pe.ID()
			line.Ticks = pe.Ticks()
		}
		vm.tracer.Record(line)
	}
	vm.om.reg.Emit(e)
}
