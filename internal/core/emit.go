package core

import (
	"repro/internal/flex"
	"repro/internal/obs"
)

// emit is the core's emission routine: every announcement site makes one
// call to it (or to emitStamped), and the obs registry decides who hears
// (the kind's row of the event table and the registry's switches).  pe is
// the processor whose clock the kind's Section 12 trace line reads, nil for
// kinds that print none.  With nothing watching the kind it costs one mask
// load, and never allocates.
func (vm *VM) emit(e *obs.Event, pe *flex.PE) { vm.emitStamped(e, pe, nil) }

// emitStamped is emit for an event of a batch that shares one flight-recorder
// stamp (obs.Stamp): the events of one ACCEPT run.
func (vm *VM) emitStamped(e *obs.Event, pe *flex.PE, st *obs.Stamp) {
	reg := vm.om.reg
	if !reg.Watching(e.Kind) {
		return
	}
	id, ticks := 0, int64(0)
	if pe != nil {
		id, ticks = pe.ID(), pe.Ticks()
	}
	reg.EmitAt(e, id, ticks, st)
}
