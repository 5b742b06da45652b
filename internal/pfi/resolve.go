// Slot resolution: the compile-time pass that turns every name a tasktype
// mentions — scalar variables, arrays, SHARED COMMON members, DO control
// variables, parameters — into a frame-slot index.  The run-time frame is
// then a flat []binding vector indexed by these slots, so the interpreter's
// hot path performs no map lookups at all.
//
// Resolution is purely syntactic: a slot is assigned the first time codegen
// meets the name, and the same name always resolves to the same slot within
// one tasktype.  What the slot *is* at run time (scalar, array, shared cell,
// or still unset) stays dynamic, exactly as in the map-based interpreter:
// declarations execute as statements and flip the slot's binding.  A name
// that is also an intrinsic (SELF, SENDER, ...) still gets a slot — an
// assignment to it shadows the intrinsic, which the compiled reader checks
// slot-first.
package pfi

// slotTable is one tasktype's name-to-slot mapping, shared by the compiled
// code and every frame created for the tasktype.
type slotTable struct {
	index    map[string]int
	names    []string  // slot -> name, for error messages and tests
	implicit []valKind // slot -> implicit Fortran kind (I-N rule)
}

func newSlotTable() *slotTable {
	return &slotTable{index: make(map[string]int)}
}

// slotOf returns the slot index for a name, assigning the next free slot on
// first reference.  Names are already upper-cased by the lexer.
func (tab *slotTable) slotOf(name string) int {
	if i, ok := tab.index[name]; ok {
		return i
	}
	i := len(tab.names)
	tab.index[name] = i
	tab.names = append(tab.names, name)
	tab.implicit = append(tab.implicit, implicitKind(name))
	return i
}

// size returns the number of resolved slots (the frame length).
func (tab *slotTable) size() int { return len(tab.names) }

// name returns the source name of a slot.
func (tab *slotTable) name(slot int) string { return tab.names[slot] }
