package core

// Simulated cost model.  The FLEX/32 run-time charged real instruction time
// for these operations; the simulator charges deterministic tick counts so
// that experiments measured in simulated time (per-PE tick clocks) are
// reproducible.  The constants are not calibrated to NS32032 instruction
// counts — only their relative magnitudes matter for the experiments, which
// compare configurations and constructs against each other.
const (
	// costTaskInit is charged to the new task's PE when a task is initiated.
	costTaskInit = 50
	// costTaskTerm is charged when a task terminates.
	costTaskTerm = 20
	// costSendHeader is charged to the sender per SEND statement.
	costSendHeader = 10
	// costSendPacket is charged per argument packet moved into shared memory.
	costSendPacket = 2
	// costAcceptMsg is charged to the receiver per accepted message.
	costAcceptMsg = 8
	// costRouteMsg is charged to the destination cluster's primary PE per
	// cross-cluster message, for decoding the wire form into the destination
	// heap shard (plus costSendPacket per packet moved between shards).
	costRouteMsg = 6
	// costAcceptPacket is charged per packet copied out of shared memory.
	costAcceptPacket = 2
	// costLockOp is charged per lock or unlock operation.
	costLockOp = 3
	// costBarrier is charged per member per barrier passage.
	costBarrier = 5
	// costForceSplit is charged to the primary per FORCESPLIT, and
	// costForceMember to each secondary PE for starting a member.
	costForceSplit  = 30
	costForceMember = 15
	// costWindowOp is charged per window create/shrink, and
	// costWindowElement per array element moved by a window read or write.
	costWindowOp      = 6
	costWindowElement = 1
)

// Shared-memory system-table record sizes (bytes).  "A table is maintained
// with entries for each cluster and each slot within each cluster" (Section
// 11); these sizes model those records and drive the Section 13 table-usage
// measurement.
const (
	bytesVMHeader      = 256
	bytesClusterRecord = 128
	bytesSlotRecord    = 96
)

// DefaultSystemLocalBytes is the per-PE local-memory footprint of the PISCES
// system code and data.  The paper reports this as "less than 2.5% of each
// PE's local memory"; 24 KiB of a 1 MiB local memory is 2.3%.
const DefaultSystemLocalBytes = 24 * 1024

// DefaultTaskLocalBytes is the default local-memory charge for one user task
// (program text copy bookkeeping, stack, and task-local data).
const DefaultTaskLocalBytes = 8 * 1024
