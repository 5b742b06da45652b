package core

import "repro/internal/msgcodec"

// ReencodeCheckpoint decodes a checkpoint blob and encodes what it read, for
// the external fuzz harness: a decodable blob's re-encoding must itself be a
// fixed point.
func ReencodeCheckpoint(blob []byte) ([]byte, error) {
	ck, err := decodeCheckpointBlob(blob)
	if err != nil {
		return nil, err
	}
	sections := [][]byte{msgcodec.AppendU32(nil, haCkptFormat)}
	for _, cs := range ck {
		sec, err := encodeClusterCkpt(cs)
		if err != nil {
			return nil, err
		}
		sections = append(sections, sec)
	}
	return msgcodec.EncodeCheckpoint(sections)
}

// Examined returns how many in-queue slots takeMatching has looked at since
// the queue was made (TestAcceptOneExaminesOneSlot).
func (q *inQueue) Examined() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.examined
}

// LoggedArgs returns the argument lists the HA consumption log of a running
// task retains, in consumption order (TestReusedStorageNeverAliasesRetainedArgs).
func (vm *VM) LoggedArgs(id TaskID) [][]Value {
	rec, ok := vm.lookupTask(id)
	if !ok || rec.queue.ha == nil {
		return nil
	}
	rec.queue.mu.Lock()
	defer rec.queue.mu.Unlock()
	var out [][]Value
	for _, r := range rec.queue.ha.log {
		for _, m := range r.msgs {
			out = append(out, m.Args)
		}
	}
	return out
}

// Types returns the message types the result groups its messages by, in the
// order ByType would first find them (TestRefilledResultIgnoresStaleTypes).
func (r *AcceptResult) Types() []string {
	var out []string
	for _, g := range r.groups {
		out = append(out, g.name)
	}
	return out
}

// CheckpointedArgs captures a running task's checkpoint state the way
// Checkpoint does and returns the argument lists of its queue snapshot —
// ring, not-yet-injected tail, replay pen, in that order — together with how
// many messages the pen held (TestReusedStorageNeverAliasesRetainedArgs).
func (vm *VM) CheckpointedArgs(id TaskID) (queued [][]Value, penned int) {
	rec, ok := vm.lookupTask(id)
	if !ok || rec.queue.ha == nil {
		return nil, 0
	}
	rec.queue.mu.Lock()
	penned = len(rec.queue.ha.pen)
	rec.queue.mu.Unlock()
	for _, m := range rec.captureCheckpoint().queue {
		queued = append(queued, m.Args)
	}
	return queued, penned
}
