package msgcodec

import "fmt"

// Checkpoint container framing.
//
// A checkpoint is the serialized recoverable state of one or more clusters
// (internal/core builds the per-cluster section bodies; this file owns only
// the container).  The container is a magic/version header followed by a
// count-prefixed list of length-prefixed sections, so a buddy node can
// validate and split a streamed checkpoint without understanding the section
// bodies.  Like ReadFrame, every length is validated against a hard bound
// BEFORE any allocation sized from attacker-controllable bytes happens: a
// truncated or forged checkpoint is an ErrCorrupt, not an OOM.

const (
	// checkpointMagic identifies a checkpoint container ("PiCk").
	checkpointMagic = 0x5069436b
	// CheckpointVersion is bumped whenever the container layout changes.
	CheckpointVersion = 1
	// MaxCheckpointBytes bounds one checkpoint container (and any single
	// section inside it).  Checkpoints carry whole in-queue and log contents,
	// so the bound is far above MaxFrameBytes, but still small enough that a
	// forged length prefix cannot OOM the receiver.
	MaxCheckpointBytes = 256 << 20
	// maxCheckpointSections bounds the section count before the count is used
	// to size anything.
	maxCheckpointSections = 1 << 20
)

// EncodeCheckpoint wraps the given sections into one checkpoint container.
// It fails with ErrCorrupt if a section (or the whole container) exceeds
// MaxCheckpointBytes — a checkpoint the decoder would refuse must not be
// produced in the first place.
func EncodeCheckpoint(sections [][]byte) ([]byte, error) {
	if len(sections) > maxCheckpointSections {
		return nil, fmt.Errorf("%w: checkpoint with %d sections exceeds maximum %d", ErrCorrupt, len(sections), maxCheckpointSections)
	}
	total := 4 + 2 + 4
	for i, s := range sections {
		if len(s) > MaxCheckpointBytes {
			return nil, fmt.Errorf("%w: checkpoint section %d is %d bytes, maximum %d", ErrCorrupt, i, len(s), MaxCheckpointBytes)
		}
		total += 4 + len(s)
	}
	if total > MaxCheckpointBytes {
		return nil, fmt.Errorf("%w: checkpoint container %d bytes exceeds maximum %d", ErrCorrupt, total, MaxCheckpointBytes)
	}
	out := make([]byte, 0, total)
	out = AppendU32(out, checkpointMagic)
	out = AppendU16(out, CheckpointVersion)
	out = AppendU32(out, uint32(len(sections)))
	for _, s := range sections {
		out = AppendBytes32(out, s)
	}
	return out, nil
}

// DecodeCheckpoint splits a checkpoint container back into its sections.
// The returned section slices alias data.  Truncated, oversized, or
// trailing-garbage containers are rejected with ErrCorrupt; the section
// count and every section length go through the cursor's Count, which holds
// them against the bytes present before they size or slice anything.
func DecodeCheckpoint(data []byte) ([][]byte, error) {
	if len(data) > MaxCheckpointBytes {
		return nil, fmt.Errorf("%w: checkpoint container %d bytes exceeds maximum %d", ErrCorrupt, len(data), MaxCheckpointBytes)
	}
	c := NewCursor(data)
	magic, version := c.U32(), c.U16()
	switch {
	case c.Err() != nil:
		return nil, fmt.Errorf("%w: checkpoint header truncated (%d bytes)", ErrCorrupt, len(data))
	case magic != checkpointMagic:
		return nil, fmt.Errorf("%w: bad checkpoint magic", ErrCorrupt)
	case version != CheckpointVersion:
		return nil, fmt.Errorf("%w: checkpoint version %d, want %d", ErrCorrupt, version, CheckpointVersion)
	}
	// Each section costs at least its 4-byte length prefix.
	count := c.Count(4)
	if count > maxCheckpointSections {
		return nil, fmt.Errorf("%w: checkpoint section count %d exceeds maximum %d", ErrCorrupt, count, maxCheckpointSections)
	}
	sections := make([][]byte, 0, count)
	for ; count > 0; count-- {
		sec := c.Bytes(c.Count(1))
		sections = append(sections, sec[:len(sec):len(sec)])
	}
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("checkpoint sections: %w", err)
	}
	return sections, nil
}
