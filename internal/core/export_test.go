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
