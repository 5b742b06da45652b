package node

// WireConfig sizes the batched wire path; SetWire gives a node one other
// than the production zero value, to reach the window-of-1 and small-batch
// boundaries.
type WireConfig = wireConfig

func SetWire(o *Options, w WireConfig) { o.wire = w }
