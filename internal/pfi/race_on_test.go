//go:build race

package pfi

// raceEnabled: the allocation budget is not held under the race detector,
// whose instrumentation allocates and whose sync.Pool drops items.
const raceEnabled = true
