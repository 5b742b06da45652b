//go:build race

package core

// raceEnabled: the allocation budget is only logged under the race detector,
// whose instrumentation allocates and whose sync.Pool drops items.
const raceEnabled = true
