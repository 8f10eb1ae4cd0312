//go:build race

package fleet

// raceEnabled: the race detector adds allocations of its own, so
// allocation counts are not stable under it.
const raceEnabled = true
