//go:build race

package core_test

// raceEnabled: the race detector randomly drops sync.Pool entries, so
// allocation counts are not stable under it.
const raceEnabled = true
