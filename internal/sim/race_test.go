//go:build race

package sim

// raceEnabled: allocation counts across proc switches are not stable
// under the race detector, so the pins that count them skip under it;
// the test run without -race still enforces them.
const raceEnabled = true
