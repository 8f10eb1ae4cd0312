// Package powerpack reproduces the paper's measurement framework (§4):
// ACPI smart-battery polling, Baytech power-strip metering, the
// charge/disconnect/discharge measurement protocol, and collection and
// alignment of distributed power profiles.
//
// Both instruments deliberately model the quantization and refresh limits
// of the real hardware: the ACPI battery reports integer milliwatt-hours
// (1 mWh = 3.6 J) and refreshes only every 15–20 s; the Baytech strip
// reports per-outlet average power once per minute. This is why the paper
// ran minutes-long jobs and repeated each experiment — and why tests here
// verify that measured energy converges to ground truth as runs lengthen.
package powerpack

import (
	"fmt"
	"math"
	"time"

	"repro/internal/node"
	"repro/internal/sim"
)

// JoulesPerMWh converts battery units: 1 mWh = 3.6 J.
const JoulesPerMWh = 3.6

// BatteryConfig parameterizes an ACPI smart battery.
type BatteryConfig struct {
	CapacityMWh int           // full-charge capacity (Inspiron 8600: ~59 000 mWh)
	Refresh     time.Duration // ACPI polling data refresh period (15–20 s)
}

// DefaultBattery matches the NEMO laptops.
func DefaultBattery() BatteryConfig {
	return BatteryConfig{CapacityMWh: 59_000, Refresh: 18 * time.Second}
}

// Battery models one node's ACPI smart battery while the node runs on DC
// power. Remaining capacity decreases with the node's true energy draw but
// is visible only in integer mWh and only at refresh boundaries.
type Battery struct {
	n   *node.Node
	cfg BatteryConfig
	// baseline is the node's cumulative joules at the last recharge.
	baseline float64
	// lastReading/lastRefresh implement the stale-until-refresh behaviour.
	lastReading int
	lastRefresh sim.Time
	fresh       bool
}

// NewBattery attaches a fully-charged battery to a node.
func NewBattery(n *node.Node, cfg BatteryConfig) (*Battery, error) {
	if cfg.CapacityMWh <= 0 {
		return nil, fmt.Errorf("powerpack: non-positive battery capacity")
	}
	if cfg.Refresh <= 0 {
		return nil, fmt.Errorf("powerpack: non-positive battery refresh")
	}
	b := &Battery{n: n, cfg: cfg}
	b.Recharge()
	return b, nil
}

// Recharge restores full capacity (the "fully charge all batteries" step).
func (b *Battery) Recharge() {
	b.baseline = b.n.Energy().Total()
	b.lastReading = b.cfg.CapacityMWh
	b.lastRefresh = b.n.Kernel().Now()
	b.fresh = true
}

// trueRemaining returns the exact remaining capacity in mWh (float).
func (b *Battery) trueRemaining() float64 {
	drawn := b.n.Energy().Total() - b.baseline
	return float64(b.cfg.CapacityMWh) - drawn/JoulesPerMWh
}

// Poll reads the battery the way ACPI exposes it: an integer mWh value
// that updates only when the battery controller refreshes.
func (b *Battery) Poll() int {
	now := b.n.Kernel().Now()
	if b.fresh || now.Sub(b.lastRefresh) >= b.cfg.Refresh {
		b.lastReading = int(math.Floor(b.trueRemaining()))
		b.lastRefresh = now
		b.fresh = false
	}
	return b.lastReading
}

// ForceRefresh makes the next Poll re-read the controller (used at
// experiment boundaries, where PowerPack synchronizes readings).
func (b *Battery) ForceRefresh() { b.fresh = true }

// Empty reports whether the battery is exhausted.
func (b *Battery) Empty() bool { return b.trueRemaining() <= 0 }
