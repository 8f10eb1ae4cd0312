package netsim

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Topology selects the interconnect structure.
type Topology int

const (
	// SingleSwitch: every node on one non-blocking switch (NEMO's
	// Catalyst 2950) — the default.
	SingleSwitch Topology = iota
	// TwoTier: nodes grouped onto leaf switches joined by a spine; traffic
	// between leaves shares each leaf's uplink, introducing the
	// oversubscription larger clusters actually have.
	TwoTier
)

// TwoTierConfig parameterizes the TwoTier topology.
type TwoTierConfig struct {
	// LeafPorts is the number of nodes per leaf switch.
	LeafPorts int
	// UplinkBandwidthBps is each leaf's uplink capacity (shared by its
	// nodes for inter-leaf traffic).
	UplinkBandwidthBps float64
	// SpineLatency is the extra hop latency for inter-leaf messages.
	SpineLatency time.Duration
}

// DefaultTwoTier returns an oversubscribed 8-port leaf layer with a
// gigabit spine uplink.
func DefaultTwoTier() TwoTierConfig {
	return TwoTierConfig{
		LeafPorts:          8,
		UplinkBandwidthBps: 1000e6,
		SpineLatency:       20 * time.Microsecond,
	}
}

// validateTopology checks topology-specific fields.
func (cfg Config) validateTopology() error {
	switch cfg.Topology {
	case SingleSwitch:
		return nil
	case TwoTier:
		if cfg.TwoTier.LeafPorts <= 0 {
			return fmt.Errorf("netsim: two-tier needs positive leaf ports")
		}
		if cfg.TwoTier.UplinkBandwidthBps <= 0 {
			return fmt.Errorf("netsim: two-tier needs positive uplink bandwidth")
		}
		if cfg.TwoTier.SpineLatency < 0 {
			return fmt.Errorf("netsim: negative spine latency")
		}
		return nil
	}
	return fmt.Errorf("netsim: unknown topology %d", cfg.Topology)
}

// leafOf returns the leaf switch index of a node.
func (n *Network) leafOf(nodeID int) int {
	return nodeID / n.cfg.TwoTier.LeafPorts
}

// uplinkSerial returns the uplink wire time for a payload.
func (n *Network) uplinkSerial(bytes int) time.Duration {
	return time.Duration(float64(bytes) * 8 / n.cfg.TwoTier.UplinkBandwidthBps * 1e9)
}

// crossLeaf charges the leaf uplink and downlink shared links for an
// inter-leaf message leaving src's leaf at departAt, returning when the
// message reaches the destination leaf.
func (n *Network) crossLeaf(srcLeaf, dstLeaf int, bytes int, departAt sim.Time) sim.Time {
	ser := n.uplinkSerial(bytes)
	// Source leaf uplink (shared by the whole leaf).
	upStart := max(departAt, n.leafUpFree[srcLeaf])
	upDone := upStart.Add(ser)
	n.leafUpFree[srcLeaf] = upDone
	// Spine hop.
	atDst := upDone.Add(n.cfg.TwoTier.SpineLatency)
	// Destination leaf downlink (shared).
	downStart := max(atDst, n.leafDownFree[dstLeaf])
	downDone := downStart.Add(ser)
	n.leafDownFree[dstLeaf] = downDone
	return downDone
}
