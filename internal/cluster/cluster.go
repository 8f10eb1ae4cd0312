// Package cluster assembles the simulated power-aware machine: N nodes, an
// interconnect, the MPI world bound to them, and — optionally — the full
// PowerPack instrumentation (a meter over per-node ACPI batteries, and a
// power-profile collector). It is the layer between the raw substrates
// (node, netsim, mpisim, powerpack) and the experiment façade (core).
//
// A Cluster owns a private simulation kernel, so independent clusters are
// independent experiments; everything on one cluster is deterministic.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/powerpack"
	"repro/internal/sim"
)

// Config assembles a cluster.
type Config struct {
	Nodes int
	Node  node.Config
	Net   netsim.Config // the Nodes field is overridden by Config.Nodes
	MPI   mpisim.Config
	// Instrument attaches the PowerPack meter and collector.
	Instrument bool
	Battery    powerpack.BatteryConfig
	// CollectPeriod is the power-profile sampling period when
	// instrumented (0 disables the collector).
	CollectPeriod time.Duration
}

// NEMO returns the paper's 16-node cluster configuration (or any size via
// nodes), uninstrumented.
func NEMO(nodes int) Config {
	return Config{
		Nodes: nodes,
		Node:  node.DefaultConfig(),
		Net:   netsim.DefaultConfig(nodes),
		MPI:   mpisim.DefaultConfig(),
	}
}

// Cluster is an assembled machine, ready to launch one MPI program.
type Cluster struct {
	k     *sim.Kernel
	nodes []*node.Node
	net   *netsim.Network
	world *mpisim.World

	meter     *powerpack.Meter
	collector *powerpack.Collector
}

// New builds a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	k := sim.NewKernel()
	c := &Cluster{k: k}
	for i := 0; i < cfg.Nodes; i++ {
		n, err := node.New(k, i, cfg.Node)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	netCfg := cfg.Net
	netCfg.Nodes = cfg.Nodes
	net, err := netsim.New(k, netCfg)
	if err != nil {
		return nil, err
	}
	c.net = net
	world, err := mpisim.NewWorld(k, net, c.nodes, cfg.MPI)
	if err != nil {
		return nil, err
	}
	c.world = world
	if cfg.Instrument {
		m, err := powerpack.NewMeter(k, c.nodes, cfg.Battery)
		if err != nil {
			return nil, err
		}
		c.meter = m
		if cfg.CollectPeriod > 0 {
			col, err := powerpack.StartCollector(k, c.nodes, cfg.CollectPeriod)
			if err != nil {
				return nil, err
			}
			c.collector = col
			world.OnAllDone(col.Stop)
		}
	}
	return c, nil
}

// Kernel returns the cluster's simulation kernel.
func (c *Cluster) Kernel() *sim.Kernel { return c.k }

// Nodes returns the cluster's nodes.
func (c *Cluster) Nodes() []*node.Node { return c.nodes }

// Network returns the interconnect.
func (c *Cluster) Network() *netsim.Network { return c.net }

// World returns the MPI world.
func (c *Cluster) World() *mpisim.World { return c.world }

// Meter returns the PowerPack meter, or nil when uninstrumented.
func (c *Cluster) Meter() *powerpack.Meter { return c.meter }

// Collector returns the power-profile collector, or nil.
func (c *Cluster) Collector() *powerpack.Collector { return c.collector }

// Measurement closes the PowerPack measurement window (after the run) and
// returns it. Errors when the cluster is uninstrumented.
func (c *Cluster) Measurement() (powerpack.Measurement, error) {
	if c.meter == nil {
		return powerpack.Measurement{}, fmt.Errorf("cluster: not instrumented")
	}
	return c.meter.End()
}
