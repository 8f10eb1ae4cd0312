package powerpack

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/node"
	"repro/internal/sim"
)

// Sample is one timestamped average-power observation of one node.
type Sample struct {
	Node  int
	At    sim.Time // end of the averaging window
	Watts float64
}

// Collector samples every node's power at a fixed period, producing the
// per-node profiles PowerPack's analysis stage aligns and merges (§4.3).
// It runs as a sim proc; call Stop when the application completes (core
// wires this to the MPI world's completion hook).
type Collector struct {
	nodes   []*node.Node
	period  time.Duration
	lastE   []float64
	proc    *sim.Proc
	stopped bool
	samples []Sample
}

// StartCollector begins sampling the nodes every period.
func StartCollector(k *sim.Kernel, nodes []*node.Node, period time.Duration) (*Collector, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("powerpack: no nodes to collect")
	}
	if period <= 0 {
		return nil, fmt.Errorf("powerpack: non-positive collection period")
	}
	c := &Collector{nodes: nodes, period: period, lastE: make([]float64, len(nodes))}
	for i, n := range nodes {
		c.lastE[i] = n.Energy().Total()
	}
	c.proc = k.Spawn("powerpack.collector", c.run)
	return c, nil
}

func (c *Collector) run(p *sim.Proc) {
	for !c.stopped {
		if _, err := p.SleepInterruptible(c.period); err != nil {
			break
		}
		sec := c.period.Seconds()
		for i, n := range c.nodes {
			e := n.Energy().Total()
			c.samples = append(c.samples, Sample{Node: i, At: p.Now(), Watts: (e - c.lastE[i]) / sec})
			c.lastE[i] = e
		}
	}
}

// Stop terminates sampling (idempotent).
func (c *Collector) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.proc.Interrupt()
}

// Samples returns all collected samples in collection order.
func (c *Collector) Samples() []Sample {
	out := make([]Sample, len(c.samples))
	copy(out, c.samples)
	return out
}

// AlignedRow is the cluster's power at one aligned timestamp.
type AlignedRow struct {
	At    sim.Time
	Watts []float64 // per node; NaN-free, missing nodes hold the last value
	Total float64
}

// Align merges per-node sample streams into time-aligned cluster rows —
// the "filter and align data sets from individual nodes" step of §4.3.
// Samples from different nodes at the same period tick land in one row.
func Align(samples []Sample, nodes int) []AlignedRow {
	byTime := map[sim.Time][]Sample{}
	var times []sim.Time
	for _, s := range samples {
		if _, ok := byTime[s.At]; !ok {
			times = append(times, s.At)
		}
		byTime[s.At] = append(byTime[s.At], s)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	last := make([]float64, nodes)
	rows := make([]AlignedRow, 0, len(times))
	for _, t := range times {
		for _, s := range byTime[t] {
			if s.Node >= 0 && s.Node < nodes {
				last[s.Node] = s.Watts
			}
		}
		row := AlignedRow{At: t, Watts: make([]float64, nodes)}
		copy(row.Watts, last)
		for _, w := range row.Watts {
			row.Total += w
		}
		rows = append(rows, row)
	}
	return rows
}
