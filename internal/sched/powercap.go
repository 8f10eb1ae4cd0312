package sched

import (
	"fmt"
	"time"

	"repro/internal/node"
	"repro/internal/sim"
)

// PowerCapConfig drives a cluster-level power-capping controller — the
// operating-cost side of the paper's motivation ("peak operation of this
// petaflop machine is $10,000 per hour"): keep measured cluster power
// under a budget by trading frequency, preferring to slow the nodes that
// are drawing the most.
type PowerCapConfig struct {
	// BudgetWatts is the cluster-wide power cap.
	BudgetWatts float64
	// Interval is the control period (power metering granularity).
	Interval time.Duration
	// Headroom is the fraction of budget left unused before the
	// controller starts raising frequencies again (hysteresis).
	Headroom float64
}

// DefaultPowerCap returns a 1 s controller with 5 % hysteresis.
func DefaultPowerCap(budgetWatts float64) PowerCapConfig {
	return PowerCapConfig{BudgetWatts: budgetWatts, Interval: time.Second, Headroom: 0.05}
}

// Validate checks the configuration.
func (c PowerCapConfig) Validate() error {
	if c.BudgetWatts <= 0 {
		return fmt.Errorf("sched: power cap needs a positive budget")
	}
	if c.Interval <= 0 {
		return fmt.Errorf("sched: power cap needs a positive interval")
	}
	if c.Headroom < 0 || c.Headroom >= 1 {
		return fmt.Errorf("sched: power cap headroom must be in [0, 1)")
	}
	return nil
}

// PowerCap is a running cluster-level capping controller.
type PowerCap struct {
	loop
	cfg   PowerCapConfig
	nodes []*node.Node
	lastE []float64
	watts []float64

	// Throttles counts downshifts, Releases upshifts; OverBudget counts
	// intervals measured above the budget (the controller's failure
	// metric).
	Throttles, Releases, OverBudget int
}

// StartPowerCap spawns the controller over a node set.
func StartPowerCap(k *sim.Kernel, nodes []*node.Node, cfg PowerCapConfig) (*PowerCap, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("sched: power cap needs nodes")
	}
	pc := &PowerCap{cfg: cfg, nodes: nodes, lastE: make([]float64, len(nodes)), watts: make([]float64, len(nodes))}
	for i, n := range nodes {
		pc.lastE[i] = n.Energy().Total()
	}
	pc.spawn(k, "powercap", cfg.Interval, pc)
	return pc, nil
}

func (pc *PowerCap) begin() {}

func (pc *PowerCap) step() error {
	// Meter each node's average power over the last interval.
	sec := pc.cfg.Interval.Seconds()
	total := 0.0
	watts := pc.watts
	for i, n := range pc.nodes {
		e := n.Energy().Total()
		watts[i] = (e - pc.lastE[i]) / sec
		pc.lastE[i] = e
		total += watts[i]
	}
	fair := pc.cfg.BudgetWatts / float64(len(pc.nodes))
	switch {
	case total > pc.cfg.BudgetWatts:
		pc.OverBudget++
		// Throttle aggressively: every node drawing more than its fair
		// share steps down this interval, so the controller converges in
		// a few periods rather than one step at a time.
		acted := false
		for i, n := range pc.nodes {
			if watts[i] > fair && n.OperatingIndex() > 0 {
				pc.Throttles++
				acted = true
				if err := setIndex(n, n.OperatingIndex()-1); err != nil {
					return err
				}
			}
		}
		if !acted {
			// Everyone over fair share is already at the bottom; throttle
			// the overall hungriest node with room instead.
			if i := pc.pick(watts, true); i >= 0 {
				pc.Throttles++
				n := pc.nodes[i]
				return setIndex(n, n.OperatingIndex()-1)
			}
		}
	case total < pc.cfg.BudgetWatts*(1-pc.cfg.Headroom):
		// Release conservatively: one thrifty node per interval, so a
		// momentary lull does not blow the next interval's budget.
		if i := pc.pick(watts, false); i >= 0 {
			pc.Releases++
			n := pc.nodes[i]
			return setIndex(n, n.OperatingIndex()+1)
		}
	}
	return nil
}

// pick selects the node to adjust: for throttling, the highest-power node
// above the bottom point; for releasing, the lowest-power node below top.
func (pc *PowerCap) pick(watts []float64, throttle bool) int {
	best := -1
	for i, n := range pc.nodes {
		if throttle {
			if n.OperatingIndex() == 0 {
				continue
			}
			if best < 0 || watts[i] > watts[best] {
				best = i
			}
		} else {
			if n.OperatingIndex() >= len(n.Table())-1 {
				continue
			}
			if best < 0 || watts[i] < watts[best] {
				best = i
			}
		}
	}
	return best
}

// CostUSD converts joules to dollars at the given electricity price —
// the paper quotes "$100 per megawatt[-hour] ($.10 per kilowatt[-hour])".
func CostUSD(joules, usdPerKWh float64) float64 {
	return joules / 3.6e6 * usdPerKWh
}

// PaperUSDPerKWh is the paper's §1 electricity price.
const PaperUSDPerKWh = 0.10
