// The seven paper strategies, one registry entry each: wire name, string
// form, attach step (shared verbatim by Run and RunInstrumented) and wire
// decoder and encoder. An entry's index is its StrategyKind.
package core

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/dvs"
	"repro/internal/mpisim"
	"repro/internal/node"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
)

var registry = []Registration{
	KindNoDVS: {
		Name: "nodvs",
		// The baseline is labelled by the top frequency, the way the
		// paper's tables head their normalization column.
		String: func(Strategy) string { return "1400" },
		Attach: func(Strategy, *sim.Kernel, []*node.Node, *mpisim.World) (func(*Result) error, error) {
			// Nodes start at top speed by default.
			return nil, nil
		},
		Decode:  func(StrategySpec, dvs.Table, int) (Strategy, error) { return NoDVS(), nil },
		Encode:  func(Strategy) []StrategySpec { return []StrategySpec{{}} },
		Example: NoDVS,
	},

	KindExternal: {
		Name:   "external",
		String: func(s Strategy) string { return fmt.Sprintf("%.0f", float64(s.Freq)) },
		Attach: func(s Strategy, _ *sim.Kernel, nodes []*node.Node, _ *mpisim.World) (func(*Result) error, error) {
			return nil, sched.SetAll(nodes, s.Freq)
		},
		Decode: func(a StrategySpec, table dvs.Table, _ int) (Strategy, error) {
			if a.FreqMHz == 0 {
				return Strategy{}, spec.Errorf("freq_mhz", "required for kind=external")
			}
			if err := checkFreq(table, "freq_mhz", dvs.MHz(a.FreqMHz)); err != nil {
				return Strategy{}, err
			}
			return External(dvs.MHz(a.FreqMHz)), nil
		},
		Encode:  func(s Strategy) []StrategySpec { return []StrategySpec{{FreqMHz: float64(s.Freq)}} },
		Example: func() Strategy { return External(600) },
	},

	KindExternalPerNode: {
		Name:   "external-per-node",
		String: func(Strategy) string { return "per-node" },
		Attach: func(s Strategy, _ *sim.Kernel, nodes []*node.Node, _ *mpisim.World) (func(*Result) error, error) {
			return nil, sched.SetPerNode(nodes, s.PerNode)
		},
		Decode: func(a StrategySpec, table dvs.Table, ranks int) (Strategy, error) {
			if len(a.PerNode) == 0 {
				return Strategy{}, spec.Errorf("per_node", "required for kind=external-per-node")
			}
			freqs := make(map[int]dvs.MHz, len(a.PerNode))
			// Iterate keys sorted so the first error is deterministic.
			keys := make([]string, 0, len(a.PerNode))
			for k := range a.PerNode {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				id, err := strconv.Atoi(k)
				if err != nil || id < 0 {
					return Strategy{}, spec.Errorf("per_node", "key %q is not a node ID", k)
				}
				if id >= ranks {
					return Strategy{}, spec.Errorf("per_node", "key %q names no node; the workload has %d ranks", k, ranks)
				}
				f := dvs.MHz(a.PerNode[k])
				if err := checkFreq(table, fmt.Sprintf("per_node[%s]", k), f); err != nil {
					return Strategy{}, err
				}
				freqs[id] = f
			}
			return ExternalPerNode(freqs), nil
		},
		Encode: func(s Strategy) []StrategySpec {
			pn := make(map[string]float64, len(s.PerNode))
			for id, f := range s.PerNode {
				pn[strconv.Itoa(id)] = float64(f)
			}
			return []StrategySpec{{PerNode: pn}}
		},
		Example: func() Strategy { return ExternalPerNode(map[int]dvs.MHz{0: 800}) },
	},

	KindDaemon: {
		Name:   "daemon",
		String: func(Strategy) string { return "auto" },
		Attach: func(s Strategy, k *sim.Kernel, nodes []*node.Node, w *mpisim.World) (func(*Result) error, error) {
			return attachGovernors(k, nodes, w, sched.StartCPUSpeed, s.Daemon, true)
		},
		Decode: func(a StrategySpec, _ dvs.Table, _ int) (Strategy, error) {
			var cfg sched.CPUSpeedConfig
			switch a.Preset {
			case "", "v1.2.1":
				cfg = sched.CPUSpeedV121()
			case "v1.1":
				cfg = sched.CPUSpeedV11()
			default:
				return Strategy{}, spec.Errorf("preset", "unknown daemon preset %q; want v1.1 or v1.2.1", a.Preset)
			}
			iv, err := a.Interval(cfg.Interval)
			if err != nil {
				return Strategy{}, err
			}
			cfg.Interval = iv
			if err := cfg.Validate(); err != nil {
				return Strategy{}, spec.Errorf("", "%v", err)
			}
			return Daemon(cfg), nil
		},
		// The tuning itself has no wire form, so offer both presets at the
		// strategy's period; a hand-tuned config rebuilds to neither.
		Encode: func(s Strategy) []StrategySpec {
			iv := ms(s.Daemon.Interval)
			return []StrategySpec{{Preset: "v1.2.1", IntervalMS: iv}, {Preset: "v1.1", IntervalMS: iv}}
		},
		Example: func() Strategy { return Daemon(sched.CPUSpeedV121()) },
	},

	KindPredictive: {
		Name:   "predictive",
		String: func(Strategy) string { return "predictive" },
		Attach: func(s Strategy, k *sim.Kernel, nodes []*node.Node, w *mpisim.World) (func(*Result) error, error) {
			return attachGovernors(k, nodes, w, sched.StartPredictive, s.Predictive, false)
		},
		Decode: func(a StrategySpec, _ dvs.Table, _ int) (Strategy, error) {
			cfg := sched.DefaultPredictive()
			if a.TargetLoad != 0 {
				cfg.TargetLoad = a.TargetLoad
			}
			iv, err := a.Interval(cfg.Window)
			if err != nil {
				return Strategy{}, err
			}
			cfg.Window = iv
			if err := cfg.Validate(); err != nil {
				return Strategy{}, spec.Errorf("", "%v", err)
			}
			return Predictive(cfg), nil
		},
		Encode: func(s Strategy) []StrategySpec {
			return []StrategySpec{{IntervalMS: ms(s.Predictive.Window), TargetLoad: s.Predictive.TargetLoad}}
		},
		Example: func() Strategy { return Predictive(sched.DefaultPredictive()) },
	},

	KindOnDemand: {
		Name:   "ondemand",
		String: func(Strategy) string { return "ondemand" },
		Attach: func(s Strategy, k *sim.Kernel, nodes []*node.Node, w *mpisim.World) (func(*Result) error, error) {
			return attachGovernors(k, nodes, w, sched.StartOnDemand, s.OnDemand, false)
		},
		Decode: func(a StrategySpec, _ dvs.Table, _ int) (Strategy, error) {
			cfg := sched.DefaultOnDemand()
			iv, err := a.Interval(cfg.SamplingRate)
			if err != nil {
				return Strategy{}, err
			}
			cfg.SamplingRate = iv
			if err := cfg.Validate(); err != nil {
				return Strategy{}, spec.Errorf("", "%v", err)
			}
			return OnDemand(cfg), nil
		},
		Encode:  func(s Strategy) []StrategySpec { return []StrategySpec{{IntervalMS: ms(s.OnDemand.SamplingRate)}} },
		Example: func() Strategy { return OnDemand(sched.DefaultOnDemand()) },
	},

	KindPowerCap: {
		Name:   "powercap",
		String: func(s Strategy) string { return fmt.Sprintf("cap %.0fW", s.PowerCap.BudgetWatts) },
		Attach: func(s Strategy, k *sim.Kernel, nodes []*node.Node, w *mpisim.World) (func(*Result) error, error) {
			pc, err := sched.StartPowerCap(k, nodes, s.PowerCap)
			if err != nil {
				return nil, err
			}
			w.OnAllDone(pc.Stop)
			return func(*Result) error { return pc.Err() }, nil
		},
		Decode: func(a StrategySpec, _ dvs.Table, _ int) (Strategy, error) {
			if a.BudgetWatts <= 0 {
				return Strategy{}, spec.Errorf("budget_watts", "required and positive for kind=powercap, got %g", a.BudgetWatts)
			}
			cfg := sched.DefaultPowerCap(a.BudgetWatts)
			if a.Headroom != 0 {
				cfg.Headroom = a.Headroom
			}
			iv, err := a.Interval(cfg.Interval)
			if err != nil {
				return Strategy{}, err
			}
			cfg.Interval = iv
			if err := cfg.Validate(); err != nil {
				return Strategy{}, spec.Errorf("", "%v", err)
			}
			return PowerCap(cfg), nil
		},
		Encode: func(s Strategy) []StrategySpec {
			return []StrategySpec{{BudgetWatts: s.PowerCap.BudgetWatts,
				Headroom: s.PowerCap.Headroom, IntervalMS: ms(s.PowerCap.Interval)}}
		},
		Example: func() Strategy { return PowerCap(sched.DefaultPowerCap(190)) },
	},
}

// attachGovernors starts one governor per node and stops them all when
// the workload finishes. Its finish hook fails the run if any governor
// retired early: a daemon that could not change operating points measured
// a half-applied strategy. countMoves adds the governors' moves to
// DaemonMoves.
func attachGovernors[C any](k *sim.Kernel, nodes []*node.Node, w *mpisim.World,
	start func(*sim.Kernel, *node.Node, C) (*sched.Governor, error), cfg C, countMoves bool) (func(*Result) error, error) {
	ds, stop, err := sched.StartCluster(k, nodes, start, cfg)
	if err != nil {
		return nil, err
	}
	w.OnAllDone(stop)
	return func(res *Result) error {
		for _, d := range ds {
			if err := d.Err(); err != nil {
				return err
			}
			if countMoves {
				res.DaemonMoves += d.Moves
			}
		}
		return nil
	}, nil
}
