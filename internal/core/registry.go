// The strategy table: the single place a DVS scheduling strategy is known
// to the system. A Registration binds together a strategy's wire name,
// paper-table string form, attach step, wire decoder and canonical
// example, so Run, RunInstrumented, Strategy.String and the server's JSON
// decoding all dispatch through one entry of registry (strategies.go),
// indexed by StrategyKind.
package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dvs"
	"repro/internal/mpisim"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/spec"
)

// StrategyArgs is the neutral parameter bag a strategy decodes itself
// from: the union of the wire fields of a dvsd StrategySpec and the CLI
// flags of the command-line tools. A Decode hook reads the fields it
// cares about and rejects with a *spec.Error naming the offending field.
type StrategyArgs struct {
	FreqMHz     float64            // external: static MHz
	PerNode     map[string]float64 // external-per-node: node ID (decimal string) → MHz
	Preset      string             // daemon: "v1.1" or "v1.2.1" (default)
	IntervalMS  float64            // control-period override for daemon/predictive/ondemand/powercap
	TargetLoad  float64            // predictive: headroom target override
	BudgetWatts float64            // powercap: cluster budget
	Headroom    float64            // powercap: hysteresis override

	// Table and Ranks are the validation context: the operating points
	// of the cluster the decoded strategy will run on, and the workload's
	// rank count (one node per rank).
	Table dvs.Table
	Ranks int
}

// Interval converts the millisecond control-period override, falling back
// to def when unset.
func (a StrategyArgs) Interval(def time.Duration) (time.Duration, error) {
	if a.IntervalMS == 0 {
		return def, nil
	}
	if a.IntervalMS < 0 {
		return 0, spec.Errorf("interval_ms", "must be positive, got %g", a.IntervalMS)
	}
	return time.Duration(a.IntervalMS * float64(time.Millisecond)), nil
}

// CheckFreq validates that f is an operating point of the args' table,
// blaming field on rejection.
func (a StrategyArgs) CheckFreq(field string, f dvs.MHz) error {
	if a.Table.IndexOf(f) >= 0 {
		return nil
	}
	fs := make([]string, len(a.Table))
	for i, mhz := range a.Table.Frequencies() {
		fs[i] = fmt.Sprintf("%.0f", float64(mhz))
	}
	return spec.Errorf(field, "%.0f MHz is not an operating point; have %s",
		float64(f), strings.Join(fs, ", "))
}

// Registration is one strategy's complete identity: its wire name,
// paper-table string form, attach step, wire decoder, and a canonical
// example configuration (used by parity tests and documentation). Its
// position in registry is its StrategyKind.
type Registration struct {
	// Name is the wire and CLI name ("nodvs", "external", ...).
	Name string
	// String renders a Strategy of this kind the way the paper's tables
	// label it ("600", "auto", "cap 200W").
	String func(s Strategy) string
	// Attach installs a Strategy of this kind on the cluster about to run
	// (sets frequencies, spawns daemons, registers completion callbacks)
	// before the workload launches. The returned finish hook — nil when
	// the strategy has nothing to settle — runs after the simulation
	// completes and may veto the result (a daemon that died mid-run
	// measured a half-applied strategy) or annotate it (DaemonMoves).
	Attach func(s Strategy, k *sim.Kernel, nodes []*node.Node, w *mpisim.World) (finish func(*Result) error, err error)
	// Decode builds a Strategy of this kind from wire/CLI parameters,
	// rejecting with *spec.Error on invalid fields.
	Decode func(a StrategyArgs) (Strategy, error)
	// Example returns a canonical runnable configuration of this
	// strategy, used by registry-wide parity tests.
	Example func() Strategy
}

// Strategies returns every registration, in StrategyKind order.
func Strategies() []Registration {
	return append([]Registration(nil), registry...)
}

// StrategyNames returns the wire names, in StrategyKind order.
func StrategyNames() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.Name
	}
	return out
}

// DecodeStrategy builds a Strategy from its wire name and parameter bag
// through the registry. Unknown names and invalid parameters reject with
// a *spec.Error naming the offending field relative to the strategy
// object ("kind", "freq_mhz", ...).
func DecodeStrategy(kind string, a StrategyArgs) (Strategy, error) {
	for _, r := range registry {
		if r.Name == kind {
			return r.Decode(a)
		}
	}
	return Strategy{}, spec.Errorf("kind", "unknown kind %q; one of %s",
		kind, strings.Join(StrategyNames(), ", "))
}

// registration resolves a Strategy value's table entry.
func (s Strategy) registration() (*Registration, error) {
	if s.Kind < 0 || int(s.Kind) >= len(registry) {
		return nil, fmt.Errorf("core: unknown strategy kind %d (registered: %s)",
			s.Kind, strings.Join(StrategyNames(), ", "))
	}
	return &registry[s.Kind], nil
}
