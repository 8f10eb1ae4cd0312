// The strategy table: the single place a DVS scheduling strategy is known
// to the system. A Registration binds together a strategy's wire name,
// paper-table string form, attach step, wire decoder and encoder, and
// canonical example, so Run, RunInstrumented, Strategy.String and the
// server's JSON decoding and encoding all dispatch through one entry of
// registry (strategies.go), indexed by StrategyKind.
package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/dvs"
	"repro/internal/mpisim"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/spec"
)

// StrategySpec is the wire form of a strategy: the JSON body of a dvsd
// strategy object and the parse form the command-line tools fill from
// their flags. The parameter fields are the union of what the registered
// strategies consume; each row's Decode reads the fields it cares about
// and its Encode writes them back.
type StrategySpec struct {
	// Kind is a registered strategy name — StrategyNames(), i.e. nodvs,
	// external, external-per-node, daemon, predictive, ondemand, powercap.
	Kind string `json:"kind"`
	// FreqMHz is the static frequency for kind=external.
	FreqMHz float64 `json:"freq_mhz,omitempty"`
	// PerNode maps node ID (JSON object key, decimal string, below the
	// workload's rank count) to MHz for kind=external-per-node.
	PerNode map[string]float64 `json:"per_node,omitempty"`
	// Preset selects the daemon tuning for kind=daemon: "v1.1" or
	// "v1.2.1" (default).
	Preset string `json:"preset,omitempty"`
	// IntervalMS overrides the control period for
	// daemon/predictive/ondemand/powercap; at least MinInterval.
	IntervalMS float64 `json:"interval_ms,omitempty"`
	// TargetLoad overrides the predictive daemon's headroom target.
	TargetLoad float64 `json:"target_load,omitempty"`
	// BudgetWatts is the cluster power cap for kind=powercap.
	BudgetWatts float64 `json:"budget_watts,omitempty"`
	// Headroom overrides powercap hysteresis.
	Headroom float64 `json:"headroom,omitempty"`
}

// MinInterval is the shortest governor control period a spec may ask
// for. A cell's wall time grows as 1/interval and core.Run has no
// cancellation point, so the floor is what bounds a hostile period; the
// governors' defaults are 80 ms–2 s.
const MinInterval = time.Millisecond

// Interval converts the millisecond control-period override, falling back
// to def when unset.
func (s StrategySpec) Interval(def time.Duration) (time.Duration, error) {
	if s.IntervalMS == 0 {
		return def, nil
	}
	if s.IntervalMS < ms(MinInterval) {
		return 0, spec.Errorf("interval_ms", "must be at least %g ms, got %g", ms(MinInterval), s.IntervalMS)
	}
	iv, ok := spec.Duration(s.IntervalMS, time.Millisecond)
	if !ok {
		return 0, spec.Errorf("interval_ms", "must be at most %v, got %g ms", time.Duration(math.MaxInt64), s.IntervalMS)
	}
	return iv, nil
}

// ms renders a duration as the wire form's fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checkFreq validates that f is an operating point of table, blaming
// field on rejection.
func checkFreq(table dvs.Table, field string, f dvs.MHz) error {
	if table.IndexOf(f) >= 0 {
		return nil
	}
	fs := make([]string, len(table))
	for i, mhz := range table.Frequencies() {
		fs[i] = fmt.Sprintf("%.0f", float64(mhz))
	}
	return spec.Errorf(field, "%.0f MHz is not an operating point; have %s",
		float64(f), strings.Join(fs, ", "))
}

// Registration is one strategy's complete identity: its wire name,
// paper-table string form, attach step, wire decoder and encoder, and a
// canonical example configuration (used by registry-wide tests and
// documentation). Its position in registry is its StrategyKind.
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
	// Decode builds a Strategy of this kind from its wire form, rejecting
	// with *spec.Error on invalid fields. table and ranks are the
	// validation context: the operating points of the cluster the strategy
	// will run on, and the workload's rank count (one node per rank).
	Decode func(s StrategySpec, table dvs.Table, ranks int) (Strategy, error)
	// Encode is Decode's inverse: the wire forms that may rebuild s, most
	// likely first. Kind is left empty; EncodeStrategy fills it in. A
	// candidate is a proposal, not a promise — a caller that needs the
	// exact strategy back rebuilds the candidate and compares.
	Encode func(s Strategy) []StrategySpec
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

// DecodeStrategy builds a Strategy from its wire form through the
// registry, validating it against the cluster's operating points and the
// workload's rank count. A missing or unknown kind and invalid parameters
// reject with a *spec.Error naming the offending field relative to the
// strategy object ("kind", "freq_mhz", ...).
func DecodeStrategy(s StrategySpec, table dvs.Table, ranks int) (Strategy, error) {
	if s.Kind == "" {
		return Strategy{}, spec.Errorf("kind", "required; one of %s", strings.Join(StrategyNames(), ", "))
	}
	for _, r := range registry {
		if r.Name == s.Kind {
			return r.Decode(s, table, ranks)
		}
	}
	return Strategy{}, spec.Errorf("kind", "unknown kind %q; one of %s",
		s.Kind, strings.Join(StrategyNames(), ", "))
}

// EncodeStrategy returns the candidate wire forms of s from its
// registration (nil for an unregistered kind).
func EncodeStrategy(s Strategy) []StrategySpec {
	r, err := s.registration()
	if err != nil {
		return nil
	}
	out := r.Encode(s)
	for i := range out {
		out[i].Kind = r.Name
	}
	return out
}

// registration resolves a Strategy value's table entry.
func (s Strategy) registration() (*Registration, error) {
	if s.Kind < 0 || int(s.Kind) >= len(registry) {
		return nil, fmt.Errorf("core: unknown strategy kind %d (registered: %s)",
			s.Kind, strings.Join(StrategyNames(), ", "))
	}
	return &registry[s.Kind], nil
}
