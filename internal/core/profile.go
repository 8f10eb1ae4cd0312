package core

import "repro/internal/metrics"

// Profile is a benchmark's full energy-performance profile: one run per
// static operating point plus the CPUSPEED daemon — one row of the paper's
// Table 2.
type Profile struct {
	Workload string
	// Settings holds the column order: frequencies ascending, then "auto".
	Settings []string
	Results  map[string]Result
	Cells    map[string]Normalized // normalized to the top frequency
}

// Static returns the profile's static operating points — every column
// but the trailing daemon one — in ascending frequency, each labelled
// with its column key: the candidates the crescendo classification and
// the ED2P/ED3P selection choose among.
func (p Profile) Static() []metrics.Candidate {
	if len(p.Settings) == 0 {
		return nil
	}
	keys := p.Settings[:len(p.Settings)-1]
	out := make([]metrics.Candidate, len(keys))
	for i, key := range keys {
		c := p.Cells[key]
		out[i] = metrics.Candidate{Label: key, Delay: c.Delay, Energy: c.Energy}
	}
	return out
}
