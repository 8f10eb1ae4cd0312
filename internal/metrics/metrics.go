// Package metrics implements the paper's energy-performance efficiency
// metrics (§4.5): the energy-delay product family EDP, ED²P, ED³P over
// normalized (delay, energy) measurements, automatic operating-point
// selection by metric minimization (the procedure behind Figures 6 and 7),
// and the §5.2 Type I–IV energy-delay crescendo classifier (Figure 8).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/paper"
)

// Metric is a fused energy-performance efficiency metric on normalized
// (delay, energy) pairs. Higher exponents weight performance more heavily:
// ED³P expects smaller performance loss than ED²P (§4.5).
type Metric int

const (
	// EDP is Energy × Delay (Brooks et al: high-end workstations).
	EDP Metric = iota + 1
	// ED2P is Energy × Delay² (high-performance servers).
	ED2P
	// ED3P is Energy × Delay³ (the paper's performance-constrained choice).
	ED3P
)

// String returns the paper's name for the metric.
func (m Metric) String() string {
	switch m {
	case EDP:
		return "EDP"
	case ED2P:
		return "ED2P"
	case ED3P:
		return "ED3P"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// Exponent returns the delay exponent k in E·Dᵏ.
func (m Metric) Exponent() int { return int(m) }

// Eval computes E·Dᵏ for a normalized cell.
func (m Metric) Eval(delay, energy float64) float64 {
	return energy * math.Pow(delay, float64(m.Exponent()))
}

// Candidate is one operating point's normalized measurement.
type Candidate struct {
	Label  string // e.g. "600", "auto"
	Delay  float64
	Energy float64
}

// Value returns the candidate's metric value.
func (c Candidate) Value(m Metric) float64 { return m.Eval(c.Delay, c.Energy) }

// Select returns the candidate minimizing metric m. Ties go to the
// candidate with the best performance (smallest delay), per §5.2 ("if two
// points have the same ED³ value, choose the point with best performance").
func Select(m Metric, cands []Candidate) (Candidate, error) {
	if len(cands) == 0 {
		return Candidate{}, fmt.Errorf("metrics: no candidates")
	}
	best := cands[0]
	bestV := best.Value(m)
	const eps = 1e-12
	for _, c := range cands[1:] {
		v := c.Value(m)
		switch {
		case v < bestV-eps:
			best, bestV = c, v
		case math.Abs(v-bestV) <= eps && c.Delay < best.Delay:
			best, bestV = c, v
		}
	}
	return best, nil
}

// Rank returns the candidates sorted by metric value ascending (ties by
// delay ascending, then label for determinism).
func Rank(m Metric, cands []Candidate) []Candidate {
	out := make([]Candidate, len(cands))
	copy(out, cands)
	sort.SliceStable(out, func(i, j int) bool {
		vi, vj := out[i].Value(m), out[j].Value(m)
		if vi != vj {
			return vi < vj
		}
		if out[i].Delay != out[j].Delay {
			return out[i].Delay < out[j].Delay
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// Crescendo is a benchmark's normalized (delay, energy) series ordered by
// ascending frequency, with the top frequency last at (1, 1).
type Crescendo []Candidate

// deltas returns the crescendo's end-to-end changes between its fastest
// and slowest operating points: how much normalized delay rises and how
// much normalized energy falls across the whole frequency range. These
// are raw differences on the normalized axes — deliberately NOT divided
// by the frequency span — because the §5.2 taxonomy compares the two
// deltas against each other and against a fixed near-zero threshold, and
// every NPB crescendo spans the same 600–1400 MHz range.
func (c Crescendo) deltas() (delayRise, energyDrop float64) {
	if len(c) < 2 {
		return 0, 0
	}
	lo, hi := c[0], c[len(c)-1]
	delayRise = lo.Delay - hi.Delay
	energyDrop = hi.Energy - lo.Energy
	return delayRise, energyDrop
}

// Classify implements the §5.2 taxonomy from the crescendo's end-to-end
// deltas:
//
//	Type I:   energy benefit ≈ 0, delay grows (EP);
//	Type II:  energy falls and delay grows at about the same rate (BT, MG, LU);
//	Type III: energy falls clearly faster than delay grows (FT, CG, SP);
//	Type IV:  delay ≈ flat, energy falls (IS).
func (c Crescendo) Classify() paper.CrescendoType {
	d, e := c.deltas()
	// flat is the near-zero threshold on an end-to-end delta (an 8-point
	// change on the normalized axis across the full frequency range).
	const flat = 0.08
	switch {
	case e <= flat && d > flat:
		return paper.TypeI
	case d <= flat && e > flat:
		return paper.TypeIV
	case e > d*1.5:
		return paper.TypeIII
	default:
		return paper.TypeII
	}
}
