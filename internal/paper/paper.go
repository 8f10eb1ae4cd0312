// Package paper records the numbers published in Ge, Feng & Cameron,
// "Performance-constrained Distributed DVS Scheduling for Scientific
// Applications on Power-aware Clusters" (SC'05), as machine-readable
// targets. They are used by cmd/calibrate to fit the simulator's workload
// parameters and by tests/benches to report paper-vs-measured deltas.
//
// All values are normalized to the 1400 MHz (no-DVS) run of the same code:
// delay = T(f)/T(1400), energy = E(f)/E(1400).
package paper

import "strconv"

// Cell is one (normalized delay, normalized energy) measurement.
type Cell struct {
	Delay  float64
	Energy float64
}

// Profile is a code's full Table 2 row: static external settings at each
// frequency plus the CPUSPEED ("auto") result.
type Profile struct {
	Code   string // e.g. "FT.C.8"
	Auto   Cell
	ByFreq map[int]Cell // MHz → cell; 1400 is {1, 1} by definition
	// EnergyEstimated marks rows whose energy values are reconstructed
	// from the paper's figures rather than printed in Table 2 (SP).
	EnergyEstimated bool
}

// At returns the published cell for a profile setting key: "auto" for
// CPUSPEED, otherwise the static frequency in MHz ("600" … "1400"). A nil
// profile (a code the paper did not publish) has no cells.
func (p *Profile) At(setting string) (Cell, bool) {
	if p == nil {
		return Cell{}, false
	}
	if setting == "auto" {
		return p.Auto, true
	}
	mhz, err := strconv.Atoi(setting)
	if err != nil {
		return Cell{}, false
	}
	c, ok := p.ByFreq[mhz]
	return c, ok
}

// CrescendoType is the paper's §5.2 classification of energy-delay
// crescendos.
type CrescendoType int

const (
	// TypeI: near-zero energy benefit, linear performance decrease (EP).
	TypeI CrescendoType = iota + 1
	// TypeII: energy reduction and delay increase at about the same rate
	// (BT, MG, LU).
	TypeII
	// TypeIII: energy falls faster than delay rises (FT, CG, SP).
	TypeIII
	// TypeIV: near-zero performance cost, linear energy saving (IS).
	TypeIV
)

func (t CrescendoType) String() string {
	switch t {
	case TypeI:
		return "I"
	case TypeII:
		return "II"
	case TypeIII:
		return "III"
	case TypeIV:
		return "IV"
	}
	return "?"
}

// Types is the paper's classification of the eight NPB codes.
var Types = map[string]CrescendoType{
	"EP": TypeI,
	"BT": TypeII, "MG": TypeII, "LU": TypeII,
	"FT": TypeIII, "CG": TypeIII, "SP": TypeIII,
	"IS": TypeIV,
}

// Table2 is the paper's Table 2: energy-performance profiles of the NPB
// class C benchmarks on NEMO (8 or 9 nodes). SP's energy column is not
// printed in the paper; its values are reconstructed from Figures 5–7 and
// flagged EnergyEstimated.
var Table2 = []Profile{
	{
		Code: "BT.C.9",
		Auto: Cell{1.36, 0.89},
		ByFreq: map[int]Cell{
			600: {1.52, 0.79}, 800: {1.27, 0.82}, 1000: {1.14, 0.87},
			1200: {1.05, 0.96}, 1400: {1.00, 1.00},
		},
	},
	{
		Code: "CG.C.8",
		Auto: Cell{1.14, 0.65},
		ByFreq: map[int]Cell{
			600: {1.14, 0.65}, 800: {1.08, 0.72}, 1000: {1.04, 0.80},
			1200: {1.02, 0.93}, 1400: {1.00, 1.00},
		},
	},
	{
		Code: "EP.C.8",
		Auto: Cell{1.01, 0.97},
		ByFreq: map[int]Cell{
			600: {2.35, 1.15}, 800: {1.75, 1.03}, 1000: {1.40, 1.02},
			1200: {1.17, 1.03}, 1400: {1.00, 1.00},
		},
	},
	{
		Code: "FT.C.8",
		Auto: Cell{1.04, 0.76},
		ByFreq: map[int]Cell{
			600: {1.13, 0.62}, 800: {1.07, 0.70}, 1000: {1.04, 0.80},
			1200: {1.02, 0.93}, 1400: {1.00, 1.00},
		},
	},
	{
		Code: "IS.C.8",
		Auto: Cell{1.02, 0.75},
		ByFreq: map[int]Cell{
			600: {1.04, 0.68}, 800: {1.01, 0.73}, 1000: {0.91, 0.75},
			1200: {1.03, 0.94}, 1400: {1.00, 1.00},
		},
	},
	{
		Code: "LU.C.8",
		Auto: Cell{1.01, 0.96},
		ByFreq: map[int]Cell{
			600: {1.58, 0.79}, 800: {1.32, 0.82}, 1000: {1.18, 0.88},
			1200: {1.07, 0.95}, 1400: {1.00, 1.00},
		},
	},
	{
		Code: "MG.C.8",
		Auto: Cell{1.32, 0.87},
		ByFreq: map[int]Cell{
			600: {1.39, 0.76}, 800: {1.21, 0.79}, 1000: {1.10, 0.85},
			1200: {1.04, 0.97}, 1400: {1.00, 1.00},
		},
	},
	{
		Code: "SP.C.9",
		Auto: Cell{1.13, 0.67},
		ByFreq: map[int]Cell{
			600: {1.18, 0.70}, 800: {1.08, 0.75}, 1000: {1.03, 0.81},
			1200: {0.99, 0.91}, 1400: {1.00, 1.00},
		},
		EnergyEstimated: true,
	},
}

// Find returns the profile whose code starts with the given benchmark name
// (e.g. "FT" matches "FT.C.8"), or nil.
func Find(code string) *Profile {
	for i := range Table2 {
		if len(Table2[i].Code) >= len(code) && Table2[i].Code[:len(code)] == code {
			return &Table2[i]
		}
	}
	return nil
}

// InternalFT is the headline Figure 11 result: FT with internal scheduling
// (high 1400 MHz, low 600 MHz around all-to-all) saves 36 % energy with no
// noticeable delay increase.
var InternalFT = Cell{Delay: 1.00, Energy: 0.64}

// InternalCG are the Figure 14 results: internal I uses 1200/800 MHz
// (ranks 0–3 high, 4–7 low), internal II uses 1000/800 MHz.
var InternalCG = map[string]Cell{
	"internal-I":  {Delay: 1.08, Energy: 0.77},
	"internal-II": {Delay: 1.08, Energy: 0.84},
}

// Swim is the Figure 2 single-node crescendo for SPEC swim: ~25 % delay
// increase at 600 MHz and ~8 % energy saving already at 1200 MHz with <1 %
// delay.
var Swim = map[int]Cell{
	600:  {1.25, 0.70},
	800:  {1.12, 0.76},
	1000: {1.05, 0.83},
	1200: {1.01, 0.92},
	1400: {1.00, 1.00},
}
