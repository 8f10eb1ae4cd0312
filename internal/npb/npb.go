// Package npb provides phase-structured workload models of the NAS
// Parallel Benchmarks (EP, MG, CG, FT, IS, LU, SP, BT) plus SPEC's swim,
// the codes the paper evaluates.
//
// Each model is a per-rank script against the mpisim API that carries the
// degrees of freedom the paper's analysis depends on: iteration structure,
// communication pattern and message volumes, the split between
// frequency-sensitive compute and frequency-insensitive memory-stall time,
// and (for CG) per-rank load asymmetry. Class C parameters are calibrated
// so the delay column of the paper's Table 2 is reproduced at every
// operating point; smaller classes scale the work down for fast tests.
//
// Internal-scheduling variants implement the paper's §5.3 source
// instrumentation: FT wraps its all-to-all in set_cpuspeed calls
// (Figure 10); CG sets per-rank heterogeneous speeds (Figure 13), plus the
// two phase-based CG policies the paper reports as unprofitable.
//
// The suite is one static, code-sorted table (entries, in registry.go);
// Lookup, Codes, New and Spec select benchmarks from it, and adding a
// benchmark is adding a row.
package npb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/mpisim"
)

// Class is an NPB problem class.
type Class byte

// Problem classes: S (smallest) through C (the paper's size).
const (
	ClassS Class = 'S'
	ClassW Class = 'W'
	ClassA Class = 'A'
	ClassB Class = 'B'
	ClassC Class = 'C'
)

// scale returns the work multiplier for a class relative to class C.
// NPB classes grow roughly 4× per step; iteration counts are kept so the
// phase *structure* (what the schedulers react to) is preserved.
func (c Class) scale() (float64, error) {
	switch c {
	case ClassS:
		return 1.0 / 256, nil
	case ClassW:
		return 1.0 / 64, nil
	case ClassA:
		return 1.0 / 16, nil
	case ClassB:
		return 1.0 / 4, nil
	case ClassC:
		return 1, nil
	}
	return 0, fmt.Errorf("npb: unknown class %q", string(c))
}

// Valid reports whether c is a known class.
func (c Class) Valid() bool {
	_, err := c.scale()
	return err == nil
}

// Workload is a runnable benchmark instance.
type Workload struct {
	Code  string // "FT", "CG", ...
	Class Class
	Ranks int
	// Variant is "" for the plain benchmark, otherwise the
	// internal-scheduling variant name (e.g. "internal", "internal-I").
	Variant string
	// Params captures any builder parameters beyond code/class/ranks that
	// the Body closure bakes in (e.g. "1400/600" for FTInternal's
	// high/low speeds). It completes the workload's value identity: two
	// workloads with equal ID() run identically. Builders whose extra
	// parameters cannot be summarized (e.g. synthetic op lists) must
	// leave a non-empty Variant with empty Params, which marks the
	// workload as non-content-addressable (see ID).
	Params string
	// Body is the per-rank program.
	Body func(r *mpisim.Rank)
	// Policy is optional PMPI-style middleware (e.g. the automatic DVS
	// scheduler) installed on the world before launch.
	Policy mpisim.PhasePolicy
}

// Name returns the paper's XX.S.# naming, e.g. "FT.C.8".
func (w Workload) Name() string {
	var buf [32]byte
	return string(w.appendName(buf[:0]))
}

func (w Workload) appendName(b []byte) []byte {
	b = append(b, w.Code...)
	b = append(b, '.')
	b = utf8.AppendRune(b, rune(w.Class))
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(w.Ranks), 10)
	if w.Variant != "" {
		b = append(b, '+')
		b = append(b, w.Variant...)
	}
	return b
}

// AppendID appends the workload's full value identity — Name plus the
// builder parameters baked into Body — to b, and reports whether that
// identity is complete. It is incomplete (ok == false, b returned as
// is) when the workload is a variant that did not declare its
// parameters, or when middleware is attached: such workloads cannot
// safely be deduplicated by key.
func (w Workload) AppendID(b []byte) ([]byte, bool) {
	if w.Policy != nil || (w.Variant != "" && w.Params == "") {
		return b, false
	}
	b = w.appendName(b)
	if w.Params != "" {
		b = append(b, '@')
		b = append(b, w.Params...)
	}
	return b, true
}

// WithPolicy returns a copy of the workload with middleware attached and
// the variant label extended.
func (w Workload) WithPolicy(name string, p mpisim.PhasePolicy) Workload {
	w.Policy = p
	if w.Variant == "" {
		w.Variant = name
	} else {
		w.Variant += "+" + name
	}
	return w
}

// Launch starts the workload on a world (one rank per node).
func (w Workload) Launch(world *mpisim.World) error {
	if world.Size() != w.Ranks {
		return fmt.Errorf("npb: %s needs %d ranks, world has %d", w.Name(), w.Ranks, world.Size())
	}
	if w.Policy != nil {
		world.SetPhasePolicy(w.Policy)
	}
	return world.Launch(w.Name(), w.Body)
}

// Builder constructs a Workload for a class and rank count.
type Builder func(class Class, ranks int) (Workload, error)

// New builds the named benchmark (case-sensitive code, e.g. "FT").
func New(code string, class Class, ranks int) (Workload, error) {
	e, ok := Lookup(code)
	if !ok {
		return Workload{}, fmt.Errorf("npb: unknown benchmark %q (have %s)",
			code, strings.Join(Codes(), " "))
	}
	return e.Build(class, ranks)
}

// PaperRanks returns the rank count the paper ran each code with; unknown
// codes fall back to the suite's common count of 8.
func PaperRanks(code string) int {
	if e, ok := Lookup(code); ok {
		return e.PaperRanks
	}
	return 8
}

// checkRanks validates a rank count for the common codes.
func checkRanks(code string, ranks, min int) error {
	if ranks < min {
		return fmt.Errorf("npb: %s needs at least %d ranks, got %d", code, min, ranks)
	}
	return nil
}
