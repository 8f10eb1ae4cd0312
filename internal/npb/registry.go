// The workload table: benchmark code → constructor plus the metadata
// that used to be scattered switches (the paper's rank count per code, and
// which codes carry a §5.3 source-instrumented "internal" variant). The
// dvsd service and every CLI binary select workloads through one shared
// parse form, Spec — adding a benchmark is one entries row.
package npb

import (
	"fmt"
	"strings"

	"repro/internal/dvs"
	"repro/internal/spec"
)

// InternalBuilder constructs a source-instrumented variant of a benchmark
// with the paper's two-speed internal scheduling (§5.3).
type InternalBuilder func(class Class, ranks int, high, low dvs.MHz) (Workload, error)

// Entry is one benchmark of the table: its constructor plus the
// variant-aware metadata the wire and CLI decoders need.
type Entry struct {
	// Code is the benchmark name ("FT", "CG", ...), case-sensitive.
	Code string
	// Build constructs the plain benchmark.
	Build Builder
	// PaperRanks is the rank count the paper ran this code with.
	PaperRanks int
	// Internal constructs the §5.3 source-instrumented variant; nil when
	// the paper instrumented no such variant for this code.
	Internal InternalBuilder
}

// entries is the paper's benchmark suite, sorted by code: each code with
// the rank count the paper ran it at (XX.C.8, except BT/SP/BTIO, which
// need a square count: 9, and the single-node SPEC swim) and, for FT and
// CG, the §5.3 source-instrumented internal variant.
var entries = []Entry{
	{Code: "BT", Build: BT, PaperRanks: 9},
	{Code: "BTIO", Build: BTIO, PaperRanks: 9},
	{Code: "CG", Build: CG, PaperRanks: 8, Internal: CGInternal},
	{Code: "EP", Build: EP, PaperRanks: 8},
	{Code: "FT", Build: FT, PaperRanks: 8, Internal: FTInternal},
	{Code: "IS", Build: IS, PaperRanks: 8},
	{Code: "LU", Build: LU, PaperRanks: 8},
	{Code: "MG", Build: MG, PaperRanks: 8},
	{Code: "SP", Build: SP, PaperRanks: 9},
	{Code: "SWIM", Build: Swim, PaperRanks: 1},
}

// Lookup returns the table entry for a benchmark code.
func Lookup(code string) (Entry, bool) {
	for _, e := range entries {
		if e.Code == code {
			return e, true
		}
	}
	return Entry{}, false
}

// Codes returns the benchmark names, sorted.
func Codes() []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Code
	}
	return out
}

// InternalCodes returns the codes with a §5.3 internal variant, sorted.
func InternalCodes() []string {
	var out []string
	for _, e := range entries {
		if e.Internal != nil {
			out = append(out, e.Code)
		}
	}
	return out
}

// Spec is the shared parse form of a workload selection and the dvsd
// service's JSON wire form: the CLI binaries fill it from their flags,
// dvsd decodes it from a request body, and SpecFor writes it back from a
// workload. Zero values select the paper's defaults. Build rejects
// invalid fields with a *spec.Error naming the offending parameter
// relative to the workload object ("code", "class", ...).
type Spec struct {
	// Code is the benchmark name (required; see Codes).
	Code string `json:"code"`
	// Class is the NPB problem class letter (S, W, A, B, C); "" = C, the
	// paper's size.
	Class string `json:"class,omitempty"`
	// Ranks is the MPI world size, at most MaxRanks; 0 = the paper's
	// count for the code.
	Ranks int `json:"ranks,omitempty"`
	// Variant selects an instrumented build: "" for plain, "internal" for
	// the §5.3 source-instrumented variants.
	Variant string `json:"variant,omitempty"`
	// HighMHz/LowMHz are the internal variant's two speeds; 0 = the
	// paper's Figure 10 settings (1400/600).
	HighMHz float64 `json:"high_mhz,omitempty"`
	LowMHz  float64 `json:"low_mhz,omitempty"`
}

// MaxRanks bounds Spec.Ranks. The paper ran 16 nodes; all-to-all traffic
// grows as ranks², and a world of a billion ranks exhausts memory before
// the first event, which no deadline or panic handler can stop.
const MaxRanks = 256

// Build compiles the spec into a runnable workload through the table.
func (s Spec) Build() (Workload, error) {
	if s.Code == "" {
		return Workload{}, spec.Errorf("code", "required; one of %s", strings.Join(Codes(), ", "))
	}
	e, ok := Lookup(s.Code)
	if !ok {
		return Workload{}, spec.Errorf("code", "unknown benchmark %q; one of %s",
			s.Code, strings.Join(Codes(), ", "))
	}
	class := ClassC
	if s.Class != "" {
		if len(s.Class) != 1 || !Class(s.Class[0]).Valid() {
			return Workload{}, spec.Errorf("class",
				"%q is not a class; want a single letter among S, W, A, B, C", s.Class)
		}
		class = Class(s.Class[0])
	}
	ranks := s.Ranks
	if ranks == 0 {
		ranks = e.PaperRanks
	}
	if ranks < 0 || ranks > MaxRanks {
		return Workload{}, spec.Errorf("ranks", "must be in [1,%d], got %d", MaxRanks, ranks)
	}
	high, low := dvs.MHz(s.HighMHz), dvs.MHz(s.LowMHz)
	if high == 0 {
		high = 1400
	}
	if low == 0 {
		low = 600
	}
	var (
		w   Workload
		err error
	)
	switch s.Variant {
	case "":
		w, err = e.Build(class, ranks)
	case "internal":
		if e.Internal == nil {
			return Workload{}, spec.Errorf("variant",
				"internal instrumentation exists only for %s, not %s",
				strings.Join(InternalCodes(), " and "), s.Code)
		}
		w, err = e.Internal(class, ranks, high, low)
	default:
		return Workload{}, spec.Errorf("variant", "unknown variant %q; want \"\" or \"internal\"", s.Variant)
	}
	if err != nil {
		return Workload{}, spec.Errorf("", "%v", err)
	}
	return w, nil
}

// SpecFor is the inverse of Spec.Build: the spec that rebuilds w, and
// whether one exists. Plain benchmarks and the "internal" variants have
// one; policy variants (internal-comm, ...) and middleware do not.
func SpecFor(w Workload) (Spec, bool) {
	s := Spec{Code: w.Code, Class: string(w.Class), Ranks: w.Ranks, Variant: w.Variant}
	switch {
	case w.Policy != nil:
		return Spec{}, false
	case w.Variant == "":
		return s, true
	case w.Variant == "internal":
		if _, err := fmt.Sscanf(w.Params, "%f/%f", &s.HighMHz, &s.LowMHz); err == nil {
			return s, true
		}
	}
	return Spec{}, false
}

// speedParams renders a two-speed variant's high/low MHz as its Params,
// the form SpecFor reads back.
func speedParams(high, low dvs.MHz) string {
	return fmt.Sprintf("%.0f/%.0f", float64(high), float64(low))
}
