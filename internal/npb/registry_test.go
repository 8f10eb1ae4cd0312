package npb_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/spec"
)

// TestEveryCodeConstructsAtPaperRanks: the table's PaperRanks metadata
// must actually be a valid default — a zero-ranks Spec builds every
// benchmark in the table.
func TestEveryCodeConstructsAtPaperRanks(t *testing.T) {
	codes := npb.Codes()
	if len(codes) < 10 {
		t.Fatalf("expected the full suite in the table, have %v", codes)
	}
	for _, code := range codes {
		w, err := npb.Spec{Code: code, Class: "S"}.Build()
		if err != nil {
			t.Fatalf("Spec{%s}.Build at paper ranks: %v", code, err)
		}
		if w.Ranks != npb.PaperRanks(code) {
			t.Fatalf("%s built with %d ranks, want paper default %d",
				code, w.Ranks, npb.PaperRanks(code))
		}
	}
}

// TestInternalVariantMetadata: the §5.3 source-instrumented variants
// exist for exactly FT and CG, and the field-level rejection for every
// other code enumerates them.
func TestInternalVariantMetadata(t *testing.T) {
	if got, want := npb.InternalCodes(), []string{"CG", "FT"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("InternalCodes() = %v, want %v", got, want)
	}
	for _, code := range npb.InternalCodes() {
		w, err := npb.Spec{Code: code, Class: "S", Variant: "internal"}.Build()
		if err != nil {
			t.Fatalf("internal %s: %v", code, err)
		}
		if !strings.Contains(w.Name(), code) {
			t.Fatalf("internal %s built %q", code, w.Name())
		}
	}
	for _, code := range npb.Codes() {
		hasInternal := false
		for _, c := range npb.InternalCodes() {
			if c == code {
				hasInternal = true
			}
		}
		if hasInternal {
			continue
		}
		_, err := npb.Spec{Code: code, Class: "S", Variant: "internal"}.Build()
		if err == nil {
			t.Fatalf("internal variant of %s accepted; no instrumented source exists", code)
		}
		se, ok := err.(*spec.Error)
		if !ok {
			t.Fatalf("internal %s: error %T, want field-level *spec.Error", code, err)
		}
		if se.Field != "variant" {
			t.Fatalf("internal %s: blamed field %q, want variant", code, se.Field)
		}
		if !strings.Contains(se.Msg, "CG") || !strings.Contains(se.Msg, "FT") {
			t.Fatalf("internal %s: rejection %q does not enumerate CG and FT", code, se.Msg)
		}
	}
}

// TestSpecFieldRejections pins the decode contract the server's 400s are
// built from: each invalid field is blamed by its relative path.
func TestSpecFieldRejections(t *testing.T) {
	cases := []struct {
		name  string
		s     npb.Spec
		field string
	}{
		{"missing code", npb.Spec{}, "code"},
		{"unknown code", npb.Spec{Code: "ZZ"}, "code"},
		{"bad class", npb.Spec{Code: "FT", Class: "Q"}, "class"},
		{"long class", npb.Spec{Code: "FT", Class: "CC"}, "class"},
		{"negative ranks", npb.Spec{Code: "FT", Ranks: -1}, "ranks"},
		{"ranks past bound", npb.Spec{Code: "EP", Class: "S", Ranks: npb.MaxRanks + 1}, "ranks"},
		{"billion ranks", npb.Spec{Code: "EP", Class: "S", Ranks: 1 << 30}, "ranks"},
		{"bad variant", npb.Spec{Code: "FT", Variant: "turbo"}, "variant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.s.Build()
			if err == nil {
				t.Fatal("accepted")
			}
			se, ok := err.(*spec.Error)
			if !ok {
				t.Fatalf("error %T, want *spec.Error", err)
			}
			if se.Field != tc.field {
				t.Fatalf("field %q, want %q", se.Field, tc.field)
			}
		})
	}
}

// TestSpecForRoundTrip: SpecFor is Build's inverse over the whole table —
// every plain benchmark and every internal variant (at non-default
// speeds, so Params carries information) rebuilds from its spec to the
// same value identity.
func TestSpecForRoundTrip(t *testing.T) {
	// The rank bound is inclusive: MaxRanks itself builds.
	specs := []npb.Spec{{Code: "FT", Class: "S", Ranks: npb.MaxRanks}}
	for _, code := range npb.Codes() {
		specs = append(specs, npb.Spec{Code: code, Class: "S"}, npb.Spec{Code: code, Class: "W", Ranks: 4})
	}
	for _, code := range npb.InternalCodes() {
		specs = append(specs,
			npb.Spec{Code: code, Class: "S", Variant: "internal"},
			npb.Spec{Code: code, Class: "S", Ranks: 4, Variant: "internal", HighMHz: 1200, LowMHz: 800})
	}
	for _, s := range specs {
		w, err := s.Build()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		want, ok := w.ID()
		if !ok {
			t.Fatalf("%s has no value identity", w.Name())
		}
		back, ok := npb.SpecFor(w)
		if !ok {
			t.Fatalf("%s reported inexpressible", want)
		}
		rebuilt, err := back.Build()
		if err != nil {
			t.Fatalf("%s: spec %+v does not rebuild: %v", want, back, err)
		}
		if got, _ := rebuilt.ID(); got != want {
			t.Fatalf("round trip of %s gave %s", want, got)
		}
	}
}

// idlePolicy is middleware that does nothing.
type idlePolicy struct{}

func (idlePolicy) AtStart(*mpisim.Rank)                       {}
func (idlePolicy) BeforeCollective(*mpisim.Rank, string, int) {}
func (idlePolicy) AfterCollective(*mpisim.Rank, string, int)  {}

// TestSpecForInexpressible: policy variants, middleware (even under an
// empty label) and an internal variant without its speeds have no spec.
func TestSpecForInexpressible(t *testing.T) {
	comm, err := npb.CGWithPolicy(npb.ClassS, 2, npb.CGCommSlow, 1400, 600)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []npb.Workload{comm, ft.WithPolicy("", idlePolicy{}), {Code: "FT", Class: npb.ClassS, Ranks: 2, Variant: "internal"}} {
		if s, ok := npb.SpecFor(w); ok {
			t.Fatalf("%s reported expressible as %+v", w.Name(), s)
		}
	}
}
