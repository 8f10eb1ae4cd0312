package main

import (
	"flag"
	"io"
	"maps"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/npb"
)

// flagSet returns the named subcommand's parsed-nothing flag set.
func flagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	subcommands[name](fs)
	return fs
}

// TestSubcommandFlags pins each subcommand's flag names and defaults to
// those of the binary it replaced (nemo, dvsched, powerprof).
func TestSubcommandFlags(t *testing.T) {
	want := map[string]map[string]string{
		"grid": {"codes": "FT", "classes": "W", "ranks": "8", "freqs": "all",
			"auto": "false", "topology": "single", "csv": ""},
		"run": {"code": "FT", "class": "C", "ranks": "0", "strategy": "none", "freq": "600",
			"daemon-version": "1.2.1", "budget": "200", "high": "1400", "low": "600",
			"baseline": "false", "trace": "false"},
		"power": {"code": "FT", "class": "B", "ranks": "0", "strategy": "none", "freq": "600",
			"budget": "200", "sample": "1s", "warmup": "5m0s", "profile": "", "json": ""},
	}
	if len(subcommands) != len(want) {
		t.Fatalf("%d subcommands, want %d", len(subcommands), len(want))
	}
	for name, w := range want {
		got := map[string]string{}
		flagSet(name).VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if !maps.Equal(got, w) {
			t.Errorf("%s flags = %v, want %v", name, got, w)
		}
	}
	// run's flags that auto-tune cannot honour are usage errors (exit 2,
	// naming the flag), not silently dropped.
	for _, name := range []string{"-trace", "-baseline"} {
		var o, e strings.Builder
		code := runSubcommand("run", []string{"-code", "CG", "-class", "S", "-strategy", "auto-tune", name}, &o, &e)
		if code != 2 || o.Len() != 0 || !strings.Contains(e.String(), name+" does not apply to -strategy auto-tune") {
			t.Errorf("run -strategy auto-tune %s: exit %d, stdout %q, stderr %q", name, code, o.String(), e.String())
		}
	}
}

func TestStrategyAliasesAndPresets(t *testing.T) {
	tab := core.DefaultConfig().Node.Table
	for _, name := range []string{"", "none", "nodvs"} {
		s, err := cliStrategy(core.StrategySpec{Kind: name}, tab, 8)
		if err != nil {
			t.Fatalf("cliStrategy(%q): %v", name, err)
		}
		if s.Kind != core.KindNoDVS {
			t.Fatalf("cliStrategy(%q).Kind = %d, want nodvs", name, s.Kind)
		}
	}
	// The historical -daemon-version values ("1.1") and the registry's
	// preset names ("v1.1") both resolve.
	for _, preset := range []string{"1.1", "v1.1", "1.2.1", "v1.2.1"} {
		if _, err := cliStrategy(core.StrategySpec{Kind: "daemon", Preset: preset}, tab, 8); err != nil {
			t.Fatalf("daemon preset %q rejected: %v", preset, err)
		}
	}
	for _, s := range []core.StrategySpec{
		{Kind: "daemon", Preset: "9.9"},
		{Kind: "external", FreqMHz: 700},
		{Kind: "warp"},
	} {
		if _, err := cliStrategy(s, tab, 8); err == nil {
			t.Fatalf("cliStrategy(%+v) accepted", s)
		}
	}
}

func TestWorkloadThroughRegistry(t *testing.T) {
	cfg := core.DefaultConfig()
	j, err := cliJob(npb.Spec{Code: "FT", Class: "S"}, core.StrategySpec{Kind: "none"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if j.Workload.Ranks != npb.PaperRanks("FT") {
		t.Fatalf("ranks %d, want paper default %d", j.Workload.Ranks, npb.PaperRanks("FT"))
	}
	for _, spec := range []npb.Spec{
		{Code: "ZZ", Class: "S"},
		{Code: "EP", Class: "S", Variant: "internal"},
	} {
		if _, err := cliJob(spec, core.StrategySpec{Kind: "none"}, cfg); err == nil {
			t.Fatalf("cliJob(%+v) accepted", spec)
		}
	}
}

func TestUsageStringsEnumerateRegistries(t *testing.T) {
	usage := func(sub, name string) string { return flagSet(sub).Lookup(name).Usage }
	for sub, extra := range map[string][]string{"run": {"internal", "auto-tune"}, "power": nil} {
		u := usage(sub, "strategy")
		for _, want := range append(append(core.StrategyNames(), "none"), extra...) {
			if !strings.Contains(u, want) {
				t.Fatalf("%s -strategy usage %q missing %q", sub, u, want)
			}
		}
	}
	for _, u := range []string{usage("grid", "codes"), usage("run", "code"), usage("power", "code")} {
		for _, code := range npb.Codes() {
			if !strings.Contains(u, code) {
				t.Fatalf("-code usage %q missing %q", u, code)
			}
		}
	}
}
