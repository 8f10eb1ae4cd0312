package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goldenCase is one pinned invocation. "$TMP" in args expands to a
// per-case temp dir; the same path in stdout is written back as "$TMP".
type goldenCase struct {
	name  string
	tool  string // subcommand
	args  []string
	files []string // written under $TMP, pinned as testdata/<name>.<file>
	fails bool     // exits 1; testdata/<name>.stderr holds the message
}

// goldenCases pin the subcommands to the output of the standalone nemo
// (grid), dvsched (run) and powerprof (power) binaries they replaced: the
// testdata files were generated by those binaries, and every byte must
// still match. Error messages are compared after the program prefix.
var goldenCases = []goldenCase{
	{name: "grid", tool: "grid", args: []string{"-codes", "FT,CG", "-classes", "S", "-ranks", "4",
		"-freqs", "all", "-auto", "-csv", "$TMP/grid.csv"}, files: []string{"grid.csv"}},
	{name: "grid_twotier", tool: "grid", args: []string{"-codes", "FT", "-classes", "S", "-ranks", "4",
		"-freqs", "600,1000,1400", "-topology", "two-tier"}},
	{name: "grid_offtable", tool: "grid", args: []string{"-codes", "FT", "-classes", "S", "-freqs", "700"}, fails: true},
	{name: "run_trace_baseline", tool: "run", args: []string{"-code", "CG", "-class", "S", "-trace", "-baseline"}},
	{name: "run_internal", tool: "run", args: []string{"-code", "CG", "-class", "S",
		"-strategy", "internal", "-high", "1200", "-low", "800"}},
	{name: "run_powercap", tool: "run", args: []string{"-code", "CG", "-class", "S", "-strategy", "powercap", "-budget", "200"}},
	{name: "run_daemon_v11", tool: "run", args: []string{"-code", "FT", "-class", "S",
		"-strategy", "daemon", "-daemon-version", "1.1"}},
	{name: "run_autotune", tool: "run", args: []string{"-code", "CG", "-class", "S", "-strategy", "auto-tune"}},
	{name: "run_unknown_code", tool: "run", args: []string{"-code", "ZZ", "-class", "S"}, fails: true},
	{name: "power", tool: "power", args: []string{"-code", "FT", "-class", "S",
		"-profile", "$TMP/profile.csv", "-json", "$TMP/measurement.json"},
		files: []string{"profile.csv", "measurement.json"}},
	{name: "power_unknown_strategy", tool: "power", args: []string{"-code", "FT", "-class", "S", "-strategy", "warp"}, fails: true},
}

// afterPrefix drops the "<program>: " prefix of an error line.
func afterPrefix(s string) string {
	if _, rest, ok := strings.Cut(s, ": "); ok {
		return rest
	}
	return s
}

func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			tmp := t.TempDir()
			args := make([]string, len(c.args))
			for i, a := range c.args {
				args[i] = strings.ReplaceAll(a, "$TMP", tmp)
			}
			var o, e bytes.Buffer
			code := runSubcommand(c.tool, args, &o, &e)
			stdout, stderr := strings.ReplaceAll(o.String(), tmp, "$TMP"), e.String()

			got := map[string]string{"stdout": stdout}
			if c.fails {
				if code != 1 {
					t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
				}
				got["stderr"] = stderr
			} else if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			for _, f := range c.files {
				b, err := os.ReadFile(filepath.Join(tmp, f))
				if err != nil {
					t.Fatal(err)
				}
				got[f] = string(b)
			}
			for suffix, g := range got {
				path := filepath.Join("testdata", c.name+"."+suffix)
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if suffix == "stderr" {
					g, want = afterPrefix(g), []byte(afterPrefix(string(want)))
				}
				if g != string(want) {
					t.Errorf("%s differs from %s:\n--- got\n%s\n--- want\n%s", suffix, path, g, want)
				}
			}
		})
	}
}

// TestMain runs the test binary as the reproduce command itself when
// asAppEnv is set, so TestArtifactsGolden can drive main's flag parsing
// and markdown writer in a child process.
func TestMain(m *testing.M) {
	if os.Getenv(asAppEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const asAppEnv = "REPRODUCE_TEST_AS_APP"

var updateArtifacts = flag.Bool("update", false, "rewrite testdata/artifacts_<class>.md from the current model")

// TestArtifactsGolden pins every table of "reproduce -only all" at
// classes S, W, A and C through its -md file (stdout also carries
// wall-time lines). The class-S file predates folding the cluster
// assembly into core, and refactors must keep every byte of each.
// Regenerate with -update, and list every regeneration in CHANGES.md.
func TestArtifactsGolden(t *testing.T) {
	for _, class := range []string{"S", "W", "A", "C"} {
		t.Run(class, func(t *testing.T) {
			t.Parallel()
			md := filepath.Join(t.TempDir(), "artifacts.md")
			cmd := exec.Command(os.Args[0], "-class", class, "-only", "all", "-workers", "2", "-md", md)
			cmd.Env = append(os.Environ(), asAppEnv+"=1")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("reproduce: %v\n%s", err, out)
			}
			got, err := os.ReadFile(md)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "artifacts_"+class+".md")
			if *updateArtifacts {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("artifacts differ from %s:\n--- got\n%s", path, got)
			}
		})
	}
}
