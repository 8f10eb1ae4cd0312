package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCacheDirSecondRunSimulatesNothing runs "reproduce -class S -only t2
// -cache-dir D" twice: the second run loads the first one's snapshot,
// simulates nothing, and prints the same tables.
func TestCacheDirSecondRunSimulatesNothing(t *testing.T) {
	dir := t.TempDir()
	run := func() string {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-class", "S", "-only", "t2", "-workers", "2", "-cache-dir", dir)
		cmd.Env = append(os.Environ(), asAppEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("reproduce: %v\n%s", err, out)
		}
		return string(out)
	}
	// tables drops the "(" status lines: timings and cache bookkeeping.
	tables := func(out string) string {
		var keep []string
		for _, l := range strings.Split(out, "\n") {
			if !strings.HasPrefix(l, "(") {
				keep = append(keep, l)
			}
		}
		return strings.Join(keep, "\n")
	}

	first := run()
	if !strings.Contains(first, "(snapshotted ") {
		t.Fatalf("first run wrote no snapshot:\n%s", first)
	}
	second := run()
	snap := filepath.Join(dir, "cache.ndjson")
	if m := regexp.MustCompile(`\(loaded ([0-9]+) cached cells from (.*)\)`).FindStringSubmatch(second); m == nil || m[1] == "0" || m[2] != snap {
		t.Fatalf("second run did not load the snapshot %s:\n%s", snap, second)
	}
	if !strings.Contains(second, "(sweep engine: 0 simulations run,") {
		t.Fatalf("second run simulated cells despite the snapshot:\n%s", second)
	}
	if a, b := tables(first), tables(second); a != b {
		t.Fatalf("tables differ between the cold and the cached run:\n%s\n---\n%s", a, b)
	}
}
