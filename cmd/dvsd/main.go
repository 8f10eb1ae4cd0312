// Command dvsd serves the DVS scheduling simulator over HTTP: a
// long-lived daemon fronting the parallel sweep engine, so grid cells
// memoize across requests and clients.
//
// Usage:
//
//	dvsd                      # serve on :8377, all cores
//	dvsd -addr :9000 -workers 8 -queue 16
//	dvsd -cache-dir /var/lib/dvsd   # persist the memo cache across restarts
//
// Endpoints: POST /simulate, POST /sweep (NDJSON stream), GET /healthz,
// GET /metrics, GET /debug/traces (recent request traces; ring size set
// by -trace-buffer, also served with pprof on -debug-addr when given).
// SIGINT/SIGTERM drain in-flight requests before exit; with
// -cache-dir the drained process snapshots its memo cache and the next
// start reloads it, so repeated jobs stay cache hits across restarts.
//
//	curl -s localhost:8377/simulate -d '{
//	  "workload": {"code": "FT", "class": "W", "ranks": 8},
//	  "strategy": {"kind": "external", "freq_mhz": 600}
//	}'
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/runner"
	"repro/internal/server"
)

func main() {
	sh := server.NewShell("dvsd", ":8377",
		"sweep-engine parallelism (0 = GOMAXPROCS, 1 = serial)",
		"finished-trace ring size served at /debug/traces (0 disables tracing)")
	cacheEntries := flag.Int("cache-entries", runner.DefaultMaxEntries, "memo-cache bound in entries (LRU eviction beyond it)")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent memo-cache snapshot, loaded at startup and written on graceful drain (empty = in-memory only)")
	sh.Parse(func() error {
		if *cacheEntries < 0 {
			// The library reads any bound <= 0 as the default; on the
			// command line only 0 spells that, so a negative value is a
			// mistake to report, not to reinterpret.
			return fmt.Errorf("invalid -cache-entries %d: want >= 0 (0 = default %d)", *cacheEntries, runner.DefaultMaxEntries)
		}
		return nil
	})

	sh.Runner = runner.NewWithOptions(runner.Options{
		Workers:    sh.Workers(),
		MaxEntries: *cacheEntries,
	})
	var snapshot string
	if *cacheDir != "" {
		snapshot = filepath.Join(*cacheDir, "cache.ndjson")
		n, err := sh.Runner.LoadCache(snapshot)
		if err != nil {
			// A bad snapshot degrades to a cold cache; refusing to start
			// would turn a disk problem into an outage.
			fmt.Fprintln(os.Stderr, "dvsd: cache load:", err)
		}
		if n > 0 {
			fmt.Printf("dvsd: loaded %d cached cells from %s\n", n, snapshot)
		}
	}

	sh.Run(server.New(sh.Options).Frontend, fmt.Sprintf("(%d workers, queue %d)", sh.Runner.Workers(), sh.MaxInflight))
	if snapshot != "" {
		if n, err := sh.Runner.SaveCache(snapshot); err != nil {
			fmt.Fprintln(os.Stderr, "dvsd: cache save:", err)
		} else {
			fmt.Printf("dvsd: snapshotted %d cached cells to %s\n", n, snapshot)
		}
	}
	st := sh.Runner.Stats()
	fmt.Printf("dvsd: drained; %d simulations run, %d cache hits, %d panics contained\n",
		st.Runs, st.Hits, st.Panics)
}
