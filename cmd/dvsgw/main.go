// Command dvsgw is the fleet gateway: it exposes the same HTTP surface
// as a single dvsd instance — POST /simulate, POST /sweep (NDJSON
// stream), GET /healthz, GET /metrics — but fans a sweep's cells across
// a pool of dvsd backends, routing each cell by its content-addressed
// cache key so repeated cells land on the backend whose memo cache is
// already warm.
//
// Usage:
//
//	dvsgw -peers http://10.0.0.7:8377,http://10.0.0.8:8377
//	dvsgw -addr :8378 -peers ... -hedge-after 250ms
//
// Backends are health-checked (GET /healthz) and ejected after
// consecutive failures; cells fail over along the consistent-hash ring
// with bounded backoff retries, and when no backend can serve a cell the
// gateway runs it in-process, so a fleet of zero live backends degrades
// to single-node dvsd behaviour rather than an outage. SIGINT/SIGTERM
// drain in-flight requests (including streaming sweeps) before exit.
//
// Every sweep cell records its trip down that ladder — queue wait,
// route, retries, hedges, local fallback — as a trace served at
// GET /debug/traces (ring size -trace-buffer); W3C traceparent headers
// propagate on forwarded cells so each backend's own trace stitches
// under the cell's. -debug-addr serves the same dump plus pprof on a
// side listener.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/server"
)

func main() {
	sh := server.NewShell("dvsgw", ":8378",
		"local-fallback parallelism (0 = GOMAXPROCS)",
		"finished per-cell trace ring size served at /debug/traces (0 disables tracing)")
	peersFlag := flag.String("peers", "", "comma-separated dvsd backend base URLs (required)")
	var opts fleet.Options
	ladder := opts.Flags(flag.CommandLine)
	sh.Parse(func() error {
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				opts.Peers = append(opts.Peers, strings.TrimRight(p, "/"))
			}
		}
		if len(opts.Peers) == 0 {
			return errors.New("-peers is required: at least one dvsd backend URL")
		}
		return nil
	}, ladder)

	opts.Local = runner.New(sh.Workers())
	opts.MaxInflight = sh.MaxInflight
	opts.MaxJobs = sh.MaxJobs
	opts.DefaultTimeout = sh.DefaultTimeout
	opts.MaxTimeout = sh.MaxTimeout
	opts.Tracer = sh.Tracer
	opts.CheckpointDir = sh.CheckpointDir
	gw, err := fleet.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvsgw:", err)
		os.Exit(2)
	}
	sh.Run(gw.Frontend, fmt.Sprintf("over %d backends (fanout %d, queue %d)", len(opts.Peers), opts.Fanout, sh.MaxInflight))
	fmt.Println("dvsgw: drained")
}
