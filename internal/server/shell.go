package server

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Shell is the process shell dvsd and dvsgw share: the service flags,
// bound onto Options and validated in one place, and the serve→drain
// lifecycle around Frontend.Run. Each daemon's main adds only its own
// flags and what it does before serving and after draining.
type Shell struct {
	// Options holds -queue, -max-jobs, -timeout, -max-timeout and
	// -checkpoint-dir; Parse sets Tracer from -trace-buffer.
	Options

	name, addr, debugAddr string
	workers, traceBuffer  int
	drain                 time.Duration
}

// NewShell registers the shared flags on the command line, each
// defaulting to what the frontend would fill in for a zero Options. addr
// is the daemon's default listen address; workers and traces are its
// help texts for -workers and -trace-buffer.
func NewShell(name, addr, workers, traces string) *Shell {
	d := Options{}.withDefaults()
	s := &Shell{name: name}
	flag.StringVar(&s.addr, "addr", addr, "listen address")
	flag.IntVar(&s.workers, "workers", 0, workers)
	flag.IntVar(&s.MaxInflight, "queue", d.MaxInflight, "admission queue bound: concurrent requests admitted before shedding with 429")
	flag.IntVar(&s.MaxJobs, "max-jobs", d.MaxJobs, "maximum grid cells per sweep request")
	flag.DurationVar(&s.DefaultTimeout, "timeout", d.DefaultTimeout, "default per-request deadline")
	flag.DurationVar(&s.MaxTimeout, "max-timeout", d.MaxTimeout, "clamp on client-requested deadlines")
	flag.DurationVar(&s.drain, "drain", 30*time.Second, "graceful-shutdown drain budget for in-flight requests")
	flag.IntVar(&s.traceBuffer, "trace-buffer", 256, traces)
	flag.StringVar(&s.debugAddr, "debug-addr", "", "side listener for /debug/pprof and /debug/traces, off the service port and its admission gate (empty = disabled)")
	flag.StringVar(&s.CheckpointDir, "checkpoint-dir", "", "directory for sweep checkpoint journals: completed cells are journaled as they stream, and re-posting an interrupted sweep resumes instead of recomputing (empty = off)")
	return s
}

// Parse parses the command line and validates it: the daemon's own
// checks first, then the shared flags. A rejected value exits 2 with the
// check's message and the usage. Parse then creates -checkpoint-dir and
// the tracer.
func (s *Shell) Parse(checks ...func() error) {
	flag.Parse()
	for _, check := range append(checks, s.check) {
		if err := check(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n\n", s.name, err)
			flag.Usage()
			os.Exit(2)
		}
	}
	if s.CheckpointDir != "" {
		if err := os.MkdirAll(s.CheckpointDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "%s: -checkpoint-dir: %v\n", s.name, err)
			os.Exit(2)
		}
	}
	s.Tracer = obs.New(s.name, s.traceBuffer)
}

// Workers is -workers: the daemon's runner parallelism (0 = GOMAXPROCS).
func (s *Shell) Workers() int { return s.workers }

func (s *Shell) check() error {
	switch {
	case s.workers < 0:
		return fmt.Errorf("invalid -workers %d: want >= 0 (0 = all cores)", s.workers)
	case s.MaxInflight <= 0:
		return fmt.Errorf("invalid -queue %d: want > 0", s.MaxInflight)
	case s.traceBuffer < 0:
		return fmt.Errorf("invalid -trace-buffer %d: want >= 0 (0 = tracing off)", s.traceBuffer)
	}
	return nil
}

// Run prints the startup lines, serves f until SIGINT or SIGTERM, and
// drains it; banner follows "serving on <addr>". The first signal
// restores the default signal handling, so a second one kills the
// process without waiting for the drain. A failed listen, serve or drain
// exits 1.
func (s *Shell) Run(f *Frontend, banner string) {
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, drain := context.WithCancel(context.Background())
	context.AfterFunc(sig, func() {
		stop()
		fmt.Printf("%s: draining in-flight requests...\n", s.name)
		drain()
	})
	if s.debugAddr != "" {
		fmt.Printf("%s: debug surface on %s (/debug/pprof, /debug/traces)\n", s.name, s.debugAddr)
	}
	fmt.Printf("%s: serving on %s %s\n", s.name, s.addr, banner)
	if err := f.Run(ctx, s.addr, s.debugAddr, s.drain); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", s.name, err)
		os.Exit(1)
	}
}
