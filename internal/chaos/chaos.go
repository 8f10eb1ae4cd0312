package chaos

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sweep"
)

// grid is the sweep the harness drives: 2 workloads × 4 strategies = 8
// cells, each sub-10ms, so a 200-seed sweep stays in test-suite time
// while still exercising routing, retry failover, hedging, shedding,
// local fallback, and the checkpoint journal.
const grid = `{"workloads":[{"code":"FT","class":"S","ranks":2},{"code":"CG","class":"S","ranks":2}],
 "strategies":[{"kind":"nodvs"},{"kind":"external","freq_mhz":600},{"kind":"external","freq_mhz":800},{"kind":"daemon"}]}`

// Env is the fixed part of the harness: real dvsd backends (full HTTP
// stack, shared memo caches), a local-fallback runner, and the
// fault-free reference stream every seeded run is compared against.
// One Env is shared across a seed sweep — per-seed state (gateway,
// transport, journal) is rebuilt by Run.
type Env struct {
	servers []*httptest.Server
	// URLs are the backend base URLs.
	URLs []string
	// Local is the gateway's in-process fallback runner.
	Local *runner.Runner
	// N is the plan size.
	N int
	// Reference maps cell index → raw result JSON from a fault-free run.
	// The cached flag is deliberately outside the comparison: a faulted
	// run's retries legitimately warm caches.
	Reference map[int]string

	req map[string]any
}

// NewEnv starts n real dvsd backends and computes the fault-free
// reference stream by sweeping directly against the first of them.
func NewEnv(n int) (*Env, error) {
	e := &Env{}
	for i := 0; i < n; i++ {
		s := server.New(server.Options{
			Runner: runner.New(2),
			// High enough that the gateway's fan-out can never trip real
			// admission control: every 429 in a chaos run is injected, so
			// the shed-accounting invariant has no confound.
			MaxInflight: 64,
		})
		ts := httptest.NewServer(s.Handler())
		e.servers = append(e.servers, ts)
		e.URLs = append(e.URLs, ts.URL)
	}
	if err := json.Unmarshal([]byte(grid), &e.req); err != nil {
		e.Close()
		return nil, fmt.Errorf("chaos: grid: %w", err)
	}
	e.Local = runner.New(2)

	resp, err := http.Post(e.URLs[0]+"/sweep", "application/json", bytes.NewReader([]byte(grid)))
	if err != nil {
		e.Close()
		return nil, fmt.Errorf("chaos: reference sweep: %w", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		e.Close()
		return nil, fmt.Errorf("chaos: reference sweep: %w", err)
	}
	recs, trailer, err := parseStream(buf.Bytes())
	if err != nil || trailer.Errors != 0 {
		e.Close()
		return nil, fmt.Errorf("chaos: reference sweep unusable (err=%v, errors=%d)", err, trailer.Errors)
	}
	e.N = trailer.Jobs
	e.Reference = make(map[int]string, len(recs))
	for _, r := range recs {
		e.Reference[r.Index] = string(r.Result)
	}
	return e, nil
}

// Close shuts the backends down.
func (e *Env) Close() {
	for _, ts := range e.servers {
		ts.Close()
	}
}

// body renders the sweep request with the schedule's timeout.
func (e *Env) body(timeoutMS float64) []byte {
	req := make(map[string]any, len(e.req)+1)
	for k, v := range e.req {
		req[k] = v
	}
	if timeoutMS > 0 {
		req["timeout_ms"] = timeoutMS
	}
	b, _ := json.Marshal(req)
	return b
}

// Schedule is one seeded run's shape: the transport fault mix plus the
// gateway ladder configuration it runs against, and optionally a
// checkpointed leg with a journal crash and a resume.
type Schedule struct {
	// Profile names the schedule in reports ("storm", "mixed", …).
	Profile string
	// Env supplies backends and the reference stream; nil builds (and
	// tears down) a private one — fine for a single run, wasteful in a
	// seed sweep.
	Env *Env

	// Transport is the wire fault mix.
	Transport Plan

	// Ladder configuration, passed through to fleet.Options.
	MaxAttempts int
	Backoff     time.Duration
	MaxBackoff  time.Duration
	HedgeAfter  time.Duration
	ShedBudget  time.Duration
	Fanout      int
	// TimeoutMS is the per-request deadline sent with the sweep.
	TimeoutMS float64

	// Checkpoint journals the sweep. CrashAtOp > 0 additionally freezes
	// the journal at that mutating op (see FS) and runs a second,
	// clean-FS gateway over the same journal to check the resume
	// contract.
	Checkpoint bool
	CrashAtOp  int64
}

func (s Schedule) fanout() int {
	if s.Fanout > 0 {
		return s.Fanout
	}
	return 8
}

// splitmix is splitmix64: one 64-bit hash step, the usual seed expander.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit derives uniform [0,1) lane l of a seed.
func unit(seed uint64, l uint64) float64 {
	return float64(splitmix(seed^splitmix(l))>>11) / float64(1<<53)
}

// ScheduleFor derives a seed's schedule. Seeds cycle through four
// profiles — mixed (hash-derived probabilities, plus a journal crash and
// resume), storm (every attempt refused: drives the retry ladder to its
// attempt bound and the backoff arithmetic to large n), saturate (every
// attempt shed with 429: drives the shed budget to exhaustion), and
// straggler (latency spikes + torn bodies under hedging) — so a
// `-chaos.seeds=N` sweep explores all of them.
func ScheduleFor(seed int64) Schedule {
	s := Schedule{
		MaxAttempts: 5,
		Backoff:     100 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
		ShedBudget:  50 * time.Millisecond,
		TimeoutMS:   15000,
	}
	h := splitmix(uint64(seed))
	switch ((seed % 4) + 4) % 4 {
	case 1:
		s.Profile = "storm"
		s.Transport = Plan{PConnRefused: 1}
		// Deep attempt budget with near-zero delays: retry number climbs
		// past 50, which is what catches backoff arithmetic that only
		// misbehaves at large n (shift overflow).
		s.MaxAttempts = 64
		s.Backoff = time.Microsecond
		s.MaxBackoff = time.Millisecond
		s.TimeoutMS = 10000
	case 2:
		s.Profile = "saturate"
		s.Transport = Plan{P429: 1, RetryAfterMS: 1}
		// A permanently saturated backend: the shed budget must bound the
		// waiting and the cell must degrade to local fallback well inside
		// the 3s deadline — an unbounded shed loop times the cell out.
		s.ShedBudget = 10 * time.Millisecond
		s.MaxAttempts = 2
		s.TimeoutMS = 3000
	case 3:
		s.Profile = "straggler"
		s.Transport = Plan{PLatency: 0.6, MaxLatency: 8 * time.Millisecond, PCutBody: 0.1}
		s.HedgeAfter = 2 * time.Millisecond
	default:
		s.Profile = "mixed"
		s.Transport = Plan{
			PConnRefused: 0.3 * unit(h, 0),
			PCutBody:     0.3 * unit(h, 1),
			P429:         0.3 * unit(h, 2),
			P500:         0.2 * unit(h, 3),
			PLatency:     0.3 * unit(h, 4),
			MaxLatency:   4 * time.Millisecond,
			RetryAfterMS: 1,
		}
		s.Checkpoint = true
		// Land the crash anywhere from mid-compaction to the final
		// record append, so resumes replay prefixes of every length.
		s.CrashAtOp = 2 + int64(h%11)
	}
	return s
}

// Report is one seeded run's outcome.
type Report struct {
	Seed       int64
	Profile    string
	Violations []Violation
	// Faults is what the transport injected; Counters is how the gateway
	// accounted for it.
	Faults   Counts
	Counters fleet.Counters
	// JournalPrefix/ResumeCounters describe the resume leg, when one ran.
	JournalPrefix  int
	ResumeCounters fleet.Counters
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

func (r *Report) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "seed %d (%s): %d violation(s); faults: %s; counters: %+v",
		r.Seed, r.Profile, len(r.Violations), r.Faults, r.Counters)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  [%s] %s", v.Invariant, v.Detail)
	}
	return b.String()
}

// Run executes one seeded fault schedule end to end — gateway over real
// backends, seeded transport (and journal) faults — and checks the given
// invariants against everything observed. The returned error is a
// harness failure (could not even run); invariant violations are data,
// in Report.Violations.
func Run(seed int64, sched Schedule, invs []Invariant) (*Report, error) {
	env := sched.Env
	if env == nil {
		var err error
		env, err = NewEnv(2)
		if err != nil {
			return nil, err
		}
		defer env.Close()
	}
	obsd := &Observed{Seed: seed, Sched: sched, N: env.N, Reference: env.Reference}

	var ckptDir string
	var cfs *FS
	if sched.Checkpoint {
		dir, err := os.MkdirTemp("", "chaos-ckpt-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		ckptDir = dir
		if sched.CrashAtOp > 0 {
			cfs = &FS{CrashAtOp: sched.CrashAtOp}
		}
	}

	tr := &Transport{Seed: seed, Plan: sched.Transport}
	g, err := gatewayFor(env, sched, tr, ckptDir, cfs)
	if err != nil {
		return nil, err
	}
	obsd.Records, obsd.Trailer, err = postSweep(g, env.body(sched.TimeoutMS))
	if err != nil {
		return nil, fmt.Errorf("chaos: seed %d run: %w", seed, err)
	}
	obsd.Counters = g.Counters()
	obsd.Faults = tr.Counts()

	if sched.Checkpoint && sched.CrashAtOp > 0 {
		// The journal is frozen wherever the crash left it. A fresh
		// gateway — clean FS, same fault schedule — must replay exactly
		// the intact prefix and recompute the rest.
		obsd.JournalPrefix = journalPrefix(ckptDir)
		tr2 := &Transport{Seed: seed, Plan: sched.Transport}
		g2, err := gatewayFor(env, sched, tr2, ckptDir, nil)
		if err != nil {
			return nil, err
		}
		obsd.ResumeRecords, obsd.ResumeTrailer, err = postSweep(g2, env.body(sched.TimeoutMS))
		if err != nil {
			return nil, fmt.Errorf("chaos: seed %d resume: %w", seed, err)
		}
		obsd.ResumeCounters = g2.Counters()
		obsd.Resumed = true
		obsd.JournalGone = len(journalFiles(ckptDir)) == 0
	}

	rep := &Report{
		Seed: seed, Profile: sched.Profile,
		Faults: obsd.Faults, Counters: obsd.Counters,
		JournalPrefix: obsd.JournalPrefix, ResumeCounters: obsd.ResumeCounters,
	}
	for _, inv := range invs {
		rep.Violations = append(rep.Violations, inv.Check(obsd)...)
	}
	return rep, nil
}

func gatewayFor(env *Env, sched Schedule, tr *Transport, ckptDir string, cfs *FS) (*fleet.Gateway, error) {
	opts := fleet.Options{
		Peers:       env.URLs,
		Local:       env.Local,
		Client:      &http.Client{Transport: tr},
		MaxInflight: 4,
		Fanout:      sched.fanout(),
		MaxAttempts: sched.MaxAttempts,
		Backoff:     sched.Backoff,
		MaxBackoff:  sched.MaxBackoff,
		HedgeAfter:  sched.HedgeAfter,
		ShedBudget:  sched.ShedBudget,
		// Backends stay admitted no matter how many injected faults they
		// absorb: ejection would route attempts away from the fault
		// schedule (and probes are never started, so nothing would
		// re-admit them).
		FailAfter:     1 << 30,
		CheckpointDir: ckptDir,
	}
	if cfs != nil {
		opts.CheckpointFS = cfs
	}
	// Note: the gateway is driven through its handler without Start(), so
	// no health probes run — every round trip the Transport sees is a
	// cell forward.
	return fleet.New(opts)
}

// Line is one decoded NDJSON stream line — the union of a cell record
// and the done trailer, mirroring the wire contract clients decode.
// Result stays raw for byte-level comparison.
type Line struct {
	Index  int             `json:"index"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Error  *sweep.APIError `json:"error"`

	Done        bool `json:"done"`
	Jobs        int  `json:"jobs"`
	CachedCells int  `json:"cached_cells"`
	Errors      int  `json:"errors"`
}

// postSweep drives one sweep through the gateway's HTTP handler and
// decodes the stream.
func postSweep(g *fleet.Gateway, body []byte) ([]Line, Line, error) {
	req := httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, Line{}, fmt.Errorf("sweep status %d: %s", rec.Code, rec.Body.String())
	}
	return parseStream(rec.Body.Bytes())
}

func parseStream(raw []byte) ([]Line, Line, error) {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var lines []Line
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l Line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, Line{}, fmt.Errorf("stream line is not JSON: %w (%s)", err, sc.Text())
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		return nil, Line{}, err
	}
	if len(lines) == 0 {
		return nil, Line{}, fmt.Errorf("empty stream")
	}
	last := lines[len(lines)-1]
	if !last.Done {
		return nil, Line{}, fmt.Errorf("stream not terminated by a done trailer")
	}
	return lines[:len(lines)-1], last, nil
}

// journalFiles lists the checkpoint journals in dir.
func journalFiles(dir string) []string {
	m, _ := filepath.Glob(filepath.Join(dir, "sweep-*.ndjson"))
	return m
}

// journalPrefix counts the intact records at the head of dir's journal,
// mirroring the loader's discipline: a valid header, then records until
// the first torn or malformed line. This is the ground truth the
// resume-replays-journal invariant compares the gateway's resumed
// counter against.
func journalPrefix(dir string) int {
	files := journalFiles(dir)
	if len(files) != 1 {
		return 0
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	if !sc.Scan() {
		return 0
	}
	var hdr struct {
		V    int    `json:"v"`
		Plan string `json:"plan"`
	}
	if json.Unmarshal(sc.Bytes(), &hdr) != nil || hdr.Plan == "" {
		return 0
	}
	n := 0
	for sc.Scan() {
		var rec struct {
			Index  *int            `json:"index"`
			Result json.RawMessage `json:"result"`
		}
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Index == nil || rec.Result == nil {
			break
		}
		n++
	}
	return n
}
