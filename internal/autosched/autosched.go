// Package autosched is the automation layer the paper names as future
// work (§7: "our techniques are largely manual and more work is needed to
// fully automate the process ... middleware that alleviates users from
// thinking about power and energy consumption").
//
// It turns the paper's manual §5.3 procedure into a pipeline:
//
//  1. Profile — run the application once at full speed under the
//     MPE-analogue tracer and collect per-rank phase mixes and
//     per-collective durations (the paper's "performance profiling" step);
//  2. Analyze — decide a Schedule: per-rank base frequencies from the
//     microbenchmark database (heterogeneous when ranks are asymmetric, as
//     in CG), plus a low-speed wrap for collective phases long enough to
//     amortize the set_cpuspeed cost (as in FT);
//  3. Apply — install the schedule as PMPI-style middleware
//     (mpisim.PhasePolicy): no source changes, exactly the interposition a
//     production tool would use.
//
// The result reproduces the paper's hand schedules: FT gets its all-to-all
// wrap, CG gets heterogeneous speeds, EP is left alone.
package autosched

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/micro"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/trace"
)

// Config tunes the analyzer.
type Config struct {
	// Metric exponent for operating-point selection (3 = ED3P, the
	// paper's performance-constrained choice; 2 = ED2P).
	MetricExponent int
	// MinPhase: only collectives whose profiled mean duration is at least
	// this long are wrapped (must dominate the set_cpuspeed software cost
	// and transition latency).
	MinPhase time.Duration
	// AsymmetryThreshold: per-rank heterogeneous frequencies are assigned
	// when the max/min comm-to-comp ratio across ranks exceeds this.
	AsymmetryThreshold float64
	// WrapLow is the speed used inside wrapped phases (0 = table bottom).
	WrapLow dvs.MHz
}

// DefaultConfig mirrors the paper's choices: ED3P, phases must be ≥ 200×
// the ~1 ms set_cpuspeed cost, CG-scale asymmetry triggers heterogeneity.
func DefaultConfig() Config {
	return Config{
		MetricExponent:     3,
		MinPhase:           200 * time.Millisecond,
		AsymmetryThreshold: 1.15,
	}
}

// PhaseKey identifies a collective site by operation name; sizes are
// folded into the profile's mean.
type PhaseKey string

// PhaseStat is the profiled behaviour of one collective operation.
type PhaseStat struct {
	Count int
	Mean  time.Duration
	Bytes int64
}

// Profile is the measured behaviour the analyzer consumes.
type Profile struct {
	Workload  string
	Elapsed   time.Duration
	RankMixes []micro.Mix // per-rank compute/memory/comm fractions
	Asymmetry float64     // max/min comm:comp across ranks
	Phases    map[PhaseKey]PhaseStat
}

// ProfileWorkload runs the profiling pass: one full-speed traced run.
// Tracing is passive, so the run's result is also the workload's NoDVS
// baseline, returned alongside the profile.
func ProfileWorkload(w npb.Workload, cfg core.Config) (*Profile, core.Result, error) {
	log := trace.New(w.Ranks)
	cfg.Tracer = log
	res, err := core.Run(w, core.NoDVS(), cfg)
	if err != nil {
		return nil, core.Result{}, fmt.Errorf("autosched: profiling pass: %w", err)
	}
	p := &Profile{
		Workload:  w.Name(),
		Elapsed:   res.Elapsed,
		Asymmetry: log.Asymmetry(),
		Phases:    map[PhaseKey]PhaseStat{},
	}
	total := res.Elapsed.Seconds()
	for r := 0; r < w.Ranks; r++ {
		s := log.Summarize(r)
		p.RankMixes = append(p.RankMixes, micro.Mix{
			CPU:    s.Compute.Seconds() / total,
			Memory: s.Memory.Seconds() / total,
			Comm:   s.Comm.Seconds() / total,
			Disk:   s.Disk.Seconds() / total,
		})
	}
	// Aggregate collective phases (rank 0's view; collectives are
	// symmetric in time across ranks by construction of the trace).
	for _, e := range log.RankEvents(0) {
		if e.Kind != mpisim.EvCollective {
			continue
		}
		st := p.Phases[PhaseKey(e.Name)]
		st.Count++
		st.Mean += e.Duration() // sum for now; normalized below
		st.Bytes += int64(e.Bytes)
		p.Phases[PhaseKey(e.Name)] = st
	}
	for k, st := range p.Phases {
		if st.Count > 0 {
			st.Mean /= time.Duration(st.Count)
		}
		p.Phases[k] = st
	}
	return p, res, nil
}

// Schedule is the analyzer's output: what the middleware will do.
type Schedule struct {
	Workload string
	// PerRank base frequencies, applied once at startup.
	PerRank []dvs.MHz
	// WrapOps: collective names to bracket with WrapLow; empty = none.
	WrapOps map[PhaseKey]bool
	// WrapLow is the in-phase speed when wrapping.
	WrapLow dvs.MHz
	// Heterogeneous notes whether PerRank differs across ranks.
	Heterogeneous bool
	// Rationale is a human-readable explanation per decision.
	Rationale []string
}

// NoOp reports whether the schedule changes nothing (Type I codes).
func (s Schedule) NoOp(table dvs.Table) bool {
	if len(s.WrapOps) > 0 {
		return false
	}
	for _, f := range s.PerRank {
		if f != table.Top().Frequency {
			return false
		}
	}
	return true
}

// Analyze derives a schedule from a profile using the microbenchmark
// database for operating-point choices.
func Analyze(p *Profile, db micro.Database, cfg Config) (Schedule, error) {
	if cfg.MetricExponent <= 0 {
		return Schedule{}, fmt.Errorf("autosched: non-positive metric exponent")
	}
	top := db.Table.Top().Frequency
	s := Schedule{
		Workload: p.Workload,
		WrapOps:  map[PhaseKey]bool{},
		WrapLow:  cfg.WrapLow,
	}
	if s.WrapLow == 0 {
		s.WrapLow = db.Table.Bottom().Frequency
	}

	// Step 1: phase wraps — FT-style — for collectives long enough to
	// amortize the set_cpuspeed cost.
	wrappedShare := 0.0
	for name, st := range p.Phases {
		if st.Mean >= cfg.MinPhase {
			s.WrapOps[name] = true
			wrappedShare += (st.Mean * time.Duration(st.Count)).Seconds() / p.Elapsed.Seconds()
			s.Rationale = append(s.Rationale,
				fmt.Sprintf("%s phases average %v ≥ %v: wrap with set_cpuspeed(%v) (FT-style)",
					name, st.Mean.Round(time.Millisecond), cfg.MinPhase, float64(s.WrapLow)))
		}
	}
	if wrappedShare > 1 {
		wrappedShare = 1
	}

	// Step 2: per-rank base frequency from each rank's own mix — but only
	// apply heterogeneity when the ranks genuinely differ; a homogeneous
	// application gets one cluster-wide setting (§3.2 footnote 6). The
	// wrapped phases already run slow, so the base decision is made on the
	// residual mix with the wrapped communication share removed —
	// otherwise a comm-heavy mix would drag the compute phases down too,
	// exactly what the paper's performance-constrained FT schedule avoids.
	hetero := p.Asymmetry >= cfg.AsymmetryThreshold
	if hetero {
		s.Rationale = append(s.Rationale,
			fmt.Sprintf("rank asymmetry %.2f ≥ %.2f: heterogeneous per-rank speeds (CG-style)",
				p.Asymmetry, cfg.AsymmetryThreshold))
	}
	decide := func(m micro.Mix) (dvs.MHz, error) {
		m = residualMix(m, wrappedShare)
		return db.Recommend(m, cfg.MetricExponent)
	}
	if hetero {
		for _, mix := range p.RankMixes {
			f, err := decide(mix)
			if err != nil {
				return Schedule{}, err
			}
			s.PerRank = append(s.PerRank, f)
		}
	} else {
		f, err := decide(averageMix(p.RankMixes))
		if err != nil {
			return Schedule{}, err
		}
		s.PerRank = repeatFreq(f, len(p.RankMixes))
		if f != top {
			s.Rationale = append(s.Rationale,
				fmt.Sprintf("homogeneous residual mix favours %v MHz (ED%dP over microbenchmark database)",
					float64(f), cfg.MetricExponent))
		}
	}
	s.Heterogeneous = heteroFreqs(s.PerRank)
	if s.NoOp(db.Table) {
		s.Rationale = append(s.Rationale, "no exploitable slack: leave at top frequency (EP-style)")
	}
	return s, nil
}

// residualMix removes the wrapped communication share from a mix and
// renormalizes, so the base frequency reflects only unwrapped execution.
func residualMix(m micro.Mix, wrappedShare float64) micro.Mix {
	comm := m.Comm - wrappedShare
	if comm < 0 {
		comm = 0
	}
	total := m.CPU + m.Memory + comm + m.Disk
	if total <= 0 {
		return micro.Mix{CPU: 1}
	}
	return micro.Mix{CPU: m.CPU / total, Memory: m.Memory / total, Comm: comm / total, Disk: m.Disk / total}
}

func averageMix(mixes []micro.Mix) micro.Mix {
	var m micro.Mix
	for _, x := range mixes {
		m.CPU += x.CPU
		m.Memory += x.Memory
		m.Comm += x.Comm
		m.Disk += x.Disk
	}
	n := float64(len(mixes))
	m.CPU /= n
	m.Memory /= n
	m.Comm /= n
	m.Disk /= n
	return m
}

func repeatFreq(f dvs.MHz, n int) []dvs.MHz {
	out := make([]dvs.MHz, n)
	for i := range out {
		out[i] = f
	}
	return out
}

func heteroFreqs(fs []dvs.MHz) bool {
	for _, f := range fs[1:] {
		if f != fs[0] {
			return true
		}
	}
	return false
}

// policy implements mpisim.PhasePolicy for a Schedule.
type policy struct {
	s Schedule
	// depth tracks nested wrapped collectives per rank (defensive; our
	// collectives do not nest, but middleware must not assume that).
	depth []int
}

// Policy converts the schedule into installable middleware.
func (s Schedule) Policy(ranks int) mpisim.PhasePolicy {
	return &policy{s: s, depth: make([]int, ranks)}
}

// setSpeedIfNeeded skips the cpufreq write when the core is already at
// the target point — a real shim caches the last setting for exactly this
// reason (the write costs ~1 ms of CPU).
func setSpeedIfNeeded(r *mpisim.Rank, f dvs.MHz) {
	if r.Node().Frequency() != f {
		r.SetSpeed(f)
	}
}

func (p *policy) AtStart(r *mpisim.Rank) {
	if r.ID() < len(p.s.PerRank) {
		setSpeedIfNeeded(r, p.s.PerRank[r.ID()])
	}
}

func (p *policy) BeforeCollective(r *mpisim.Rank, name string, bytes int) {
	if !p.s.WrapOps[PhaseKey(name)] {
		return
	}
	if p.depth[r.ID()] == 0 {
		setSpeedIfNeeded(r, p.s.WrapLow)
	}
	p.depth[r.ID()]++
}

func (p *policy) AfterCollective(r *mpisim.Rank, name string, bytes int) {
	if !p.s.WrapOps[PhaseKey(name)] {
		return
	}
	p.depth[r.ID()]--
	if p.depth[r.ID()] == 0 {
		setSpeedIfNeeded(r, p.s.PerRank[r.ID()])
	}
}

// Result is the end-to-end outcome of Tune.
type Result struct {
	Profile  *Profile
	Schedule Schedule
	// Tuned and Baseline are the measured runs; Normalized is tuned
	// relative to baseline.
	Baseline   core.Result
	Tuned      core.Result
	Normalized core.Normalized
}

// Tune runs the full pipeline on a workload: profile, analyze, apply, and
// measure the tuned application against the untouched baseline.
func Tune(w npb.Workload, clusterCfg core.Config, cfg Config) (*Result, error) {
	prof, base, err := ProfileWorkload(w, clusterCfg)
	if err != nil {
		return nil, err
	}
	db, err := micro.Build(clusterCfg.Node)
	if err != nil {
		return nil, err
	}
	schedule, err := Analyze(prof, db, cfg)
	if err != nil {
		return nil, err
	}
	tuned := w.WithPolicy("autosched", schedule.Policy(w.Ranks))
	res, err := core.Run(tuned, core.NoDVS(), clusterCfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		Profile:    prof,
		Schedule:   schedule,
		Baseline:   base,
		Tuned:      res,
		Normalized: core.Normalize(res, base),
	}, nil
}
