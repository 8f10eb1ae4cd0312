package micro

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/node"
)

// The probe grid is simulated once per test binary.
var (
	dbOnce sync.Once
	dbVal  Database
	dbErr  error
)

func buildDB(t *testing.T) Database {
	t.Helper()
	dbOnce.Do(func() {
		cfg := node.DefaultConfig()
		jobs := Plan(cfg)
		res := make([]core.Result, len(jobs))
		for i, j := range jobs {
			if res[i], dbErr = core.Run(j.Workload, j.Strategy, j.Config); dbErr != nil {
				return
			}
		}
		dbVal, dbErr = Assemble(cfg.Table, res)
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return dbVal
}

// TestPlanKeysDistinct: every probe job has a content address, and no
// two probes share one, so a shared runner memoizes the whole grid.
func TestPlanKeysDistinct(t *testing.T) {
	cfg := node.DefaultConfig()
	jobs := Plan(cfg)
	if want := len(Kinds()) * len(cfg.Table); len(jobs) != want {
		t.Fatalf("%d probe jobs, want %d", len(jobs), want)
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		key, ok := j.Key()
		if !ok {
			t.Fatalf("probe %s has no key", j.Workload.Name())
		}
		if seen[key] {
			t.Fatalf("probe %s at op %d repeats a key", j.Workload.Name(), j.Config.Node.StartIndex)
		}
		seen[key] = true
	}
}

func TestAssembleChecksLength(t *testing.T) {
	if _, err := Assemble(node.DefaultConfig().Table, make([]core.Result, 3)); err == nil {
		t.Fatal("3 results for the 20-probe grid accepted")
	}
}

func TestKindsAndStrings(t *testing.T) {
	if len(Kinds()) != 4 {
		t.Fatalf("kinds = %v", Kinds())
	}
	names := map[Kind]string{
		CPUBound: "cpu-bound", MemoryBound: "memory-bound",
		CommBound: "comm-bound", DiskBound: "disk-bound",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestAssembleCoversGrid(t *testing.T) {
	db := buildDB(t)
	for _, kind := range Kinds() {
		pts, ok := db.Points[kind]
		if !ok {
			t.Fatalf("no points for %v", kind)
		}
		if len(pts) != len(db.Table) {
			t.Fatalf("%v has %d points", kind, len(pts))
		}
	}
}

func TestTopPointIsUnity(t *testing.T) {
	db := buildDB(t)
	top := db.Table.Top().Frequency
	for _, kind := range Kinds() {
		p := db.Points[kind][top]
		if math.Abs(p.Delay-1) > 1e-9 || math.Abs(p.Energy-1) > 1e-9 {
			t.Errorf("%v at top: %+v", kind, p)
		}
	}
}

func TestCPUBoundScalesLinearly(t *testing.T) {
	db := buildDB(t)
	p := db.Points[CPUBound][600]
	if math.Abs(p.Delay-1400.0/600.0) > 0.01 {
		t.Errorf("cpu-bound delay at 600 = %v, want 2.33", p.Delay)
	}
	if p.Energy <= 1.0 {
		t.Errorf("cpu-bound energy at 600 = %v, want > 1 (Type I)", p.Energy)
	}
}

func TestMemoryBoundFlatDelay(t *testing.T) {
	db := buildDB(t)
	p := db.Points[MemoryBound][600]
	if p.Delay > 1.001 {
		t.Errorf("memory-bound delay at 600 = %v, want ≈1", p.Delay)
	}
	if p.Energy >= 0.9 {
		t.Errorf("memory-bound energy at 600 = %v, want well below 1", p.Energy)
	}
}

func TestCommBoundMostlyFlat(t *testing.T) {
	db := buildDB(t)
	p := db.Points[CommBound][600]
	// Wire time dominates; only software overheads stretch.
	if p.Delay > 1.10 {
		t.Errorf("comm-bound delay at 600 = %v, want < 1.10", p.Delay)
	}
	if p.Energy >= 1.0 {
		t.Errorf("comm-bound energy at 600 = %v, want < 1", p.Energy)
	}
}

func TestPredictComposesLinearly(t *testing.T) {
	db := buildDB(t)
	// Pure mixes reproduce the underlying points.
	d, e, err := db.Predict(Mix{CPU: 1}, 600)
	if err != nil {
		t.Fatal(err)
	}
	p := db.Points[CPUBound][600]
	if math.Abs(d-p.Delay) > 1e-9 || math.Abs(e-p.Energy) > 1e-9 {
		t.Fatalf("pure CPU mix: %v/%v vs %+v", d, e, p)
	}
	// FT-like mix: mostly comm → predicted delay small, energy low.
	d, e, err = db.Predict(Mix{CPU: 0.1, Memory: 0.23, Comm: 0.67}, 600)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1.25 {
		t.Errorf("FT-like predicted delay %v", d)
	}
	if e > 0.75 {
		t.Errorf("FT-like predicted energy %v", e)
	}
}

func TestPredictUnknownFrequency(t *testing.T) {
	db := buildDB(t)
	if _, _, err := db.Predict(Mix{CPU: 1}, 999); err == nil {
		t.Fatal("unknown frequency accepted")
	}
}

func TestRecommendEPStaysHigh(t *testing.T) {
	db := buildDB(t)
	f, err := db.Recommend(Mix{CPU: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f != 1400 {
		t.Fatalf("recommended %v for pure CPU", f)
	}
}

// TestRecommendTieGoesHigh: an empty mix predicts the same (zero) cost
// at every point, and a tie goes to the highest frequency.
func TestRecommendTieGoesHigh(t *testing.T) {
	db := buildDB(t)
	f, err := db.Recommend(Mix{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if top := db.Table.Top().Frequency; f != top {
		t.Fatalf("recommended %v for an all-tied mix, want the top point %v", f, top)
	}
}

func TestDiskBoundIsPureSlack(t *testing.T) {
	// The disk microbenchmark: flat delay, strong energy savings at low
	// frequency — the paper's "more opportunities to DVS".
	db := buildDB(t)
	p := db.Points[DiskBound][600]
	if p.Delay > 1.001 {
		t.Errorf("disk-bound delay at 600 = %v, want ≈1", p.Delay)
	}
	// Savings exist and are free; the normalized ratio is milder than
	// memory-bound because the CPU already idles during iowait, so the
	// baseline power is low.
	if p.Energy >= 0.95 {
		t.Errorf("disk-bound energy at 600 = %v, want < 0.95", p.Energy)
	}
	if p.Energy <= db.Points[CPUBound][600].Energy-0.5 {
		t.Errorf("disk-bound ratio implausibly low: %v", p.Energy)
	}
}

func TestRecommendDiskBoundGoesBottom(t *testing.T) {
	db := buildDB(t)
	f, err := db.Recommend(Mix{Disk: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f != 600 {
		t.Fatalf("recommended %v for pure disk", f)
	}
}

func TestRecommendMemoryBoundGoesLow(t *testing.T) {
	db := buildDB(t)
	f, err := db.Recommend(Mix{Memory: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f != 600 {
		t.Fatalf("recommended %v for pure memory", f)
	}
}

func TestRecommendExponentMonotone(t *testing.T) {
	db := buildDB(t)
	mix := Mix{CPU: 0.3, Memory: 0.4, Comm: 0.3}
	var prev float64 = -1
	for exp := 1; exp <= 3; exp++ {
		f, err := db.Recommend(mix, exp)
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && float64(f) < prev {
			t.Fatalf("higher exponent recommended lower frequency")
		}
		prev = float64(f)
	}
}
