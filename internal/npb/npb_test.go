package npb_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/npb"
	"repro/internal/sim"
)

func runS(t *testing.T, w npb.Workload) core.Result {
	t.Helper()
	r, err := core.Run(w, core.NoDVS(), core.DefaultConfig())
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return r
}

func TestAllCodesCompleteAtClassS(t *testing.T) {
	for _, code := range npb.Codes() {
		w, err := npb.New(code, npb.ClassS, npb.PaperRanks(code))
		if err != nil {
			t.Fatalf("%s: %v", code, err)
		}
		r := runS(t, w)
		if r.Elapsed <= 0 || r.Energy <= 0 {
			t.Errorf("%s: empty result %+v", code, r)
		}
	}
}

func TestNewUnknownCode(t *testing.T) {
	if _, err := npb.New("ZZ", npb.ClassS, 8); err == nil {
		t.Fatal("unknown code accepted")
	}
}

func TestInvalidClassRejected(t *testing.T) {
	for _, code := range npb.Codes() {
		if _, err := npb.New(code, npb.Class('Z'), npb.PaperRanks(code)); err == nil {
			t.Errorf("%s: class Z accepted", code)
		}
	}
}

func TestClassValid(t *testing.T) {
	for _, c := range []npb.Class{npb.ClassS, npb.ClassW, npb.ClassA, npb.ClassB, npb.ClassC} {
		if !c.Valid() {
			t.Errorf("class %c invalid", c)
		}
	}
	if npb.Class('Q').Valid() {
		t.Error("class Q valid")
	}
}

func TestWorkloadName(t *testing.T) {
	w, err := npb.FT(npb.ClassC, 8)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "FT.C.8" {
		t.Fatalf("name = %q", w.Name())
	}
	wi, err := npb.FTInternal(npb.ClassC, 8, 1400, 600)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wi.Name(), "internal") {
		t.Fatalf("internal variant name = %q", wi.Name())
	}
}

func TestRankCountValidation(t *testing.T) {
	if _, err := npb.FT(npb.ClassS, 1); err == nil {
		t.Error("FT with 1 rank accepted")
	}
	if _, err := npb.CG(npb.ClassS, 7); err == nil {
		t.Error("CG with odd ranks accepted")
	}
	if _, err := npb.BT(npb.ClassS, 8); err == nil {
		t.Error("BT with non-square ranks accepted")
	}
	if _, err := npb.SP(npb.ClassS, 10); err == nil {
		t.Error("SP with non-square ranks accepted")
	}
	if _, err := npb.BT(npb.ClassS, 9); err != nil {
		t.Errorf("BT.9 rejected: %v", err)
	}
	if _, err := npb.BT(npb.ClassS, 4); err != nil {
		t.Errorf("BT.4 rejected: %v", err)
	}
}

func TestPaperRanks(t *testing.T) {
	if npb.PaperRanks("BT") != 9 || npb.PaperRanks("SP") != 9 {
		t.Error("BT/SP paper ranks should be 9")
	}
	if npb.PaperRanks("FT") != 8 {
		t.Error("FT paper ranks should be 8")
	}
	if npb.PaperRanks("SWIM") != 1 {
		t.Error("SWIM paper ranks should be 1")
	}
}

func TestClassScalingReducesWork(t *testing.T) {
	small, err := npb.FT(npb.ClassS, 8)
	if err != nil {
		t.Fatal(err)
	}
	wBig, err := npb.FT(npb.ClassW, 8)
	if err != nil {
		t.Fatal(err)
	}
	rs := runS(t, small)
	rw := runS(t, wBig)
	if rw.Elapsed <= rs.Elapsed {
		t.Fatalf("class W (%v) not slower than class S (%v)", rw.Elapsed, rs.Elapsed)
	}
	if rw.Energy <= rs.Energy {
		t.Fatalf("class W energy (%v) not above class S (%v)", rw.Energy, rs.Energy)
	}
}

func TestLaunchRankMismatch(t *testing.T) {
	w, err := npb.FT(npb.ClassS, 8)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	nodes := make([]*node.Node, 4)
	for i := range nodes {
		nodes[i] = node.MustNew(k, i, node.DefaultConfig())
	}
	world, err := mpisim.NewWorld(k, netsim.MustNew(k, 4, netsim.DefaultConfig()), nodes, mpisim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Launch(world); err == nil {
		t.Fatal("8-rank workload launched on 4-rank world")
	}
}

func TestDeterminism(t *testing.T) {
	w, err := npb.CG(npb.ClassS, 8)
	if err != nil {
		t.Fatal(err)
	}
	a := runS(t, w)
	b := runS(t, w)
	if a.Elapsed != b.Elapsed || a.Energy != b.Energy {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", a.Elapsed, a.Energy, b.Elapsed, b.Energy)
	}
}

func TestCGAsymmetry(t *testing.T) {
	w, err := npb.CG(npb.ClassW, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := runS(t, w)
	// Upper-half ranks compute less and wait more (Figure 12 obs. 4).
	loHalf := r.RankStats[0].Compute + r.RankStats[1].Compute
	hiHalf := r.RankStats[4].Compute + r.RankStats[5].Compute
	if hiHalf >= loHalf {
		t.Fatalf("no compute asymmetry: low %v, high %v", loHalf, hiHalf)
	}
	if r.RankStats[4].Wait <= r.RankStats[0].Wait {
		t.Fatalf("no wait asymmetry: low %v, high %v", r.RankStats[0].Wait, r.RankStats[4].Wait)
	}
}

func TestFTInternalSwitchesFrequency(t *testing.T) {
	w, err := npb.FTInternal(npb.ClassS, 8, 1400, 600)
	if err != nil {
		t.Fatal(err)
	}
	r := runS(t, w)
	if r.Transitions < 2*20*8 { // 2 per iteration per rank
		t.Fatalf("transitions = %d, want ≥ %d", r.Transitions, 2*20*8)
	}
}

func TestFTInternalSavesEnergyWithoutDelay(t *testing.T) {
	// The Figure 11 headline at class B scale: internal scheduling saves
	// substantial energy with small delay. (At tiny classes the phases are
	// too short to amortize the set_cpuspeed cost — the paper's own
	// granularity caveat — so this property is asserted at class B.)
	cfg := core.DefaultConfig()
	plain, err := npb.FT(npb.ClassB, 8)
	if err != nil {
		t.Fatal(err)
	}
	internal, err := npb.FTInternal(npb.ClassB, 8, 1400, 600)
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.Run(plain, core.NoDVS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := core.Run(internal, core.NoDVS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := core.Normalize(ri, base)
	if n.Energy > 0.80 {
		t.Errorf("internal FT energy = %.3f, want < 0.80", n.Energy)
	}
	if n.Delay > 1.06 {
		t.Errorf("internal FT delay = %.3f, want ≤ 1.06", n.Delay)
	}
}

func TestCGInternalHeteroSetsSpeeds(t *testing.T) {
	w, err := npb.CGInternal(npb.ClassS, 8, 1200, 800)
	if err != nil {
		t.Fatal(err)
	}
	r := runS(t, w)
	// One transition per node at startup (1400 → target).
	if r.Transitions != 8 {
		t.Fatalf("transitions = %d, want 8", r.Transitions)
	}
	// Heavy ranks spend their time at 1200 (index 3), light at 800 (1).
	if r.TimeAtOp[0][3] <= 0 {
		t.Error("rank 0 never at 1200 MHz")
	}
	if r.TimeAtOp[4][1] <= 0 {
		t.Error("rank 4 never at 800 MHz")
	}
}

func TestCGPolicies(t *testing.T) {
	for _, pol := range []npb.CGPolicy{npb.CGCommSlow, npb.CGWaitSlow} {
		w, err := npb.CGWithPolicy(npb.ClassS, 8, pol, 1400, 600)
		if err != nil {
			t.Fatal(err)
		}
		r := runS(t, w)
		if r.Transitions == 0 {
			t.Errorf("policy %d made no transitions", pol)
		}
		if !strings.Contains(w.Name(), "internal") {
			t.Errorf("policy %d variant name = %q", pol, w.Name())
		}
	}
}

func TestSwimSingleNode(t *testing.T) {
	w, err := npb.Swim(npb.ClassS, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := runS(t, w)
	if len(r.NodeEnergy) != 1 {
		t.Fatalf("nodes = %d", len(r.NodeEnergy))
	}
	if r.RankStats[0].Messages != 0 {
		t.Fatalf("swim sent messages: %d", r.RankStats[0].Messages)
	}
}

func TestCodesSorted(t *testing.T) {
	codes := npb.Codes()
	if len(codes) != 10 {
		t.Fatalf("codes = %v", codes)
	}
	for i := 1; i < len(codes); i++ {
		if codes[i] <= codes[i-1] {
			t.Fatalf("codes not strictly sorted: %v", codes)
		}
	}
}

func TestEPIsPureCompute(t *testing.T) {
	w, err := npb.EP(npb.ClassS, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := runS(t, w)
	st := r.RankStats[0]
	if st.Memory != 0 {
		t.Errorf("EP has memory time %v", st.Memory)
	}
	if st.Compute.Seconds() < 0.9*r.Elapsed.Seconds() {
		t.Errorf("EP compute %v not dominant over %v", st.Compute, r.Elapsed)
	}
}

func TestAlternateRankCounts(t *testing.T) {
	// The models generalize beyond the paper's 8/9-rank runs.
	for _, tc := range []struct {
		code  string
		ranks int
	}{
		{"FT", 4}, {"FT", 16}, {"CG", 4}, {"CG", 16}, {"EP", 3},
		{"IS", 4}, {"MG", 4}, {"LU", 5}, {"BT", 4}, {"SP", 16},
	} {
		w, err := npb.New(tc.code, npb.ClassS, tc.ranks)
		if err != nil {
			t.Fatalf("%s.%d: %v", tc.code, tc.ranks, err)
		}
		r := runS(t, w)
		if r.Elapsed <= 0 {
			t.Errorf("%s.%d: no elapsed time", tc.code, tc.ranks)
		}
	}
}

func TestBTIOHasDiskPhases(t *testing.T) {
	w, err := npb.BTIO(npb.ClassS, 9)
	if err != nil {
		t.Fatal(err)
	}
	r := runS(t, w)
	for i, st := range r.RankStats {
		if st.Disk <= 0 {
			t.Fatalf("rank %d has no disk time", i)
		}
	}
	// Disk energy must be accounted on every node.
	for i, e := range r.NodeEnergy {
		if e.Disk <= 0 {
			t.Fatalf("node %d has no disk energy", i)
		}
	}
}

func TestBTIOSlowerThanBT(t *testing.T) {
	bt, err := npb.BT(npb.ClassW, 9)
	if err != nil {
		t.Fatal(err)
	}
	btio, err := npb.BTIO(npb.ClassW, 9)
	if err != nil {
		t.Fatal(err)
	}
	rb := runS(t, bt)
	ri := runS(t, btio)
	if ri.Elapsed <= rb.Elapsed {
		t.Fatalf("BTIO (%v) not slower than BT (%v)", ri.Elapsed, rb.Elapsed)
	}
}

func TestBTIOMoreDVSFriendlyThanBT(t *testing.T) {
	// The paper's deferred hypothesis: I/O phases add free DVS slack, so
	// BTIO's energy-delay tradeoff at 600 MHz beats BT's.
	cfg := core.DefaultConfig()
	norm := func(code string) core.Normalized {
		w, err := npb.New(code, npb.ClassW, 9)
		if err != nil {
			t.Fatal(err)
		}
		base, err := core.Run(w, core.NoDVS(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		low, err := core.Run(w, core.External(600), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return core.Normalize(low, base)
	}
	bt := norm("BT")
	btio := norm("BTIO")
	if btio.Delay >= bt.Delay {
		t.Errorf("BTIO delay %.3f not below BT %.3f", btio.Delay, bt.Delay)
	}
	// Free slack improves the fused tradeoff (the normalized energy ratio
	// alone can look worse because I/O time is cheap at every frequency).
	ed3 := func(n core.Normalized) float64 { return n.Energy * n.Delay * n.Delay * n.Delay }
	if ed3(btio) >= ed3(bt) {
		t.Errorf("BTIO ED3P %.3f not below BT %.3f", ed3(btio), ed3(bt))
	}
}
