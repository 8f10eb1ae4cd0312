package autosched

import (
	"testing"

	"repro/internal/core"
	"repro/internal/micro"
)

func TestResidualMix(t *testing.T) {
	m := residualMix(micro.Mix{CPU: 0.1, Memory: 0.2, Comm: 0.7}, 0.7)
	if m.Comm != 0 {
		t.Errorf("comm not removed: %+v", m)
	}
	if d := m.CPU + m.Memory + m.Comm; d < 0.999 || d > 1.001 {
		t.Errorf("not renormalized: %+v", m)
	}
	if m.Memory <= m.CPU {
		t.Errorf("proportions lost: %+v", m)
	}
	// Degenerate: everything wrapped.
	m = residualMix(micro.Mix{Comm: 1}, 1)
	if m.CPU != 1 {
		t.Errorf("degenerate residual: %+v", m)
	}
}

func TestScheduleNoOpDetection(t *testing.T) {
	table := core.DefaultConfig().Node.Table
	s := Schedule{PerRank: repeatFreq(1400, 4), WrapOps: map[PhaseKey]bool{}}
	if !s.NoOp(table) {
		t.Error("all-top schedule not NoOp")
	}
	s.PerRank[2] = 600
	if s.NoOp(table) {
		t.Error("heterogeneous schedule reported NoOp")
	}
	s = Schedule{PerRank: repeatFreq(1400, 4), WrapOps: map[PhaseKey]bool{"alltoall": true}}
	if s.NoOp(table) {
		t.Error("wrapping schedule reported NoOp")
	}
}
