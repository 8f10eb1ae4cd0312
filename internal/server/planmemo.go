package server

import (
	"crypto/sha256"
	"sync"

	"repro/internal/lru"
	"repro/internal/sweep"
)

// planMemo holds the validated plans of recent /sweep bodies, keyed by
// the SHA-256 of the exact body bytes, so a repeated body skips both the
// JSON decode and SweepRequest.Plan: the same bytes always give the same
// plan, and a plan is read-only once built, so concurrent sweeps share
// it. The memo is bounded by the cells it holds, at most max in total,
// and evicts the least recently used plan. Only a valid plan is stored:
// a rejected body is decoded and rejected again on every post. Safe for
// concurrent use.
type planMemo struct {
	mu    sync.Mutex
	max   int // bound on the cells held
	cells int // cells held
	plans map[[sha256.Size]byte]*lru.Elem[memoPlan]
	lru   lru.Ring[memoPlan]
}

// memoPlan is one body's plan and its timeout_ms, the one field of a
// /sweep body that is not part of its plan.
type memoPlan struct {
	sum       [sha256.Size]byte
	plan      *sweep.Plan
	timeoutMS float64
}

func newPlanMemo(max int) *planMemo {
	return &planMemo{max: max, plans: map[[sha256.Size]byte]*lru.Elem[memoPlan]{}}
}

// get returns the plan stored for the body hashing to sum and refreshes
// its recency.
func (m *planMemo) get(sum [sha256.Size]byte) (memoPlan, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.plans[sum]
	if !ok {
		return memoPlan{}, false
	}
	m.lru.MoveToFront(e)
	return e.Value, true
}

// put stores a body's plan, evicting least recently used plans until its
// cells fit. A plan larger than the whole bound is not stored.
func (m *planMemo) put(p memoPlan) {
	n := p.plan.Len()
	if n > m.max {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.plans[p.sum]; ok {
		// A concurrent post of the same body stored it first; the two plans
		// are equal.
		m.lru.MoveToFront(e)
		return
	}
	for m.cells+n > m.max {
		e := m.lru.Oldest()
		m.lru.Remove(e)
		delete(m.plans, e.Value.sum)
		m.cells -= e.Value.plan.Len()
	}
	e := &lru.Elem[memoPlan]{Value: p}
	m.plans[p.sum] = e
	m.lru.PushFront(e)
	m.cells += n
}
