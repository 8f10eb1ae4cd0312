package fleet

import (
	"sync"

	"repro/internal/lru"
	"repro/internal/sweep"
)

// memo is the gateway's bounded result memo, rung 0 of the ladder: the
// decoded wire result of every cell a backend answered, keyed by the
// cell's content address. A cell's result is a pure function of that
// key (it includes the model version), so a repeated cell is answered
// here without a backend round trip. It lives in process memory only and
// holds at most max (> 0) results, evicting the least recently used.
// Safe for concurrent use.
type memo struct {
	mu    sync.Mutex
	max   int
	cells map[string]*lru.Elem[memoCell]
	lru   lru.Ring[memoCell]
}

type memoCell struct {
	key string
	res sweep.ResultJSON
}

func newMemo(max int) *memo {
	return &memo{max: max, cells: map[string]*lru.Elem[memoCell]{}}
}

// get returns the memoized result for key and refreshes its recency.
func (m *memo) get(key string) (sweep.ResultJSON, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.cells[key]
	if !ok {
		return sweep.ResultJSON{}, false
	}
	m.lru.MoveToFront(e)
	return e.Value.res, true
}

// put memoizes a backend's answer for key.
func (m *memo) put(key string, res sweep.ResultJSON) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.cells[key]; ok {
		e.Value.res = res
		m.lru.MoveToFront(e)
		return
	}
	var e *lru.Elem[memoCell]
	if len(m.cells) >= m.max {
		// At the bound the least recently used result makes room, and its
		// element carries the new one: a memo that every cell misses, such
		// as a stream of fresh grids, stores without allocating.
		e = m.lru.Oldest()
		m.lru.Remove(e)
		delete(m.cells, e.Value.key)
	} else {
		e = new(lru.Elem[memoCell])
	}
	e.Value = memoCell{key: key, res: res}
	m.cells[key] = e
	m.lru.PushFront(e)
}
