package lru

import (
	"slices"
	"testing"
)

// oldestFirst walks r from least to most recently used.
func oldestFirst(r *Ring[string]) []string {
	var out []string
	for e := r.Oldest(); e != nil; e = r.Newer(e) {
		out = append(out, e.Value)
	}
	return out
}

// TestRingOrdersByRecency: pushes, refreshes and removals keep the walk
// in recency order; removing twice and walking an empty ring are safe.
func TestRingOrdersByRecency(t *testing.T) {
	var r Ring[string]
	if r.Oldest() != nil {
		t.Fatal("zero ring is not empty")
	}
	a, b, c := &Elem[string]{Value: "a"}, &Elem[string]{Value: "b"}, &Elem[string]{Value: "c"}
	r.PushFront(a)
	r.PushFront(b)
	r.PushFront(c)
	if got := oldestFirst(&r); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("after pushes: %v", got)
	}
	r.MoveToFront(a)
	if got := oldestFirst(&r); !slices.Equal(got, []string{"b", "c", "a"}) {
		t.Fatalf("after refreshing a: %v", got)
	}
	r.Remove(c)
	r.Remove(c)
	if got := oldestFirst(&r); !slices.Equal(got, []string{"b", "a"}) {
		t.Fatalf("after removing c: %v", got)
	}
	r.Remove(a)
	r.Remove(b)
	if r.Oldest() != nil {
		t.Fatal("ring not empty after removing every element")
	}
	r.PushFront(c)
	if got := oldestFirst(&r); !slices.Equal(got, []string{"c"}) {
		t.Fatalf("re-pushing a removed element: %v", got)
	}
}
