// Package lru is the intrusive recency ring behind the bounded caches:
// the runner's memo cache and the fleet gateway's result memo. A cache
// keeps its own key → *Elem map and bound; the ring only orders the
// elements from most to least recently used, so linking, refreshing and
// unlinking allocate nothing and each cache keeps its own eviction
// policy (the runner skips in-flight entries, the gateway does not).
package lru

// Elem is one ring element. Embed it in, or point it at, the cached
// value; an Elem belongs to at most one Ring at a time.
type Elem[T any] struct {
	prev, next *Elem[T] // nil when unlinked
	Value      T
}

// Ring orders elements by recency, front = most recently used. The zero
// value is an empty ring. A Ring is not safe for concurrent use; the
// cache that owns it holds its lock around every call.
type Ring[T any] struct {
	root Elem[T] // sentinel: root.next is the front, root.prev the back
}

// PushFront links an unlinked element as the most recently used.
func (r *Ring[T]) PushFront(e *Elem[T]) {
	if r.root.next == nil {
		r.root.prev, r.root.next = &r.root, &r.root
	}
	e.prev = &r.root
	e.next = r.root.next
	e.prev.next = e
	e.next.prev = e
}

// MoveToFront marks a linked element as the most recently used.
func (r *Ring[T]) MoveToFront(e *Elem[T]) {
	r.Remove(e)
	r.PushFront(e)
}

// Remove unlinks an element; removing an unlinked element does nothing.
func (r *Ring[T]) Remove(e *Elem[T]) {
	if e.prev == nil {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// Oldest returns the least recently used element, nil if the ring is
// empty.
func (r *Ring[T]) Oldest() *Elem[T] {
	if r.root.prev == &r.root {
		return nil
	}
	return r.root.prev
}

// Newer returns the element used next after e, nil if e is the most
// recently used. Walking Oldest, Newer, Newer, … visits the ring from
// least to most recently used.
func (r *Ring[T]) Newer(e *Elem[T]) *Elem[T] {
	if e.prev == &r.root {
		return nil
	}
	return e.prev
}
