// Package lru is the repo's one bounded recency map. Every cache that
// must forget — captures, estimate plans, stored traces, stale
// reports, tenant buckets — keeps its own lock and counters around a
// Map.
package lru

import "iter"

// Map is a key→value map bounded to a fixed number of entries, kept
// in recency order: Get and Put make an entry the newest, and a Put
// beyond the bound evicts the oldest. A hit is one map lookup and a
// relink, no allocation. Not safe for concurrent use: callers hold
// their own lock, which also makes lookup-then-insert atomic.
type Map[K comparable, V any] struct {
	max     int
	nodes   map[K]*node[K, V]
	root    node[K, V] // ring sentinel: root.next is newest, root.prev oldest
	onEvict func(K, V)
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// New returns an empty map bounded to max entries (minimum 1).
// onEvict, when non-nil, observes each entry a Put pushes out at the
// bound, oldest first; it runs inside Put, under the caller's lock,
// and must not re-enter the map. Remove does not call it.
func New[K comparable, V any](max int, onEvict func(K, V)) *Map[K, V] {
	if max < 1 {
		max = 1
	}
	m := &Map[K, V]{max: max, nodes: make(map[K]*node[K, V]), onEvict: onEvict}
	m.root.prev, m.root.next = &m.root, &m.root
	return m
}

func (m *Map[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (m *Map[K, V]) pushNewest(n *node[K, V]) {
	n.prev, n.next = &m.root, m.root.next
	n.prev.next, n.next.prev = n, n
}

// Get returns the value for key and makes it the newest entry.
func (m *Map[K, V]) Get(key K) (v V, ok bool) {
	n, ok := m.nodes[key]
	if !ok {
		return v, false
	}
	m.unlink(n)
	m.pushNewest(n)
	return n.val, true
}

// Peek returns the value for key without touching recency.
func (m *Map[K, V]) Peek(key K) (v V, ok bool) {
	if n, ok := m.nodes[key]; ok {
		return n.val, true
	}
	return v, false
}

// Put stores val under key as the newest entry, replacing any
// previous value, then evicts the oldest entries beyond the bound.
func (m *Map[K, V]) Put(key K, val V) {
	if n, ok := m.nodes[key]; ok {
		n.val = val
		m.unlink(n)
		m.pushNewest(n)
		return
	}
	n := &node[K, V]{key: key, val: val}
	m.nodes[key] = n
	m.pushNewest(n)
	for len(m.nodes) > m.max {
		old := m.root.prev
		m.unlink(old)
		delete(m.nodes, old.key)
		if m.onEvict != nil {
			m.onEvict(old.key, old.val)
		}
	}
}

// Remove drops key, reporting whether it was present.
func (m *Map[K, V]) Remove(key K) bool {
	n, ok := m.nodes[key]
	if ok {
		m.unlink(n)
		delete(m.nodes, key)
	}
	return ok
}

// Len reports how many entries the map holds.
func (m *Map[K, V]) Len() int { return len(m.nodes) }

// All iterates the entries oldest to newest — the order in which
// replaying Put rebuilds the same recency. The loop body may Remove
// the entry it is visiting, and nothing else.
func (m *Map[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for n := m.root.prev; n != &m.root; {
			newer := n.prev
			if !yield(n.key, n.val) {
				return
			}
			n = newer
		}
	}
}
