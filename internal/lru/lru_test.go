package lru

import (
	"slices"
	"testing"
)

func keys(m *Map[string, int]) []string {
	var ks []string
	for k := range m.All() {
		ks = append(ks, k)
	}
	return ks
}

func TestBoundRecencyAndEvictOrder(t *testing.T) {
	var evicted []string
	m := New(3, func(k string, v int) { evicted = append(evicted, k) })
	for i, k := range []string{"a", "b", "c"} {
		m.Put(k, i)
	}
	// Get refreshes, Peek does not, re-Put replaces and refreshes.
	if v, ok := m.Get("a"); !ok || v != 0 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if v, ok := m.Peek("b"); !ok || v != 1 {
		t.Fatalf("Peek(b) = %d, %v", v, ok)
	}
	m.Put("c", 20)
	if got := keys(m); !slices.Equal(got, []string{"b", "a", "c"}) || m.Len() != 3 {
		t.Fatalf("oldest→newest = %v (len %d), want [b a c]", got, m.Len())
	}
	m.Put("d", 3)
	m.Put("e", 4)
	if !slices.Equal(evicted, []string{"b", "a"}) {
		t.Fatalf("evicted %v, want oldest first [b a]", evicted)
	}
	if v, _ := m.Get("c"); v != 20 || m.Len() != 3 {
		t.Fatalf("c = %d, len %d: want the replaced value and the bound", v, m.Len())
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("evicted key still present")
	}
}

func TestRemoveAndRemoveWhileIterating(t *testing.T) {
	evictions := 0
	m := New(0, func(string, int) { evictions++ }) // bound clamps to 1
	m.Put("x", 1)
	m.Put("y", 2)
	if m.Len() != 1 || evictions != 1 {
		t.Fatalf("len %d, evictions %d: want the minimum bound of 1", m.Len(), evictions)
	}
	if !m.Remove("y") || m.Remove("y") || m.Len() != 0 || evictions != 1 {
		t.Fatalf("Remove must report presence once and never count as an eviction")
	}

	m = New[string, int](8, nil)
	for i, k := range []string{"a", "b", "c", "d"} {
		m.Put(k, i)
	}
	for k, v := range m.All() {
		if v%2 == 0 {
			m.Remove(k) // the visited entry may go
		}
	}
	if got := keys(m); !slices.Equal(got, []string{"b", "d"}) {
		t.Fatalf("after removing evens in flight: %v, want [b d]", got)
	}
}

func TestHitDoesNotAllocate(t *testing.T) {
	m := New[string, int](4, nil)
	m.Put("k", 1)
	m.Put("j", 2)
	if n := testing.AllocsPerRun(100, func() { m.Get("k"); m.Put("j", 3) }); n != 0 {
		t.Fatalf("Get + replacing Put allocate %v times, want 0", n)
	}
}
