package serve

import (
	"fmt"
	"testing"
)

// TestLRUBoundAndEvictionOrder: the memo never holds more than its bound,
// evicts the least recently used entry first (a get refreshes recency,
// an add of a resident key refreshes and replaces), and reports what it
// evicted and what stays resident.
func TestLRUBoundAndEvictionOrder(t *testing.T) {
	l := newLRU[int](3)
	for i, k := range []string{"a", "b", "c"} {
		if ev, res := l.add(k, i); ev != 0 || res != i+1 {
			t.Fatalf("add %s = (%d evicted, %d resident)", k, ev, res)
		}
	}
	if v, ok := l.get("a"); !ok || v != 0 { // a becomes most recent: b is now oldest
		t.Fatalf("get a = %d, %v", v, ok)
	}
	if ev, res := l.add("c", 20); ev != 0 || res != 3 { // refresh + replace; b stays oldest
		t.Fatalf("re-add c = (%d evicted, %d resident)", ev, res)
	}
	if ev, res := l.add("d", 3); ev != 1 || res != 3 {
		t.Fatalf("add d = (%d evicted, %d resident), want (1, 3)", ev, res)
	}
	if _, ok := l.get("b"); ok {
		t.Fatal("least recently used entry b survived eviction")
	}
	l.add("e", 4) // evicts a, the oldest of {a, c, d}
	if _, ok := l.get("a"); ok {
		t.Fatal("a survived; eviction order is not least-recently-used")
	}
	for k, want := range map[string]int{"c": 20, "d": 3, "e": 4} {
		if v, ok := l.get(k); !ok || v != want {
			t.Fatalf("get %s = %d, %v; want %d", k, v, ok, want)
		}
	}
	for i := 0; i < 10; i++ {
		l.add(fmt.Sprint("k", i), i)
		if n := l.len(); n > 3 {
			t.Fatalf("lru holds %d entries, bound 3", n)
		}
	}
}
