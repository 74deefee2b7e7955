package serve

import (
	"container/list"
	"sync"
)

// lru is a bounded, mutex-guarded least-recently-used map from string
// keys to V. Every memoisation in this package uses it: keys are content
// hashes or request strings that pin every input, so entries never go
// stale, and the bound keeps resident memory independent of how many
// studies the store accumulates. Callers feed their own metrics from
// add's return values.
type lru[V any] struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used; values are *lruEntry[V]
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

// Residency bounds. Decoded corpora are large (every record and unique
// of a snapshot), so only a handful of studies' snapshot pairs stay
// resident; indexes are columns and bitsets, cheap enough to keep many;
// rendered responses are small bodies (summaries, churn rows, listings —
// never /tables renders).
const (
	corpusCacheSize   = 16
	indexCacheSize    = 256
	responseCacheSize = 1024
)

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, order: list.New(), items: map[string]*list.Element{}}
}

// get returns the value for key, refreshing its recency.
func (l *lru[V]) get(key string) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add inserts key (or refreshes an existing one), evicting the
// least-recently-used entries beyond capacity. It reports how many
// entries it evicted and how many remain resident.
func (l *lru[V]) add(key string, v V) (evicted, resident int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		l.order.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = v
		return 0, len(l.items)
	}
	l.items[key] = l.order.PushFront(&lruEntry[V]{key: key, val: v})
	for len(l.items) > l.max {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.items, oldest.Value.(*lruEntry[V]).key)
		evicted++
	}
	return evicted, len(l.items)
}

// len reports the resident entry count.
func (l *lru[V]) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}
