package server

import (
	"container/list"
	"sync"

	"fsmem/internal/obs"
)

// cacheEntry is one finished job's cached payload: the canonical result
// document plus, for observed simulate jobs, the command/event trace
// the /trace endpoint re-exports. On the coordinator, worker names the
// fleet member that computed the document.
type cacheEntry struct {
	key    string
	result []byte
	trace  *obs.Tracer
	worker string
}

// LRU is a bounded least-recently-used cache of finished job results,
// keyed by the canonical content key (the experiments memo key for
// simulations). The daemon's Manager and the cluster coordinator both
// use it. Concurrent identical submissions never reach the cache twice
// while a job is live — deterministic job IDs collapse them into one
// job — so the cache only needs plain mutual exclusion, not per-key
// filling locks.
type LRU[V any] struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // of *lruItem[V]; front = most recent
	entries map[string]*list.Element

	hits, misses int64
}

type lruItem[V any] struct {
	key string
	val V
}

// NewLRU returns an empty cache holding at most capEntries values.
func NewLRU[V any](capEntries int) *LRU[V] {
	return &LRU[V]{cap: capEntries, ll: list.New(), entries: map[string]*list.Element{}}
}

// Get returns the value cached under key, promoting it to most recent.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// Put stores v under key, evicting the least recently used beyond
// capacity.
func (c *LRU[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruItem[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&lruItem[V]{key: key, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruItem[V]).key)
	}
}

// Stats reads the cache counters for the metrics endpoint.
func (c *LRU[V]) Stats() (entries int, hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.hits, c.misses
}
