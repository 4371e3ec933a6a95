package server

import (
	"container/list"
	"encoding/json"
	"sync"
)

// resultCache is an LRU over completed results, bounded by the bytes of
// the bodies it holds. Keys are digest+"@"+version: a binary carrying
// different simulation code must not serve results computed by its
// predecessor, even for the same spec.
type resultCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	order   *list.List // front = most recent; values are *cacheEntry
	entries map[string]*list.Element
}

// cacheEntry is one finished job as every response for it goes out: the
// Result encoded once, when the job completed. An entry is immutable; the
// handlers share it without copying.
type cacheEntry struct {
	key        string
	kind, name string // what a job-status lookup reports once the job has retired
	etag       string // the quoted digest
	body       []byte
}

// newCacheEntry encodes res. It fails when res does not marshal (a NaN in
// a series is enough), and then there is nothing to serve or to cache.
func newCacheEntry(key string, res *Result) (*cacheEntry, error) {
	body, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return &cacheEntry{
		key:  key,
		kind: res.Kind,
		name: res.Name,
		etag: `"` + res.Digest + `"`,
		body: append(body, '\n'),
	}, nil
}

func newResultCache(budget int64) *resultCache {
	return &resultCache{
		budget:  budget,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

func (c *resultCache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put stores e as the most recent entry and evicts from the back until
// the bodies fit the budget again. The newest entry always stays, so a
// result larger than the whole budget is still served to whoever asks next.
func (c *resultCache) put(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		c.bytes -= int64(len(el.Value.(*cacheEntry).body))
		el.Value = e
		c.order.MoveToFront(el)
	} else {
		c.entries[e.key] = c.order.PushFront(e)
	}
	c.bytes += int64(len(e.body))
	for c.bytes > c.budget && c.order.Len() > 1 {
		oldest := c.order.Remove(c.order.Back()).(*cacheEntry)
		delete(c.entries, oldest.key)
		c.bytes -= int64(len(oldest.body))
	}
}

// size reports the entry count and the bytes of their bodies.
func (c *resultCache) size() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.bytes
}
