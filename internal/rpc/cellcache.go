package rpc

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// errCellPanicked is the error waiters of a coalesced cell receive when the
// leader's compute panicked; the panic itself propagates on the leader.
var errCellPanicked = errors.New("rpc: in-flight cell computation panicked")

// cellCache is swap.solve's per-cell tier: one compute-once entry per
// (scenario × variant) cell, keyed by variant.CellKey. An entry is in
// flight until its compute finishes, and concurrent requests for the cell
// wait on it, so a burst of identical requests costs one solve. On success
// the entry stays in place as the cell's wire-form ReportJSON bytes, and a
// later request for the cell — under any variant selection that includes
// it — reuses them without admission, solve or marshal. Below it sit the
// persistent store and the model caches; this tier is their in-memory
// front.
//
// Entries cannot go stale — the key hashes every solve input — so the LRU
// bound on retained entries is purely a memory bound. Errors and panics
// are never retained, and eviction never touches an in-flight entry.
type cellCache struct {
	mu  sync.Mutex
	max int // retained-cell bound; <= 0 retains nothing (coalescing only)
	// entries holds in-flight and retained cells; lru the retained ones,
	// most recently used at the front.
	entries map[string]*cellEntry
	lru     list.List
	bytes   int64

	hits, misses, evictions uint64
	leaders, waiters        uint64
}

// cellEntry is one cell: in flight until done is closed (the close
// publishes val and err), retained while el is set.
type cellEntry struct {
	key  string
	done chan struct{}
	val  []byte
	err  error
	el   *list.Element
}

// newCellCache builds a cache retaining at most max cells.
func newCellCache(max int) *cellCache {
	return &cellCache{max: max, entries: make(map[string]*cellEntry)}
}

// lookup returns the retained bytes of every key, in order, or false when
// any of them is not retained. Only a full hit is counted; after a partial
// one, do counts each cell.
func (c *cellCache) lookup(keys []string) ([][]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	vals := make([][]byte, len(keys))
	for i, key := range keys {
		e := c.entries[key]
		if e == nil || e.el == nil {
			return nil, false
		}
		c.lru.MoveToFront(e.el)
		vals[i] = e.val
	}
	c.hits += uint64(len(keys))
	return vals, true
}

// do returns key's cell: its retained bytes, the result of the computation
// already in flight for it, or — as the leader — the result of running
// compute. The leader runs compute to completion whatever ctx says, since
// the result serves every waiter and is retained for later requests; a
// waiter whose ctx is done first returns ctx.Err(). shared reports whether
// the value came from another caller's computation.
func (c *cellCache) do(ctx context.Context, key string, compute func() ([]byte, error)) (val []byte, shared bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.el != nil {
			c.hits++
			c.lru.MoveToFront(e.el)
			c.mu.Unlock()
			return e.val, false, nil
		}
		c.misses++
		c.waiters++
		c.mu.Unlock()
		select {
		case <-e.done:
			return e.val, true, e.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	e := &cellEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.leaders++
	c.mu.Unlock()

	// Settle before returning — and before propagating a panic — so
	// waiters can never block forever on an abandoned entry.
	defer func() {
		if r := recover(); r != nil {
			e.err = errCellPanicked
			c.settle(e)
			panic(r)
		}
	}()
	e.val, e.err = compute()
	c.settle(e)
	return e.val, false, e.err
}

// settle ends e's flight: a success is retained (evicting the least
// recently used cells beyond the bound), a failure is forgotten so a later
// request computes anew. done is closed last, after the entry's fate is
// visible to new callers.
func (c *cellCache) settle(e *cellEntry) {
	c.mu.Lock()
	if e.err != nil || c.max <= 0 {
		delete(c.entries, e.key)
	} else {
		e.el = c.lru.PushFront(e)
		c.bytes += int64(len(e.val))
		for c.lru.Len() > c.max {
			old := c.lru.Remove(c.lru.Back()).(*cellEntry)
			old.el = nil
			delete(c.entries, old.key)
			c.bytes -= int64(len(old.val))
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// cellCacheStats is the retained tier's swapd.stats block.
type cellCacheStats struct {
	// Entries and Bytes describe the retained cells; MaxEntries the
	// configured bound in cells (0 = nothing retained).
	Entries    int   `json:"entries"`
	MaxEntries int   `json:"maxEntries"`
	Bytes      int64 `json:"bytes"`
	// Hits, Misses and Evictions are cumulative, in cells.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// coalescingStats is the in-flight tier's swapd.stats block.
type coalescingStats struct {
	Leaders  uint64  `json:"leaders"`
	Waiters  uint64  `json:"waiters"`
	HitRate  float64 `json:"hitRate"`
	InFlight int     `json:"inFlight"`
}

// stats snapshots swapd.stats' respCache and coalescing blocks together.
func (c *cellCache) stats() (cellCacheStats, coalescingStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := cellCacheStats{
		Entries:    c.lru.Len(),
		MaxEntries: max(c.max, 0),
		Bytes:      c.bytes,
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
	}
	co := coalescingStats{Leaders: c.leaders, Waiters: c.waiters, InFlight: len(c.entries) - c.lru.Len()}
	if total := c.leaders + c.waiters; total > 0 {
		co.HitRate = float64(c.waiters) / float64(total)
	}
	return resp, co
}
