// Package memo provides the small concurrency-safe memoization primitive
// under the repository's amortized solve engine: a generic map from a
// comparable key to a compute-once value, with lock-free reads on the hit
// path, an optional constant entry bound, and hit/miss/eviction counters
// for cache introspection.
//
// It is a leaf package (no repro imports) so that both the numeric layers
// (internal/mathx quadrature tables) and the solver layers (internal/core
// per-model solve memos, internal/solvecache cross-artifact model cache)
// can share one implementation.
package memo

import (
	"sync"
	"sync/atomic"
)

// Map memoizes a pure function of K. The zero value is ready to use and
// unbounded.
//
// Reads of already-computed entries are lock-free (sync.Map fast path).
// Concurrent first requests for the same key share one computation: losers
// block until the winner's value is stored, so side-effect-free compute
// functions run exactly once per key while it is retained. Values must be
// treated as immutable by callers — they are returned by reference to
// every future caller.
type Map[K comparable, V any] struct {
	// Max bounds the number of retained entries; zero means unbounded. It
	// is checked only on the miss path: a miss that finds Max entries
	// clears the map before inserting, counting the dropped entries as
	// evictions, so the hit path stays lock-free. Concurrent misses can
	// overshoot by one entry per inserting goroutine. Set Max before first
	// use.
	Max int

	m       sync.Map     // K -> *entry[V]
	n       atomic.Int64 // retained entries
	flushMu sync.Mutex   // serialises flushes
	hits    atomic.Uint64
	misses  atomic.Uint64
	evicted atomic.Uint64
}

// entry is a compute-once cell: done is closed after val (or panicked) is
// set, which publishes it to waiters (channel close is a happens-before
// edge). A compute that panicked records the panic value so waiters
// re-panic instead of blocking forever or silently reading a zero value.
type entry[V any] struct {
	done     chan struct{}
	val      V
	panicked any
}

// await blocks until the entry is computed and returns its value,
// re-raising the computing goroutine's panic if it had one.
func (e *entry[V]) await() V {
	<-e.done
	if e.panicked != nil {
		panic(e.panicked)
	}
	return e.val
}

// Do returns the memoized value for key, computing it with compute on the
// first request. compute must be a pure function of key: the value is
// shared with every later caller until a flush drops it, after which the
// next request recomputes it. If compute panics, the panic propagates to
// the caller and to every waiter on the same key (the entry stays
// poisoned until flushed: later calls re-panic rather than re-compute,
// matching sync.Once semantics).
func (c *Map[K, V]) Do(key K, compute func() V) V {
	if e, ok := c.m.Load(key); ok {
		c.hits.Add(1)
		return e.(*entry[V]).await()
	}
	if c.Max > 0 && c.n.Load() >= int64(c.Max) {
		c.flush()
	}
	fresh := &entry[V]{done: make(chan struct{})}
	e, loaded := c.m.LoadOrStore(key, fresh)
	ent := e.(*entry[V])
	if loaded {
		c.hits.Add(1)
		return ent.await()
	}
	c.misses.Add(1)
	c.n.Add(1)
	defer func() {
		if r := recover(); r != nil {
			ent.panicked = r
			close(ent.done)
			panic(r)
		}
		close(ent.done)
	}()
	ent.val = compute()
	return ent.val
}

// flush drops every entry once the map holds Max of them. Waiters already
// blocked on a dropped entry still receive its value (they hold the
// entry); a later Do for its key recomputes, which is harmless duplicate
// work for pure compute functions.
func (c *Map[K, V]) flush() {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	if c.n.Load() < int64(c.Max) {
		return // a concurrent miss flushed first
	}
	c.m.Range(func(k, _ any) bool {
		c.m.Delete(k)
		c.n.Add(-1)
		c.evicted.Add(1)
		return true
	})
}

// Range calls fn for every completed entry (in-flight and poisoned
// computations are skipped) until fn returns false. Like sync.Map.Range,
// it does not represent a consistent snapshot.
func (c *Map[K, V]) Range(fn func(key K, val V) bool) {
	c.m.Range(func(k, e any) bool {
		ent := e.(*entry[V])
		select {
		case <-ent.done:
			if ent.panicked != nil {
				return true
			}
			return fn(k.(K), ent.val)
		default:
			return true
		}
	})
}

// Len reports the number of retained entries (including in-flight ones).
func (c *Map[K, V]) Len() int { return int(c.n.Load()) }

// Stats returns the cumulative hit and miss counts.
func (c *Map[K, V]) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns the cumulative number of entries dropped to keep the
// map within Max.
func (c *Map[K, V]) Evictions() uint64 { return c.evicted.Load() }
