// Package readcache is a TTL'd singleflight response cache for hot read
// endpoints: concurrent requests for one key share a single fill (the
// thundering-herd guard), a filled value serves hits until its TTL
// expires, and the whole cache can be invalidated at once when the data
// underneath visibly advances (a follower's replayed LSN moving).
package readcache

import (
	"sync"
	"sync/atomic"
	"time"
)

// entry is one cached fill. done closes when the fill completes; val/err
// are immutable afterwards.
type entry struct {
	done chan struct{}
	val  []byte
	err  error
	at   time.Time // fill completion time; zero while in flight
}

// Cache is a TTL'd singleflight cache of rendered responses. The zero
// value is not usable; see New.
type Cache struct {
	ttl time.Duration

	mu      sync.Mutex
	entries map[string]*entry

	hits   atomic.Uint64
	misses atomic.Uint64
}

// New returns a cache whose filled values stay fresh for ttl.
func New(ttl time.Duration) *Cache {
	return &Cache{ttl: ttl, entries: make(map[string]*entry)}
}

// Get returns the cached value for key, filling it with fill on a miss.
// Concurrent Gets for one missing key run fill once and share its result
// (waiters count as hits; only the filler counts a miss). A fill error is
// returned to everyone waiting on it and then evicted, so the next Get
// retries. Stale entries (older than the TTL) are refilled in the same
// way.
func (c *Cache) Get(key string, fill func() ([]byte, error)) ([]byte, error) {
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if ok {
			c.mu.Unlock()
			<-e.done
			if e.err == nil && time.Since(e.at) <= c.ttl {
				c.hits.Add(1)
				return e.val, nil
			}
			// Expired (or errored): evict this exact entry and race to
			// refill. Another goroutine may already have replaced it —
			// the loop re-reads.
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
			continue
		}
		e = &entry{done: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()

		c.misses.Add(1)
		e.val, e.err = fill()
		e.at = time.Now()
		close(e.done)
		if e.err != nil {
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
			return nil, e.err
		}
		return e.val, nil
	}
}

// InvalidateFunc drops only the entries whose key satisfies pred, leaving
// the rest to serve out their TTL (in-flight fills complete and serve their
// waiters, but later Gets refill). Counters survive. A follower uses this to evict just the
// responses scoped to shards whose applied LSN actually moved, instead of
// emptying the whole cache on every tail batch.
func (c *Cache) InvalidateFunc(pred func(key string) bool) {
	c.mu.Lock()
	for k := range c.entries {
		if pred(k) {
			delete(c.entries, k)
		}
	}
	c.mu.Unlock()
}

// Stats is a monitoring snapshot of the cache.
type Stats struct {
	// Hits counts Gets served from a fresh fill (shared-fill waiters
	// included); Misses counts fills run.
	Hits   uint64
	Misses uint64
	// Entries is the live entry count, in-flight fills included.
	Entries int
	// OldestAge is the age of the oldest completed fill still cached
	// (0 when empty) — bounded by the TTL plus eviction laziness.
	OldestAge time.Duration
}

// Stats returns a monitoring snapshot.
func (c *Cache) Stats() Stats {
	st := Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	now := time.Now()
	c.mu.Lock()
	st.Entries = len(c.entries)
	for _, e := range c.entries {
		select {
		case <-e.done:
			if age := now.Sub(e.at); age > st.OldestAge {
				st.OldestAge = age
			}
		default: // in flight; no completed fill to age
		}
	}
	c.mu.Unlock()
	return st
}
