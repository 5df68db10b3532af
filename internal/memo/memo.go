// Package memo is the one memoization primitive of the study engine
// and its daemon: a bounded, sharded, singleflight map. The suite
// cache (internal/core), the campaign-plan cache (internal/core), the
// sharing cache (internal/perfmodel), the derivation memo
// (internal/machine) and the rendered-response cache (internal/serve)
// are all instances of it; docs/PERFORMANCE.md lists each one's key,
// cap and scope.
//
// A Cache splits its entries over 16 shards, selected by a hash the
// caller supplies, so lookups of different keys rarely share a lock.
// Each shard holds at most capacity/16 entries; when a full shard
// admits a new key it evicts an arbitrary entry of that shard first
// (map iteration order). A lookup that misses fills the entry exactly
// once while concurrent lookups of the same key wait for that one
// fill; a fill error is returned to every waiter and is not cached, so
// the next lookup fills again.
package memo

import (
	"sync"
	"sync/atomic"
)

// Shards is the shard count, a power of two so a shard is a slice of
// the hash's bits.
const Shards = 1 << shardBits

const shardBits = 4

// Stats is a Cache's counters. Hits and Misses count successful Gets,
// served from an existing entry or filled; a Get whose fill failed
// counts as neither. Evictions counts entries dropped to make room;
// Entries is the live entry count, in-flight fills included.
type Stats struct {
	Hits, Misses, Evictions, Entries uint64
}

// Cache is a bounded, sharded, singleflight memo from K to V. The zero
// value is not usable; build one with New. Values are shared between
// every caller that gets them, so V should be immutable or copied on
// the way out.
type Cache[K comparable, V any] struct {
	hash     func(K) uint64
	perShard int
	shards   [Shards]shard[K, V]
}

type shard[K comparable, V any] struct {
	mu           sync.Mutex
	m            map[K]*entry[V]
	evictions    uint64 // guarded by mu
	hits, misses atomic.Uint64
}

type entry[V any] struct {
	once sync.Once
	val  V
	err  error
	// done flips after a successful fill; Range reads it to skip
	// entries still in flight without waiting on them.
	done atomic.Bool
}

// New returns a Cache holding at most capacity entries (at least one
// per shard), sharded by hash.
func New[K comparable, V any](capacity int, hash func(K) uint64) *Cache[K, V] {
	return &Cache[K, V]{hash: hash, perShard: capacity / Shards}
}

// shard picks the top bits of the hash times 2^64/φ (Fibonacci
// hashing), which depend on every bit of the hash. The hash's own bits
// can be weak: Mix folds whole words with one multiply, which carries
// an input bit upward only a few places, so its low bits see just the
// inputs' low bits — all zero in, for one, the float64 bits of a
// whole-hertz clock.
func (c *Cache[K, V]) shard(k K) *shard[K, V] {
	return &c.shards[(c.hash(k)*0x9e3779b97f4a7c15)>>(64-shardBits)]
}

// insert stores e under k, evicting an arbitrary entry first when the
// shard is full. The caller holds s.mu.
func (s *shard[K, V]) insert(k K, e *entry[V], perShard int) {
	if s.m == nil {
		s.m = make(map[K]*entry[V])
	}
	if len(s.m) >= perShard {
		// A victim still being filled completes for the callers that
		// hold it; it just is not found again.
		for victim := range s.m {
			delete(s.m, victim)
			s.evictions++
			break
		}
	}
	s.m[k] = e
}

// Get returns the value for k, calling fill to compute it when k is
// absent. Concurrent Gets of an absent key share one fill call.
func (c *Cache[K, V]) Get(k K, fill func() (V, error)) (V, error) {
	s := c.shard(k)
	s.mu.Lock()
	e, found := s.m[k]
	if !found {
		e = &entry[V]{}
		s.insert(k, e, c.perShard)
	}
	s.mu.Unlock()
	e.once.Do(func() {
		e.val, e.err = fill()
		if e.err != nil {
			s.mu.Lock()
			if s.m[k] == e {
				delete(s.m, k)
			}
			s.mu.Unlock()
			return
		}
		e.done.Store(true)
	})
	if e.err != nil {
		var zero V
		return zero, e.err
	}
	if found {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return e.val, nil
}

// Lookup returns the value for k when a fill for it has completed,
// without filling. A found value counts as a hit.
func (c *Cache[K, V]) Lookup(k K) (V, bool) {
	s := c.shard(k)
	s.mu.Lock()
	e := s.m[k]
	s.mu.Unlock()
	if e == nil || !e.done.Load() {
		var zero V
		return zero, false
	}
	s.hits.Add(1)
	return e.val, true
}

// Add stores v under k unless k is already present, and reports
// whether it stored. An existing entry is never overwritten, and an
// Add counts as neither a hit nor a miss. Restoring a snapshot uses it.
func (c *Cache[K, V]) Add(k K, v V) bool {
	e := &entry[V]{val: v}
	e.once.Do(func() {})
	e.done.Store(true)
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[k]; ok {
		return false
	}
	s.insert(k, e, c.perShard)
	return true
}

// Range calls f for every entry whose fill has completed successfully,
// skipping entries still in flight. f runs outside the shard locks, so
// it may call back into the cache.
func (c *Cache[K, V]) Range(f func(K, V)) {
	type pair struct {
		k K
		v V
	}
	var done []pair
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.m {
			if e.done.Load() {
				done = append(done, pair{k, e.val})
			}
		}
		s.mu.Unlock()
		for _, p := range done {
			f(p.k, p.v)
		}
		done = done[:0]
	}
}

// Stats sums the counters across shards.
func (c *Cache[K, V]) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		s.mu.Lock()
		st.Evictions += s.evictions
		st.Entries += uint64(len(s.m))
		s.mu.Unlock()
	}
	return st
}

// FNV-1a building blocks for the caller-supplied key hashes.
const (
	// Offset is the FNV-1a offset basis: the hash of no input.
	Offset  uint64 = 14695981039346656037
	prime64 uint64 = 1099511628211
)

// Mix folds v into the running hash h.
func Mix(h, v uint64) uint64 { return (h ^ v) * prime64 }

// MixString folds s into h byte by byte, then a separator, so ("ab",
// "c") and ("a", "bc") hash apart.
func MixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = Mix(h, uint64(s[i]))
	}
	return Mix(h, 0xff)
}
