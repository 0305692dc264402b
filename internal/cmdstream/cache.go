package cmdstream

import "sync"

// This file holds the lowered-program cache. Lowering one bulk bitwise
// operation — classifying its placement, building and protocol-checking
// the DDR command sequence, pricing latency and energy — is a pure
// function of the operation shape (op kind, physical operand addresses,
// bit span, datapath selection) on a fixed geometry: the data words are
// the only part of an execution that depends on memory contents. The cache
// memoises that pure part so a repeated op skips straight to its data
// effects. Entries are treated as immutable after Store (copy-on-write:
// consumers take cost/trace *views* of a cached entry and must never
// mutate the shared command slice). Because a key holds every physical
// address its lowering read, an entry stays correct when the row layout
// moves (a freed row handed out again keeps its address), so nothing is
// ever invalidated; MaxEntries alone bounds the population.

// MaxEntries caps a cache's population. Store empties a full cache before
// inserting, so the population never exceeds it; a steady workload's
// working set of shapes (hundreds for the bitmap-index queries, a handful
// for a BFS frontier) sits far below it. A System's window sandboxes share
// its cache, so the cap bounds the System and its sandboxes together.
const MaxEntries = 4096

// CacheStats counts cache traffic. Hits+Misses is the number of eligible
// lookups; Evictions counts the entries dropped to make room; Entries is
// the current population.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// Cache is a keyed store of lowered-program entries. The value type is
// opaque to this package (the controller stores its own entry struct);
// the cache owns keying, hit/miss accounting and the population bound.
// It is safe for concurrent use: a System's controller and the
// controllers of its window sandboxes share one, so shard workers look
// up and store while the owning goroutine may do so too. One mutex
// guards the map and the counters; a lookup holds it for one map index.
type Cache struct {
	mu        sync.Mutex
	entries   map[string]any
	hits      int64
	misses    int64
	evictions int64
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]any)}
}

// Lookup returns the entry stored under key. The []byte→string conversion
// in the map index compiles to an alloc-free lookup, so a hit costs no
// allocations.
func (c *Cache) Lookup(key []byte) (any, bool) {
	c.mu.Lock()
	e, ok := c.entries[string(key)]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return e, ok
}

// Store inserts an entry under key (copying the key), first dropping
// every entry when the cache already holds MaxEntries. The entry must be
// immutable from this point on: every later Lookup, on any goroutine,
// returns the same value, concurrently with whatever the first execution
// still holds. Two lookups that miss the same key at once both lower and
// store it; the entries are equal, so the second replaces the first.
func (c *Cache) Store(key []byte, entry any) {
	c.mu.Lock()
	if len(c.entries) >= MaxEntries {
		c.evictions += int64(len(c.entries))
		clear(c.entries)
	}
	c.entries[string(key)] = entry
	c.mu.Unlock()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.entries)}
}

// KeyBuffer builds cache keys without allocating: the byte slice is
// reused across calls, and the map lookup in Cache.Lookup never retains
// it. Keys are raw little-endian field concatenations — unambiguous
// because every encoder writes a fixed width.
type KeyBuffer struct {
	buf []byte
}

// Reset empties the buffer for the next key.
func (k *KeyBuffer) Reset() { k.buf = k.buf[:0] }

// Byte appends a one-byte field.
func (k *KeyBuffer) Byte(b byte) { k.buf = append(k.buf, b) }

// Uint64 appends a fixed-width 64-bit field.
func (k *KeyBuffer) Uint64(v uint64) {
	k.buf = append(k.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Int appends an int as a fixed-width 64-bit field.
func (k *KeyBuffer) Int(v int) { k.Uint64(uint64(int64(v))) }

// Bytes returns the assembled key, valid until the next Reset.
func (k *KeyBuffer) Bytes() []byte { return k.buf }
