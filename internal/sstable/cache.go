package sstable

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// BlockCache is a byte-bounded LRU cache of parsed data blocks, the
// analogue of the HBase block cache. One cache may be shared by many
// readers (e.g. all tables of a store); entries are keyed by (reader,
// offset) and evicted in least-recently-used order once the byte budget is
// exceeded. Safe for concurrent use.
//
// The cache is also the cached read path's byte-accounting point: every
// cached data-block lookup lands here, so hits, misses, evictions and the
// bytes its readers pulled from disk on misses are counted as cheap
// atomics, snapshotted by Stats. Sequential iterators and the index and
// filter loads at open bypass the cache and are not counted.
type BlockCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	order    *list.List // front = most recent; values are *cacheEntry
	entries  map[cacheKey]*list.Element

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	diskReadBytes atomic.Int64 // raw bytes readers fetched from disk
}

// CacheStats is a point-in-time snapshot of a cache's effectiveness
// counters. DiskReadBytes is the stored bytes of the data blocks its
// readers fetched on misses.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	DiskReadBytes int64 `json:"disk_read_bytes"`
	UsedBytes     int64 `json:"used_bytes"`
	Blocks        int64 `json:"blocks"`
}

// Stats snapshots the cache counters.
func (c *BlockCache) Stats() CacheStats {
	st := CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		DiskReadBytes: c.diskReadBytes.Load(),
	}
	c.mu.Lock()
	st.UsedBytes = c.used
	st.Blocks = int64(c.order.Len())
	c.mu.Unlock()
	return st
}

// recordDiskRead accounts n stored bytes an owning reader fetched on a miss.
func (c *BlockCache) recordDiskRead(n int64) { c.diskReadBytes.Add(n) }

type cacheKey struct {
	owner  *Reader
	offset uint64
}

type cacheEntry struct {
	key   cacheKey
	block *block
	size  int64
}

// DefaultBlockCacheBytes is the default cache budget.
const DefaultBlockCacheBytes = 8 << 20

// NewBlockCache returns a cache bounded to capacity bytes of block data.
// Non-positive capacities select the default.
func NewBlockCache(capacity int64) *BlockCache {
	if capacity <= 0 {
		capacity = DefaultBlockCacheBytes
	}
	return &BlockCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[cacheKey]*list.Element),
	}
}

// get returns the cached block for (owner, offset), if present.
func (c *BlockCache) get(owner *Reader, offset uint64) (*block, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[cacheKey{owner, offset}]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).block, true
}

// put inserts a block, evicting LRU entries beyond the capacity.
func (c *BlockCache) put(owner *Reader, offset uint64, b *block) {
	size := int64(len(b.data) + 4*len(b.restarts))
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{owner, offset}
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		_ = el
		return
	}
	el := c.order.PushFront(&cacheEntry{key: key, block: b, size: size})
	c.entries[key] = el
	c.used += size
	for c.used > c.capacity {
		back := c.order.Back()
		if back == nil || back == el {
			break // never evict the entry just inserted
		}
		e := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, e.key)
		c.used -= e.size
		c.evictions.Add(1)
	}
}

// evictOwner drops every entry belonging to a reader; called on Close so a
// shared cache does not pin closed tables.
func (c *BlockCache) evictOwner(owner *Reader) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.owner == owner {
			c.order.Remove(el)
			delete(c.entries, e.key)
			c.used -= e.size
		}
		el = next
	}
}

// UsedBytes reports the cache occupancy.
func (c *BlockCache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len reports the number of cached blocks.
func (c *BlockCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
