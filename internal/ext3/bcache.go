package ext3

import (
	"container/list"
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/tracing"
)

// buffer is one cached block.
type buffer struct {
	lba     int64
	data    []byte
	dirty   bool
	meta    bool          // part of the running journal transaction when dirty
	pins    int           // committed-but-not-checkpointed; not evictable
	readyAt time.Duration // async read-ahead completion time
	elem    *list.Element
	stamp   uint64 // recency: bcache.clock at the last move to the LRU front
	pooled  bool   // data is a whole block from bcache.pool, not an adopted sub-slice
}

// bcacheStats counts cache behaviour.
type bcacheStats struct {
	Hits, Misses, Evictions int64
	ReadAheadHits           int64
}

// bcache is the client-memory block cache: a unified page/buffer cache the
// way Linux treats ext3 data and meta-data blocks. Dirty and pinned blocks
// are never evicted; the journal cleans them at commit/checkpoint time.
//
// Eviction: the victim is always the least-recently-used buffer that is
// clean and unpinned. It is found without rescanning the dirty tail: blocked
// marks a buffer such that it and every buffer behind it (older) is dirty or
// pinned, and the search starts in front of it. blocked only moves towards
// the front, except when a buffer at or behind it becomes evictable
// (cleanData, unpin), which moves it to just behind that buffer; stamps
// order any two buffers without walking the list.
//
// Buffer ownership: a slice passed to Device.WriteBlocks may be reused by
// the caller on return (every device here copies synchronously); a slice
// given to insertPrefetch is owned by the cache from then on.
//
// Block memory: get takes the blocks it allocates from pool (nil: the heap)
// and only dropAll gives them back, when the whole cache dies and nothing
// can still refer to a buffer. Eviction never recycles: markDirty documents
// that callers hold buffers across evictions, so an evicted block is left
// to the collector. Blocks adopted by insertPrefetch are sub-slices of a run
// buffer and never go to the pool (one pooled 4 KB would keep its whole run
// alive for as long as the pool lives); buffer.pooled tells the two apart.
type bcache struct {
	dev       blockdev.Device
	max       int
	blocks    map[int64]*buffer
	lru       *list.List // front = most recently used
	clock     uint64     // last stamp handed out
	blocked   *list.Element
	stats     bcacheStats
	dirtyData map[int64]*buffer // dirty non-journaled (file data) blocks
	tracer    *tracing.Tracer   // cache-miss spans (nil = tracing off)
	pool      *blockdev.Pool
}

func newBcache(dev blockdev.Device, max int, pool *blockdev.Pool) *bcache {
	return &bcache{
		dev:       dev,
		max:       max,
		pool:      pool,
		blocks:    make(map[int64]*buffer),
		lru:       list.New(),
		dirtyData: make(map[int64]*buffer),
	}
}

func (c *bcache) touch(b *buffer) {
	c.leaving(b.elem)
	c.lru.MoveToFront(b.elem)
	c.clock++
	b.stamp = c.clock
}

// pushFront links b in as the most recently used buffer for its lba.
func (c *bcache) pushFront(b *buffer) {
	b.elem = c.lru.PushFront(b)
	c.clock++
	b.stamp = c.clock
	c.blocks[b.lba] = b
}

func (c *bcache) insert(b *buffer) {
	c.pushFront(b)
	c.evictIfNeeded()
}

// leaving keeps blocked valid when e is about to leave its LRU position:
// the buffers behind e are still all dirty or pinned.
func (c *bcache) leaving(e *list.Element) {
	if c.blocked == e {
		c.blocked = e.Next()
	}
}

// unblock tells the cache that b may have just become clean and unpinned.
// If b sits at or behind blocked, the search must resume at b. A buffer
// that is no longer resident has no place in the list and is ignored.
func (c *bcache) unblock(b *buffer) {
	if b.dirty || b.pins > 0 || c.blocked == nil || c.blocks[b.lba] != b {
		return
	}
	if b.stamp <= c.blocked.Value.(*buffer).stamp {
		c.blocked = b.elem.Next()
	}
}

func (c *bcache) evictIfNeeded() {
	for len(c.blocks) > c.max {
		e := c.lru.Back()
		if c.blocked != nil {
			e = c.blocked.Prev()
		}
		for ; e != nil; e = e.Prev() {
			if b := e.Value.(*buffer); !b.dirty && b.pins == 0 {
				break
			}
			c.blocked = e
		}
		if e == nil {
			return // everything dirty/pinned; allow temporary overflow
		}
		b := e.Value.(*buffer)
		c.lru.Remove(e)
		delete(c.blocks, b.lba)
		c.stats.Evictions++
	}
}

// peek returns the cached buffer without device access, or nil.
func (c *bcache) peek(lba int64) *buffer { return c.blocks[lba] }

// get returns the block at lba, reading through the device on a miss. With
// zero set, a miss produces a zero-filled block without device I/O (fresh
// allocations). The returned done time accounts for the device read and for
// waiting on an in-flight read-ahead.
func (c *bcache) get(at time.Duration, lba int64, zero bool) (*buffer, time.Duration, error) {
	if b, ok := c.blocks[lba]; ok {
		c.touch(b)
		if zero {
			// Fresh allocation of a block with stale cached content (it
			// was freed and reallocated): the caller expects zeroes.
			for i := range b.data {
				b.data[i] = 0
			}
		}
		done := at
		if b.readyAt > at {
			// Read-ahead in flight: wait for it.
			done = b.readyAt
			c.stats.ReadAheadHits++
		}
		c.stats.Hits++
		return b, done, nil
	}
	if lba < 0 || lba >= c.dev.NumBlocks() {
		return nil, at, fmt.Errorf("ext3: implausible block address %d (device holds %d)", lba, c.dev.NumBlocks())
	}
	c.stats.Misses++
	// A recycled block is cleared only when nothing is about to fill it.
	b := &buffer{lba: lba, data: c.pool.Get(zero), pooled: true}
	done := at
	if !zero {
		// The miss span parents the device I/O it forces (iSCSI exchange
		// or RAID phases), so cache decisions show up on the critical path.
		ref := c.tracer.Begin(at, tracing.LayerCache, "miss")
		var err error
		done, err = c.dev.ReadBlocks(at, lba, b.data)
		c.tracer.End(ref, done)
		if err != nil {
			return nil, at, fmt.Errorf("ext3: block read %d: %w", lba, err)
		}
	}
	c.insert(b)
	return b, done, nil
}

// insertPrefetch caches data for lba arriving at readyAt (read-ahead).
func (c *bcache) insertPrefetch(lba int64, data []byte, readyAt time.Duration) {
	if _, ok := c.blocks[lba]; ok {
		return
	}
	b := &buffer{lba: lba, data: data, readyAt: readyAt}
	c.insert(b)
}

// markDirty flags a buffer dirty; meta selects the journaled class.
//
// A caller may hold a buffer across other cache operations (an indirect
// block across a bitmap fetch, say) during which eviction can drop the
// clean buffer — or a re-read can supersede it. Marking dirty reinstates
// the caller's copy as the authoritative resident one, so mutations are
// never silently lost.
func (c *bcache) markDirty(b *buffer, meta bool) {
	if cur, ok := c.blocks[b.lba]; !ok || cur != b {
		if ok {
			c.leaving(cur.elem)
			c.lru.Remove(cur.elem)
			if cur.dirty && !cur.meta {
				delete(c.dirtyData, cur.lba)
			}
		}
		c.pushFront(b)
	}
	if b.dirty && b.meta == meta {
		return
	}
	if b.dirty && !b.meta && meta {
		// Promotion from data to meta-data class (rare; e.g. block reuse).
		delete(c.dirtyData, b.lba)
	}
	b.dirty = true
	b.meta = meta
	if !meta {
		c.dirtyData[b.lba] = b
	}
}

// cleanData clears the dirty flag of a data buffer after flush.
func (c *bcache) cleanData(b *buffer) {
	b.dirty = false
	delete(c.dirtyData, b.lba)
	c.unblock(b)
}

// pinCommitted turns a journaled buffer clean but pinned: its image is
// durable in the journal and must stay resident until checkpointed home.
// pins changes only here and in unpin, so the cursor cannot miss a buffer
// becoming evictable.
func (c *bcache) pinCommitted(b *buffer) {
	b.dirty = false
	b.pins++
}

// unpin drops one checkpoint pin from the resident buffer for lba, if any.
func (c *bcache) unpin(lba int64) {
	if b := c.blocks[lba]; b != nil && b.pins > 0 {
		b.pins--
		c.unblock(b)
	}
}

// dropAll discards every cached block — the crash model. Dirty state is
// lost, exactly as client RAM contents are lost in the paper's reliability
// discussion (Section 2.3). It is the one place blocks return to the pool:
// callers (Unmount, Crash) leave the filesystem unmounted and drop the
// running transaction, so no path reaches a resident buffer afterwards, and
// a buffer someone still holds by mistake has no data rather than recycled
// data. Without a pool nothing is recycled, and nothing is touched.
func (c *bcache) dropAll() {
	if c.pool != nil {
		for _, b := range c.blocks {
			if b.pooled {
				c.pool.Put(b.data)
			}
			b.data = nil
		}
	}
	c.blocks = make(map[int64]*buffer)
	c.dirtyData = make(map[int64]*buffer)
	c.lru.Init()
	c.blocked = nil
}
