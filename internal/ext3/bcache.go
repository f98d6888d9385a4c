package ext3

import (
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
	running bool          // in journal.running (padding after meta: 80 bytes stay 80)
	pins    int           // committed-but-not-checkpointed; not evictable
	readyAt time.Duration // async read-ahead completion time
	stamp   uint64        // recency: bcache.clock at the last move to the LRU front

	newer, older *buffer // LRU ring through bcache.lru; stale once unlinked
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
// order any two buffers without walking the ring.
//
// Buffer ownership: a slice passed to insertPrefetch may be reused by the
// caller on return (it copies synchronously). Every write reaches the device
// by reference (Device.WriteRun, from writeRuns and writeCut): the device
// only reads the blocks during the call, keeps a shared one as itself and
// copies a private one, so dirty blocks go home without a copy.
//
// Block memory follows content (see package blockdev): a buffer's data is
// either the shared read-only block of one byte repeated or one whole private
// block from pool (nil: the heap). Only the data path makes shared buffers:
// insertPrefetch and set take whatever their source is, and view hands out
// data only to be read. get keeps the contract every meta-data writer relies
// on, that the data it returns is private and writable: a shared buffer
// becomes private there, the first time a partial write, a meta-data update
// or a zero get lands in it. Nothing else writes a buffer's data.
//
// A private block goes back where the cache drops it. The hold rule that
// makes this safe is scoped to the operation: a *buffer obtained during one
// file-system operation is not used after the operation returns. What
// outlives an operation (journal.running, committed buffers awaiting their
// checkpoint, the dirty set) refers only to dirty or pinned buffers, which
// are never victims. Inside an operation a caller does hold buffers across
// evictions (see markDirty), so a buffer the cache unlinks is only retired,
// and so is a private block a shared one replaces in a resident buffer (set);
// reclaim, which FS.tick runs on entry (every operation's tail call, when
// none is in flight), frees retired buffers, which mem's slab hands out again
// with a pool or without one, and gives their blocks to the pool.
//
// Resident buffers are indexed by block number in a blockdev.Table, and the
// lbas of the dirty data buffers are a set beside it (a Table of nothing),
// walked in ascending order by flushData; the leaves of both come from and go
// back to the pool (dropAll). A dirty buffer is always the resident one for
// its lba, so the set holds numbers only.
type bcache struct {
	dev     blockdev.Device
	max     int
	blocks  blockdev.Table[*buffer]
	lru     buffer  // ring sentinel: lru.older is the most recently used buffer, lru.newer the least
	clock   uint64  // last stamp handed out
	blocked *buffer // nil: nothing known to be blocked
	stats   bcacheStats
	dirty   blockdev.Table[struct{}] // lbas of the dirty non-journaled (file data) buffers
	tracer  *tracing.Tracer          // cache-miss spans (nil = tracing off)
	// mem holds the pool, the buffers, those unlinked since the last reclaim
	// (a reinstated buffer may be among them) and the blocks set displaced.
	mem blockdev.Reclaimer[buffer]
}

func newBcache(dev blockdev.Device, max int, pool *blockdev.Pool) *bcache {
	c := &bcache{dev: dev, max: max, mem: blockdev.Reclaimer[buffer]{Pool: pool}}
	c.blocks.SetPool(pool)
	c.dirty.SetPool(pool)
	c.lru.newer, c.lru.older = &c.lru, &c.lru
	return c
}

func (c *bcache) touch(b *buffer) {
	c.unlink(b)
	c.front(b)
}

// front puts b, which is not on the ring, at its most recently used end.
func (c *bcache) front(b *buffer) {
	b.newer, b.older = &c.lru, c.lru.older
	b.older.newer, c.lru.older = b, b
	c.clock++
	b.stamp = c.clock
}

// pushFront links b in as the most recently used buffer for its lba.
func (c *bcache) pushFront(b *buffer) {
	c.front(b)
	c.blocks.Set(b.lba, b)
}

func (c *bcache) insert(b *buffer) {
	c.pushFront(b)
	c.evictIfNeeded()
}

// unlink takes b out of the LRU ring. It keeps blocked valid: the buffers
// behind b are still all dirty or pinned.
func (c *bcache) unlink(b *buffer) {
	if c.blocked == b {
		c.blocked = c.behind(b)
	}
	b.newer.older, b.older.newer = b.older, b.newer
}

// behind returns the next older buffer, or nil when b is the oldest.
func (c *bcache) behind(b *buffer) *buffer {
	if b.older == &c.lru {
		return nil
	}
	return b.older
}

// unblock tells the cache that b may have just become clean and unpinned.
// If b sits at or behind blocked, the search must resume at b. A buffer
// that is no longer resident has no place in the ring and is ignored.
func (c *bcache) unblock(b *buffer) {
	if b.dirty || b.pins > 0 || c.blocked == nil || c.peek(b.lba) != b {
		return
	}
	if b.stamp <= c.blocked.stamp {
		c.blocked = c.behind(b)
	}
}

func (c *bcache) evictIfNeeded() {
	for c.blocks.Len() > c.max {
		b := c.lru.newer
		if c.blocked != nil {
			b = c.blocked.newer
		}
		for b != &c.lru && (b.dirty || b.pins > 0) {
			c.blocked = b
			b = b.newer
		}
		if b == &c.lru {
			return // everything dirty/pinned; allow temporary overflow
		}
		c.unlink(b)
		c.blocks.Delete(b.lba)
		c.stats.Evictions++
		c.mem.Retire(b) // whoever obtained it during the operation in flight may still use it
	}
}

// reclaim frees retired buffers and gives their blocks, and the replaced
// blocks, to the pool. Callers guarantee that no operation is in flight. A
// buffer markDirty reinstated is resident again and stays; one retired twice
// is freed once.
func (c *bcache) reclaim() {
	c.mem.Reclaim(func(b *buffer) *[]byte {
		if c.peek(b.lba) == b {
			return nil
		}
		return &b.data
	})
}

// peek returns the cached buffer without device access, or nil.
func (c *bcache) peek(lba int64) *buffer {
	b, _ := c.blocks.Get(lba)
	return b
}

// lookup is the one search get, view and set share, so all three count and
// order alike: a hit moves the buffer to the front, counts, and waits for a
// read-ahead in flight; a miss checks the address and counts, and the caller
// fills the block.
func (c *bcache) lookup(at time.Duration, lba int64) (*buffer, time.Duration, error) {
	if b := c.peek(lba); b != nil {
		c.touch(b)
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
	return nil, at, nil
}

// get returns the block at lba, reading through the device on a miss, with
// data the caller may write (private). With zero set, a miss produces a
// zero-filled block without device I/O (fresh allocations). The returned
// done time accounts for the device read and for waiting on an in-flight
// read-ahead.
func (c *bcache) get(at time.Duration, lba int64, zero bool) (*buffer, time.Duration, error) {
	b, done, err := c.lookup(at, lba)
	if err != nil {
		return nil, done, err
	}
	if b == nil {
		return c.fill(at, lba, zero)
	}
	b.data = c.mem.Pool.Writable(b.data)
	if zero {
		// Fresh allocation of a block with stale cached content (it
		// was freed and reallocated): the caller expects zeroes.
		clear(b.data)
	}
	return b, done, nil
}

// view is get for a caller that only reads the data, which may be shared.
func (c *bcache) view(at time.Duration, lba int64) (*buffer, time.Duration, error) {
	b, done, err := c.lookup(at, lba)
	if b != nil || err != nil {
		return b, done, err
	}
	return c.fill(at, lba, false)
}

// set makes src, one whole block, the content of lba without reading it: a
// get with zero set followed by a copy, in every counter, wait and eviction,
// except that uniform src makes the data shared. src is only read: a shared
// src (an NFS client's page, by reference) is taken as itself uncompared.
func (c *bcache) set(at time.Duration, lba int64, src []byte) (*buffer, time.Duration, error) {
	b, done, err := c.lookup(at, lba)
	if err != nil {
		return nil, done, err
	}
	if b == nil {
		b = c.mem.New(buffer{lba: lba, data: c.mem.Pool.Load(src)})
		c.insert(b)
		return b, at, nil
	}
	b.data = c.mem.Replace(b.data, src)
	return b, done, nil
}

// fill caches lba after a lookup missed: a private block, zeroed when zero is
// set, else read from the device.
func (c *bcache) fill(at time.Duration, lba int64, zero bool) (*buffer, time.Duration, error) {
	// A recycled block is cleared only when nothing is about to fill it.
	b := c.mem.New(buffer{lba: lba, data: c.mem.Pool.Get(zero)})
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

// insertPrefetch caches a copy of data for lba arriving at readyAt
// (read-ahead): shared when data is one byte repeated.
func (c *bcache) insertPrefetch(lba int64, data []byte, readyAt time.Duration) {
	if c.peek(lba) != nil {
		return
	}
	c.insert(c.mem.New(buffer{lba: lba, data: c.mem.Pool.Load(data), readyAt: readyAt}))
}

// markDirty flags a buffer dirty; meta selects the journaled class.
//
// A caller may hold a buffer across other cache operations (an indirect
// block across a bitmap fetch, say) during which eviction can drop the
// clean buffer — or a re-read can supersede it. Marking dirty reinstates
// the caller's copy as the authoritative resident one, so mutations are
// never silently lost; the copy it supersedes is retired like a victim.
func (c *bcache) markDirty(b *buffer, meta bool) {
	if cur := c.peek(b.lba); cur != b {
		if cur != nil {
			c.unlink(cur)
			if cur.dirty && !cur.meta {
				c.dirty.Delete(cur.lba)
			}
			c.mem.Retire(cur)
		}
		c.pushFront(b)
	}
	if b.dirty && b.meta == meta {
		return
	}
	if b.dirty && !b.meta && meta {
		// Promotion from data to meta-data class (rare; e.g. block reuse).
		c.dirty.Delete(b.lba)
	}
	b.dirty = true
	b.meta = meta
	if !meta {
		c.dirty.Set(b.lba, struct{}{})
	}
}

// cleanData clears the dirty flag of a data buffer after flush.
func (c *bcache) cleanData(b *buffer) {
	b.dirty = false
	c.dirty.Delete(b.lba)
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
	if b := c.peek(lba); b != nil && b.pins > 0 {
		b.pins--
		c.unblock(b)
	}
}

// dropAll discards every cached block — the crash model. Dirty state is
// lost, exactly as client RAM contents are lost in the paper's reliability
// discussion (Section 2.3). Callers (Unmount, Crash) leave the filesystem
// unmounted and drop the running transaction, so no path reaches a buffer
// afterwards: every retired and every resident block goes back to the pool,
// and a buffer someone still holds by mistake is zero rather than recycled.
// The buffers' chunks and the index's leaves go back too. Without a pool
// nothing is recycled.
func (c *bcache) dropAll() {
	c.mem.Release(func(b *buffer) []byte { return b.data })
	c.blocks.Release()
	c.dirty.Release()
	c.lru.newer, c.lru.older = &c.lru, &c.lru
	c.blocked = nil
}
