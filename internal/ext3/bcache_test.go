package ext3

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockdev"
)

// sharedIntact fails the test if a shared block was written: a write landed
// in one of the read-only blocks the caches and stores refer to.
func sharedIntact(t *testing.T) {
	t.Helper()
	if err := (*blockdev.Pool)(nil).SharedIntact(); err != nil {
		t.Fatal(err)
	}
}

func newCache(t *testing.T, max int) (*bcache, *blockdev.Local) {
	t.Helper()
	dev := blockdev.NewTestbedArray(4096)
	return newBcache(dev, max, nil), dev
}

func TestBcacheReadThroughAndHit(t *testing.T) {
	bc, dev := newCache(t, 16)
	blk := make([]byte, BlockSize)
	blk[0] = 0xEE
	if _, err := dev.WriteBlocks(0, 100, blk); err != nil {
		t.Fatal(err)
	}
	b, _, err := bc.get(0, 100, false)
	if err != nil || b.data[0] != 0xEE {
		t.Fatalf("read-through: %v %x", err, b.data[0])
	}
	if bc.stats.Misses != 1 {
		t.Fatalf("misses=%d", bc.stats.Misses)
	}
	b2, _, err := bc.get(0, 100, false)
	if err != nil || b2 != b {
		t.Fatal("second get not a hit")
	}
	if bc.stats.Hits != 1 {
		t.Fatalf("hits=%d", bc.stats.Hits)
	}
}

func TestBcacheZeroGetSkipsDevice(t *testing.T) {
	bc, dev := newCache(t, 16)
	before := dev.Stats().Reads
	b, _, err := bc.get(0, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Stats().Reads != before {
		t.Fatal("zero get read the device")
	}
	for _, v := range b.data {
		if v != 0 {
			t.Fatal("zero get returned non-zero data")
		}
	}
}

func TestBcacheZeroGetClearsStaleHit(t *testing.T) {
	bc, _ := newCache(t, 16)
	b, _, _ := bc.get(0, 7, true)
	b.data[0] = 0xAB // stale content from a previous life
	b2, _, err := bc.get(0, 7, true)
	if err != nil || b2.data[0] != 0 {
		t.Fatalf("stale content survived zero get: %x", b2.data[0])
	}
}

func TestBcacheEvictionSkipsDirtyAndPinned(t *testing.T) {
	bc, _ := newCache(t, 4)
	dirty, _, _ := bc.get(0, 1, true)
	bc.markDirty(dirty, false)
	pinned, _, _ := bc.get(0, 2, true)
	pinned.pins = 1
	for lba := int64(10); lba < 20; lba++ {
		if _, _, err := bc.get(0, lba, true); err != nil {
			t.Fatal(err)
		}
	}
	if bc.peek(1) == nil {
		t.Fatal("dirty buffer evicted")
	}
	if bc.peek(2) == nil {
		t.Fatal("pinned buffer evicted")
	}
	if bc.blocks.Len() > 7 {
		t.Fatalf("eviction inactive: %d cached", bc.blocks.Len())
	}
}

// TestBcacheMarkDirtyReinstatesEvicted covers the use-after-eviction bug
// found during TPC-C runs: a caller's held buffer is evicted by another
// fetch, then mutated — markDirty must reinstate it as authoritative.
func TestBcacheMarkDirtyReinstatesEvicted(t *testing.T) {
	bc, _ := newCache(t, 2)
	held, _, _ := bc.get(0, 1, true)
	// Force eviction of block 1 by filling the tiny cache.
	bc.get(0, 2, true)
	bc.get(0, 3, true)
	bc.get(0, 4, true)
	if bc.peek(1) == held {
		t.Skip("block 1 not evicted in this order")
	}
	held.data[0] = 0x77
	bc.markDirty(held, true)
	if bc.peek(1) != held {
		t.Fatal("markDirty did not reinstate the held buffer")
	}
	if !held.dirty || !held.meta {
		t.Fatal("flags not applied")
	}
}

func TestBcachePrefetchReadyAt(t *testing.T) {
	bc, _ := newCache(t, 16)
	data := make([]byte, BlockSize)
	data[5] = 9
	bc.insertPrefetch(42, data, 3*time.Millisecond)
	b, done, err := bc.get(time.Millisecond, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if done != 3*time.Millisecond {
		t.Fatalf("did not wait for in-flight prefetch: %v", done)
	}
	if b.data[5] != 9 {
		t.Fatal("prefetch content lost")
	}
	if bc.stats.ReadAheadHits != 1 {
		t.Fatalf("readahead hit not counted")
	}
}

func TestDirtyDataTracking(t *testing.T) {
	bc, _ := newCache(t, 16)
	b, _, _ := bc.get(0, 9, true)
	bc.markDirty(b, false)
	if bc.dirty.Len() != 1 {
		t.Fatal("dirty data not tracked")
	}
	bc.cleanData(b)
	if bc.dirty.Len() != 0 || b.dirty {
		t.Fatal("clean did not clear state")
	}
	// Promotion data -> meta removes from the data set.
	bc.markDirty(b, false)
	bc.markDirty(b, true)
	if bc.dirty.Len() != 0 {
		t.Fatal("promotion left block in dirty data set")
	}
}

// dropAll gives the pool every block the cache still knows: the resident
// ones and what eviction retired since the last reclaim. Every buffer's data
// is one whole pool block whichever way it came in (insertPrefetch copies, so
// the caller's run buffer never reaches the pool), and every buffer released
// loses its data.
func TestDropAllReturnsOnlyPoolBornBlocks(t *testing.T) {
	dev := blockdev.NewTestbedArray(4096)
	pool := &blockdev.Pool{Poison: true}
	bc := newBcache(dev, 4, pool)
	var all []*buffer
	for lba := int64(10); lba < 13; lba++ {
		b, _, err := bc.get(0, lba, false)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b)
	}
	run := make([]byte, 2*BlockSize)
	run[0], run[BlockSize] = 1, 2
	bc.insertPrefetch(20, run[:BlockSize], 0)
	bc.insertPrefetch(21, run[BlockSize:], 0) // evicts lba 10
	evicted := all[0]
	if bc.peek(10) != nil || bc.stats.Evictions != 1 {
		t.Fatalf("expected lba 10 evicted once, evictions=%d", bc.stats.Evictions)
	}
	if pool.Len() != 0 || len(evicted.data) != BlockSize {
		t.Fatalf("eviction recycled at once (pool %d, data %d bytes); a victim is only retired", pool.Len(), len(evicted.data))
	}
	for i, b := range []*buffer{bc.peek(20), bc.peek(21)} {
		if len(b.data) != BlockSize || cap(b.data) != BlockSize || b.data[0] != byte(i+1) {
			t.Fatalf("prefetched buffer %d: len %d cap %d first byte %d, want a whole block holding the copy", b.lba, len(b.data), cap(b.data), b.data[0])
		}
		all = append(all, b)
	}
	bc.dropAll()
	if pool.Len() != 5 || len(bc.mem.Retired()) != 0 {
		t.Fatalf("after dropAll: pool holds %d blocks (want 4 resident + 1 retired), %d still retired", pool.Len(), len(bc.mem.Retired()))
	}
	for _, b := range all {
		if b.data != nil {
			t.Fatalf("released buffer %d still has data", b.lba)
		}
	}
	if run[0] != 1 || run[BlockSize] != 2 {
		t.Fatal("the caller's run buffer was poisoned: part of it went to the pool")
	}
	// The recycled blocks come back from get, zeroed on request.
	b, _, err := bc.get(0, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 4 {
		t.Fatalf("get did not take its block from the pool (%d left)", pool.Len())
	}
	for _, v := range b.data {
		if v != 0 {
			t.Fatalf("zero get on a recycled (poisoned) block returned %#x", v)
		}
	}
}

// A buffer cache built after another was dropped on the same pool takes that
// cache's index leaves, its chunk of buffers and its blocks: it allocates
// exactly the five leaves, one chunk and six blocks fewer than a cache without
// a pool. (What both allocate besides, the cache, its index's top array and
// its list of chunks, depends on the build: the race detector adds one.)
func TestDroppedCacheLeavesAreReused(t *testing.T) {
	const blocks = 1 << 21 // the largest volume the default geometry tiles
	dev := blockdev.NewTestbedArray(blocks)
	lbas := []int64{blocks - 1, 0, 511, 512, 100000, 70000} // five leaves
	mixed := make([]byte, BlockSize)
	for i := range mixed {
		mixed[i] = byte(i)
	}
	cycle := func(pool *blockdev.Pool) func() {
		return func() {
			bc := newBcache(dev, 64, pool)
			for _, lba := range lbas {
				if _, _, err := bc.set(0, lba, mixed); err != nil {
					t.Fatal(err)
				}
			}
			bc.dropAll()
		}
	}
	pooled := testing.AllocsPerRun(20, cycle(&blockdev.Pool{Poison: true}))
	heap := testing.AllocsPerRun(20, cycle(nil))
	if saved := heap - pooled; saved != 5+1+float64(len(lbas)) {
		t.Fatalf("a cache rebuilt on a dropped cache's pool allocates %v times, one without a pool %v: want 5 leaves, 1 chunk and %d blocks fewer", pooled, heap, len(lbas))
	}
}

// A warm buffer cache allocates nothing in a cycle of sets past its size,
// the evictions they cause and the reclaim after them, with a pool and
// without one: each new buffer is a slot the last reclaim freed, and each
// block one it put (without a pool the blocks are the shared ones). A buffer
// evicted while held keeps its lba and its bytes until that reclaim, and
// only then is freed and its block poisoned.
func TestBcacheWarmCycleAllocatesNothing(t *testing.T) {
	mixed := make([]byte, BlockSize)
	for i := range mixed {
		mixed[i] = byte(i * 7)
	}
	for _, pool := range []*blockdev.Pool{nil, {Poison: true}} {
		t.Run(fmt.Sprint("pool=", pool != nil), func(t *testing.T) {
			src := bytes.Repeat([]byte{0x5a}, BlockSize)
			if pool != nil {
				src = mixed
			}
			bc := newBcache(blockdev.NewTestbedArray(4096), 8, pool)
			from := int64(0)
			cycle := func() {
				for lba := from; lba < from+16; lba++ {
					if _, _, err := bc.set(0, lba, src); err != nil {
						t.Fatal(err)
					}
				}
				bc.reclaim()
				from = (from + 16) % 64
			}
			for i := 0; i < 4; i++ {
				cycle()
			}
			if n := testing.AllocsPerRun(50, cycle); n != 0 {
				t.Fatalf("a warm cycle of 16 sets and a reclaim allocated %v objects, want 0", n)
			}
			held, _, err := bc.set(0, 100, src)
			if err != nil {
				t.Fatal(err)
			}
			for lba := int64(200); lba < 216; lba++ { // evicts lba 100
				bc.set(0, lba, src)
			}
			if bc.peek(100) != nil || held.lba != 100 || !bytes.Equal(held.data, src) {
				t.Fatalf("a held buffer evicted before reclaim: resident %v, lba %d, bytes kept %v", bc.peek(100) != nil, held.lba, bytes.Equal(held.data, src))
			}
			bc.reclaim()
			if held.lba != 0 || held.data != nil {
				t.Fatal("reclaim did not free the evicted buffer")
			}
		})
	}
}

// reclaim puts each retired block exactly once and never a resident one.
func TestReclaim(t *testing.T) {
	fill := func(bc *bcache, from, n int64) {
		t.Helper()
		for lba := from; lba < from+n; lba++ {
			if _, _, err := bc.get(0, lba, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("N evictions put N blocks", func(t *testing.T) {
		pool := &blockdev.Pool{Poison: true}
		bc := newBcache(blockdev.NewTestbedArray(4096), 3, pool)
		fill(bc, 100, 10)
		if bc.stats.Evictions != 7 || len(bc.mem.Retired()) != 7 || pool.Len() != 0 {
			t.Fatalf("%d evictions, %d retired, pool %d; want 7, 7, 0", bc.stats.Evictions, len(bc.mem.Retired()), pool.Len())
		}
		bc.reclaim()
		if pool.Len() != 7 || len(bc.mem.Retired()) != 0 {
			t.Fatalf("after reclaim: pool %d, %d retired; want 7, 0", pool.Len(), len(bc.mem.Retired()))
		}
		bc.reclaim()
		if pool.Len() != 7 {
			t.Fatalf("a second reclaim moved the pool to %d", pool.Len())
		}
	})
	t.Run("a reinstated buffer keeps its block", func(t *testing.T) {
		pool := &blockdev.Pool{Poison: true}
		bc := newBcache(blockdev.NewTestbedArray(4096), 2, pool)
		held, _, _ := bc.get(0, 1, true)
		fill(bc, 2, 2) // evicts lba 1
		if bc.peek(1) != nil {
			t.Fatal("setup: lba 1 not evicted")
		}
		held.data[0] = 0x77
		bc.markDirty(held, true) // resident again, and on the retired list
		bc.reclaim()
		if held.data == nil || held.data[0] != 0x77 {
			t.Fatal("reclaim took the block of a buffer markDirty had reinstated")
		}
		if pool.Len() != 0 {
			t.Fatalf("pool holds %d blocks, want 0: the only retired buffer is resident", pool.Len())
		}
	})
	t.Run("a superseded copy is retired", func(t *testing.T) {
		pool := &blockdev.Pool{Poison: true}
		bc := newBcache(blockdev.NewTestbedArray(4096), 2, pool)
		held, _, _ := bc.get(0, 1, true)
		fill(bc, 2, 2)                     // evicts lba 1
		reread, _, _ := bc.get(0, 1, true) // a second copy; evicts lba 2
		bc.markDirty(held, true)           // supersedes it
		bc.reclaim()
		if reread.data != nil || held.data == nil || bc.peek(1) != held {
			t.Fatal("the superseded copy kept its block, or the reinstated one lost it")
		}
		if pool.Len() != 2 { // lba 2 and the superseded copy
			t.Fatalf("pool holds %d blocks, want 2", pool.Len())
		}
	})
	t.Run("evicted twice, put once", func(t *testing.T) {
		pool := &blockdev.Pool{Poison: true}
		bc := newBcache(blockdev.NewTestbedArray(4096), 2, pool)
		held, _, _ := bc.get(0, 1, true)
		fill(bc, 2, 2) // evicts lba 1
		bc.markDirty(held, false)
		bc.cleanData(held)
		fill(bc, 4, 2) // evicts lba 1 again
		twice := 0
		for _, b := range bc.mem.Retired() {
			if b == held {
				twice++
			}
		}
		if twice != 2 {
			t.Fatalf("setup: held buffer retired %d times, want 2", twice)
		}
		retired := len(bc.mem.Retired())
		bc.reclaim()
		if pool.Len() != retired-1 || held.data != nil {
			t.Fatalf("pool holds %d blocks for %d retired entries with one duplicate", pool.Len(), retired)
		}
	})
	t.Run("no pool, headers retired and reused, no block put anywhere", func(t *testing.T) {
		bc := newBcache(blockdev.NewTestbedArray(4096), 2, nil)
		fill(bc, 1, 6)
		retired := bc.mem.Retired()
		if bc.stats.Evictions != 4 || len(retired) != 4 {
			t.Fatalf("%d evictions, %d retired; want 4, 4", bc.stats.Evictions, len(retired))
		}
		freed := map[*buffer][]byte{}
		for _, b := range retired {
			if b.data == nil {
				t.Fatalf("retired buffer %d lost its block before reclaim", b.lba)
			}
			freed[b] = b.data
		}
		bc.reclaim()
		for b, data := range freed {
			if b.data != nil || len(data) != BlockSize {
				t.Fatal("reclaim left a freed buffer its block, or cut the block")
			}
		}
		fill(bc, 7, 4) // four new buffers, in the four freed slots
		for lba := int64(9); lba <= 10; lba++ {
			if _, ok := freed[bc.peek(lba)]; !ok {
				t.Fatalf("the buffer for lba %d is not one of the freed slots", lba)
			}
		}
		if len(bc.mem.Retired()) != 4 {
			t.Fatalf("%d retired after the refill, want 4", len(bc.mem.Retired()))
		}
		bc.dropAll()
	})
}

// Read-ahead of one byte repeated caches shared blocks; get still hands out
// data the caller may write, so neither a meta-data write nor a zero get on
// such a hit reaches the other blocks of that byte.
func TestBcacheGetMakesSharedDataPrivate(t *testing.T) {
	pool := &blockdev.Pool{Poison: true}
	bc := newBcache(blockdev.NewTestbedArray(4096), 16, pool)
	fill := bytes.Repeat([]byte{0x41}, BlockSize)
	for lba := int64(1); lba <= 3; lba++ {
		bc.insertPrefetch(lba, fill, 0)
	}
	if pool.Len() != 0 || bc.stats.Misses != 0 {
		t.Fatalf("setup: pool %d, misses %d", pool.Len(), bc.stats.Misses)
	}
	v, _, err := bc.view(0, 1)
	if err != nil || !bytes.Equal(v.data, fill) {
		t.Fatalf("view: err %v", err)
	}
	w, _, err := bc.get(0, 1, false)
	if err != nil || w != v || !bytes.Equal(w.data, fill) {
		t.Fatalf("get after view: err %v, same buffer %v", err, w == v)
	}
	w.data[0] = 0x99 // what a meta-data update does to a block get returned
	z, _, err := bc.get(0, 2, true)
	if err != nil || !bytes.Equal(z.data, make([]byte, BlockSize)) {
		t.Fatalf("zero get on a shared hit: err %v", err)
	}
	if o, _, _ := bc.view(0, 3); !bytes.Equal(o.data, fill) {
		t.Fatal("a write through get reached another cached block of the same byte")
	}
	if d := bc.peek(1).data; d[0] != 0x99 || !bytes.Equal(d[1:], fill[1:]) {
		t.Fatal("the written block lost its bytes")
	}
	sharedIntact(t)
}

// set is get with zero set followed by a copy in everything the simulation
// sees: hits, misses, read-ahead hits and their waits, evictions, LRU order
// and bytes. Twin caches on twin devices take one random script, one through
// set and view, the other through get and a copy.
func TestBcacheSetMatchesZeroGet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := newBcache(blockdev.NewTestbedArray(4096), 6, &blockdev.Pool{Poison: true})
	b := newBcache(blockdev.NewTestbedArray(4096), 6, &blockdev.Pool{Poison: true})
	content := func() []byte {
		if rng.Intn(2) == 0 {
			return bytes.Repeat([]byte{byte(rng.Intn(3))}, BlockSize)
		}
		src := make([]byte, BlockSize)
		rng.Read(src)
		return src
	}
	order := func(c *bcache) string {
		var s []string
		for x := c.lru.older; x != &c.lru; x = x.older {
			s = append(s, fmt.Sprint(x.lba, x.dirty, x.data[:4], x.data[BlockSize-1]))
		}
		return fmt.Sprint(s)
	}
	for step := 0; step < 20000; step++ {
		lba := int64(rng.Intn(16))
		at := time.Duration(step) * time.Microsecond
		var da, db time.Duration
		var op string
		switch rng.Intn(6) {
		case 0, 1:
			op = fmt.Sprint("write ", lba)
			src := content()
			x, d1, err := a.set(at, lba, src)
			if err != nil {
				t.Fatal(err)
			}
			y, d2, err := b.get(at, lba, true)
			if err != nil {
				t.Fatal(err)
			}
			copy(y.data, src)
			da, db = d1, d2
			if rng.Intn(2) == 0 {
				a.markDirty(x, false)
				b.markDirty(y, false)
			}
		case 2:
			op = fmt.Sprint("read ", lba)
			x, d1, err := a.view(at, lba)
			if err != nil {
				t.Fatal(err)
			}
			y, d2, err := b.get(at, lba, false)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(x.data, y.data) {
				t.Fatalf("step %d %s: bytes differ", step, op)
			}
			da, db = d1, d2
		case 3:
			op = fmt.Sprint("prefetch ", lba)
			src, ready := content(), at+time.Duration(rng.Intn(50))*time.Microsecond
			a.insertPrefetch(lba, src, ready)
			b.insertPrefetch(lba, src, ready)
		case 4:
			op = fmt.Sprint("clean ", lba)
			if x, y := a.peek(lba), b.peek(lba); x != nil && y != nil && x.dirty {
				a.cleanData(x)
				b.cleanData(y)
			}
		case 5:
			op = "reclaim"
			a.reclaim()
			b.reclaim()
		}
		if da != db || a.stats != b.stats {
			t.Fatalf("step %d %s: set/view took %v with %+v, get took %v with %+v", step, op, da, a.stats, db, b.stats)
		}
		if oa, ob := order(a), order(b); oa != ob {
			t.Fatalf("step %d %s: LRU (front first)\n set %s\n get %s", step, op, oa, ob)
		}
	}
	if a.stats.Hits == 0 || a.stats.Misses == 0 || a.stats.ReadAheadHits == 0 || a.stats.Evictions == 0 {
		t.Fatalf("the script missed a counter: %+v", a.stats)
	}
	sharedIntact(t)
}
