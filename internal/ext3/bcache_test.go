package ext3

import (
	"testing"
	"time"

	"repro/internal/blockdev"
)

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
	if len(bc.blocks) > 7 {
		t.Fatalf("eviction inactive: %d cached", len(bc.blocks))
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
	if len(bc.dirtyData) != 1 {
		t.Fatal("dirty data not tracked")
	}
	bc.cleanData(b)
	if len(bc.dirtyData) != 0 || b.dirty {
		t.Fatal("clean did not clear state")
	}
	// Promotion data -> meta removes from the data set.
	bc.markDirty(b, false)
	bc.markDirty(b, true)
	if len(bc.dirtyData) != 0 {
		t.Fatal("promotion left block in dirty data set")
	}
}

// dropAll gives the pool back exactly the resident blocks get took from it:
// not the capped sub-slices insertPrefetch adopted (pooling one would keep
// its whole run buffer alive), and not a buffer eviction dropped earlier,
// which a caller may still hold. Every buffer it releases loses its data.
func TestDropAllReturnsOnlyPoolBornBlocks(t *testing.T) {
	dev := blockdev.NewTestbedArray(4096)
	pool := &blockdev.Pool{Poison: true}
	bc := newBcache(dev, 4, pool)
	var born []*buffer
	for lba := int64(10); lba < 13; lba++ {
		b, _, err := bc.get(0, lba, false)
		if err != nil {
			t.Fatal(err)
		}
		born = append(born, b)
	}
	run := make([]byte, 2*BlockSize)
	run[0], run[BlockSize] = 1, 2
	bc.insertPrefetch(20, run[:BlockSize:BlockSize], 0)
	bc.insertPrefetch(21, run[BlockSize:2*BlockSize:2*BlockSize], 0) // evicts lba 10
	evicted := born[0]
	if bc.peek(10) != nil || bc.stats.Evictions != 1 {
		t.Fatalf("expected lba 10 evicted once, evictions=%d", bc.stats.Evictions)
	}
	adopted := []*buffer{bc.peek(20), bc.peek(21)}
	if pool.Len() != 0 {
		t.Fatalf("eviction put %d blocks in the pool; only dropAll may", pool.Len())
	}
	bc.dropAll()
	if pool.Len() != 2 {
		t.Fatalf("pool holds %d blocks after dropAll, want the 2 resident pool-born ones", pool.Len())
	}
	for _, b := range append(born[1:], adopted...) {
		if b.data != nil {
			t.Fatalf("released buffer %d still has data", b.lba)
		}
	}
	if evicted.data == nil || len(evicted.data) != BlockSize {
		t.Fatal("dropAll touched a buffer that eviction had already dropped")
	}
	if run[0] != 1 || run[BlockSize] != 2 {
		t.Fatal("an adopted sub-slice was poisoned: it went to the pool")
	}
	// The recycled blocks come back from get, zeroed on request.
	b, _, err := bc.get(0, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 1 {
		t.Fatalf("get did not take its block from the pool (%d left)", pool.Len())
	}
	for _, v := range b.data {
		if v != 0 {
			t.Fatalf("zero get on a recycled (poisoned) block returned %#x", v)
		}
	}
}
