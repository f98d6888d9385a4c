package ext3

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockdev"
)

// refCache is the eviction rule written the obvious way: on overflow, walk
// the LRU list from the back and drop the first buffer that is clean and
// unpinned. bcache must pick the same victims without the walk.
type refCache struct {
	max       int
	lru       []*refBuf // front (most recent) first
	evictions int64
	victims   []int64
}

type refBuf struct {
	lba         int64
	dirty, meta bool
	pins        int
}

func (r *refCache) index(b *refBuf) int {
	for i, x := range r.lru {
		if x == b {
			return i
		}
	}
	return -1
}

func (r *refCache) resident(lba int64) *refBuf {
	for _, x := range r.lru {
		if x.lba == lba {
			return x
		}
	}
	return nil
}

func (r *refCache) remove(i int) { r.lru = append(r.lru[:i], r.lru[i+1:]...) }

func (r *refCache) pushFront(b *refBuf) { r.lru = append([]*refBuf{b}, r.lru...) }

func (r *refCache) get(lba int64) *refBuf {
	if b := r.resident(lba); b != nil {
		r.remove(r.index(b))
		r.pushFront(b)
		return b
	}
	b := &refBuf{lba: lba}
	r.pushFront(b)
	for len(r.lru) > r.max {
		victim := -1
		for i := len(r.lru) - 1; i >= 0; i-- {
			if x := r.lru[i]; !x.dirty && x.pins == 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			break
		}
		r.victims = append(r.victims, r.lru[victim].lba)
		r.evictions++
		r.remove(victim)
	}
	return b
}

func (r *refCache) markDirty(b *refBuf, meta bool) {
	if cur := r.resident(b.lba); cur != b {
		if cur != nil {
			r.remove(r.index(cur))
		}
		r.pushFront(b)
	}
	b.dirty, b.meta = true, meta
}

func (r *refCache) unpin(lba int64) {
	if b := r.resident(lba); b != nil && b.pins > 0 {
		b.pins--
	}
}

// cachePair drives a bcache and the reference with the same operations and
// compares them after each one.
type cachePair struct {
	t       *testing.T
	bc      *bcache
	ref     *refCache
	held    map[int64]*buffer // last buffer handed out per lba, maybe evicted since
	refHeld map[int64]*refBuf
	victims []int64
}

func (p *cachePair) order() (lbas []int64, state []string) {
	for b := p.bc.lru.older; b != &p.bc.lru; b = b.older {
		lbas = append(lbas, b.lba)
		state = append(state, fmt.Sprint(b.lba, b.dirty, b.meta, b.pins))
	}
	return lbas, state
}

func (p *cachePair) get(lba int64) {
	before, _ := p.order()
	b, _, err := p.bc.get(0, lba, true)
	if err != nil {
		p.t.Fatal(err)
	}
	// Victims leave in LRU order, so those of one insert are the buffers
	// that vanished, read from the back of the list as it was.
	for i := len(before) - 1; i >= 0; i-- {
		if p.bc.peek(before[i]) == nil {
			p.victims = append(p.victims, before[i])
		}
	}
	if p.bc.peek(lba) == nil { // the new buffer itself was the victim
		p.victims = append(p.victims, lba)
	}
	p.held[lba], p.refHeld[lba] = b, p.ref.get(lba)
}

func (p *cachePair) check(op string) {
	p.t.Helper()
	_, got := p.order()
	var want []string
	for _, b := range p.ref.lru {
		want = append(want, fmt.Sprint(b.lba, b.dirty, b.meta, b.pins))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		p.t.Fatalf("after %s: LRU (lba dirty meta pins, front first)\n got %v\nwant %v", op, got, want)
	}
	if fmt.Sprint(p.victims) != fmt.Sprint(p.ref.victims) {
		p.t.Fatalf("after %s: victims of this step\n got %v\nwant %v", op, p.victims, p.ref.victims)
	}
	p.victims, p.ref.victims = nil, nil
	if p.bc.stats.Evictions != p.ref.evictions {
		p.t.Fatalf("after %s: Evictions = %d, want %d", op, p.bc.stats.Evictions, p.ref.evictions)
	}
	if p.bc.blocks.Len() != len(p.ref.lru) {
		p.t.Fatalf("after %s: %d blocks mapped, %d on the LRU list", op, p.bc.blocks.Len(), len(p.ref.lru))
	}
	// The invariant the cursor rests on.
	for b := p.bc.blocked; b != nil; b = p.bc.behind(b) {
		if !b.dirty && b.pins == 0 {
			p.t.Fatalf("after %s: evictable buffer %d at or behind the cursor", op, b.lba)
		}
	}
}

// TestBcacheEvictionMatchesLinearScan replays random operation sequences
// against a small cache and the reference scan: same LRU order and flags
// after every step, same victim sequence, same Evictions count.
func TestBcacheEvictionMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		max := 4 + rng.Intn(12)
		span := int64(3 * max) // lbas in play: misses and hits both common
		bc, _ := newCache(t, max)
		p := &cachePair{t: t, bc: bc, ref: &refCache{max: max},
			held: map[int64]*buffer{}, refHeld: map[int64]*refBuf{}}
		for step := 0; step < 6000; step++ {
			lba := 1 + rng.Int63n(span)
			op := ""
			switch k := rng.Intn(100); {
			case k < 45:
				op = "get"
				p.get(lba)
			case k < 70:
				// A held buffer, resident or evicted since: markDirty
				// reinstates it either way.
				b := p.held[lba]
				if b == nil {
					continue
				}
				meta := rng.Intn(3) == 0
				op = fmt.Sprint("markDirty meta=", meta)
				bc.markDirty(b, meta)
				p.ref.markDirty(p.refHeld[lba], meta)
			case k < 85:
				// flushData / freeBlock: a resident non-journaled buffer.
				b := bc.peek(lba)
				if b == nil || b.meta {
					continue
				}
				op = "cleanData"
				bc.cleanData(b)
				p.ref.resident(lba).dirty = false
			case k < 91:
				// journal.commit: every dirty meta buffer turns clean but
				// pinned.
				op = "commit"
				for lba := bc.blocks.Next(0); lba >= 0; lba = bc.blocks.Next(lba + 1) {
					if b := bc.peek(lba); b.dirty && b.meta {
						bc.pinCommitted(b)
					}
				}
				for _, b := range p.ref.lru {
					if b.dirty && b.meta {
						b.dirty = false
						b.pins++
					}
				}
			case k < 99:
				// checkpoint: one pin off every home of one transaction;
				// here, off a random half of the lbas.
				op = "checkpoint"
				for h := int64(1); h <= span; h++ {
					if rng.Intn(2) == 0 {
						bc.unpin(h)
						p.ref.unpin(h)
					}
				}
			default:
				op = "dropAll"
				bc.dropAll()
				p.ref.lru = nil
				p.held, p.refHeld = map[int64]*buffer{}, map[int64]*refBuf{}
			}
			p.check(fmt.Sprintf("seed %d step %d %s(%d)", seed, step, op, lba))
		}
		if p.ref.evictions == 0 {
			t.Fatalf("seed %d: nothing was evicted", seed)
		}
	}
}

// checkCursor asserts what the eviction cursor rests on, on a cache in any
// state: nothing at or behind it is evictable.
func checkCursor(t *testing.T, bc *bcache, when string) {
	t.Helper()
	for b := bc.blocked; b != nil; b = bc.behind(b) {
		if !b.dirty && b.pins == 0 {
			t.Fatalf("%s: evictable buffer %d at or behind the cursor", when, b.lba)
		}
	}
}

// scanVictim is the reference rule on a live cache: walk from the LRU end
// to the first buffer that is clean and unpinned.
func scanVictim(bc *bcache) *buffer {
	for b := bc.lru.newer; b != &bc.lru; b = b.newer {
		if !b.dirty && b.pins == 0 {
			return b
		}
	}
	return nil
}

// smallCacheFS mounts a filesystem whose cache and journal are small enough
// that eviction, commit and journal-wrap checkpoints all happen within a few
// hundred operations, on a pool that poisons every block given back: one
// recycled while an operation still holds it breaks that operation.
func smallCacheFS(t *testing.T, cacheBlocks int) *FS {
	t.Helper()
	dev := blockdev.NewTestbedArray(32768)
	opts := Options{CacheBlocks: cacheBlocks, JournalBlocks: 64, Pool: &blockdev.Pool{Poison: true}}
	dev.Store().SetPool(opts.Pool)
	if _, err := Mkfs(0, dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, _, err := Mount(0, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestCheckpointedBuffersAreNextVictims goes through journal.commit and
// journal.checkpointAll themselves: meta-data buffers age to the LRU end
// while dirty, the cursor walks past them, and once they are checkpointed
// home they, being the oldest, must be the next buffers evicted.
func TestCheckpointedBuffersAreNextVictims(t *testing.T) {
	fs := smallCacheFS(t, 64)
	bc := fs.bc
	f, at, err := fs.Create(0, "/data", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, at, err = f.WriteAt(at, 0, make([]byte, 200*BlockSize)); err != nil {
		t.Fatal(err)
	}
	if at, err = fs.Sync(at); err != nil {
		t.Fatal(err)
	}
	if at, err = fs.journal.checkpointAll(at); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if at, err = fs.Mkdir(at, fmt.Sprintf("/d%d", i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// Clean inserts push the dirty meta-data to the LRU end and, the cache
	// being full, walk the cursor over it.
	buf := make([]byte, BlockSize)
	for blk := int64(0); blk < 150; blk++ {
		if _, at, err = f.ReadAt(at, blk*BlockSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	if bc.blocked == nil {
		t.Fatal("setup: the cursor never moved off the LRU end")
	}
	var stuck []int64 // dirty meta-data at or behind the cursor, oldest first
	for b := bc.lru.newer; b != &bc.lru && len(stuck) < 8; b = b.newer {
		if b.dirty && b.meta && b.stamp <= bc.blocked.stamp {
			stuck = append(stuck, b.lba)
		}
	}
	if len(stuck) < 4 {
		t.Fatalf("setup: only %d dirty meta-data buffers behind the cursor", len(stuck))
	}
	checkCursor(t, bc, "before commit")

	if at, err = fs.Sync(at); err != nil { // commit: clean but pinned
		t.Fatal(err)
	}
	checkCursor(t, bc, "after commit")
	for _, lba := range stuck {
		if b := bc.peek(lba); b == nil || b.pins == 0 {
			t.Fatalf("committed buffer %d not pinned in the cache", lba)
		}
	}
	if _, err = fs.journal.checkpointAll(at); err != nil {
		t.Fatal(err)
	}
	checkCursor(t, bc, "after checkpoint")

	// Each insert of a block the filesystem has never cached must now evict
	// the oldest checkpointed buffer, which the reference scan names.
	evictions := bc.stats.Evictions
	for i := range stuck {
		want := scanVictim(bc)
		if want == nil || want.lba != stuck[i] {
			t.Fatalf("insert %d: reference victim is %v, want checkpointed buffer %d", i, want, stuck[i])
		}
		if _, _, err := bc.get(0, 30000+int64(i), true); err != nil {
			t.Fatal(err)
		}
		if bc.peek(stuck[i]) != nil {
			t.Fatalf("insert %d: checkpointed buffer %d survived; a newer buffer was evicted instead", i, stuck[i])
		}
		checkCursor(t, bc, fmt.Sprint("after insert ", i))
	}
	if got := bc.stats.Evictions - evictions; got != int64(len(stuck)) {
		t.Fatalf("%d evictions for %d inserts", got, len(stuck))
	}
	if bc.blocks.Len() > bc.max {
		t.Fatalf("%d blocks cached, max %d", bc.blocks.Len(), bc.max)
	}
}

// TestCursorInvariantUnderFSOperations drives the cache only through FS
// operations (create, write, read, mkdir, unlink, Sync, and the checkpoints
// a 64-block journal forces) and checks the cursor after every one. Before
// each cache-missing read it also names the reference victim and checks
// that this is the buffer that left.
func TestCursorInvariantUnderFSOperations(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := smallCacheFS(t, 24+rng.Intn(40))
		bc := fs.bc
		const fileBlocks = 96
		files := []string{"/f0", "/f1", "/f2"}
		at := time.Duration(0)
		for _, name := range files {
			f, d, err := fs.Create(at, name, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, at, err = f.WriteAt(d, 0, make([]byte, fileBlocks*BlockSize)); err != nil {
				t.Fatal(err)
			}
		}
		dirs := 0
		for step := 0; step < 1500; step++ {
			var err error
			when := fmt.Sprintf("seed %d step %d", seed, step)
			switch k := rng.Intn(100); {
			case k < 40: // read: clean inserts, evictions
				f, d, err := fs.Open(at, files[rng.Intn(len(files))])
				if err != nil {
					t.Fatalf("%s open: %v", when, err)
				}
				buf := make([]byte, (1+rng.Intn(8))*BlockSize)
				_, at, err = f.ReadAt(d, rng.Int63n(fileBlocks-8)*BlockSize, buf)
				if err != nil {
					t.Fatalf("%s read: %v", when, err)
				}
			case k < 60: // write: dirty data
				f, d, err := fs.Open(at, files[rng.Intn(len(files))])
				if err != nil {
					t.Fatalf("%s open: %v", when, err)
				}
				data := make([]byte, (1+rng.Intn(4))*BlockSize)
				data[0] = byte(step) | 1
				_, at, err = f.WriteAt(d, rng.Int63n(fileBlocks-4)*BlockSize, data)
				if err != nil {
					t.Fatalf("%s write: %v", when, err)
				}
			case k < 80: // mkdir: dirty meta-data
				at, err = fs.Mkdir(at, fmt.Sprintf("/d%d", dirs), 0o755)
				dirs++
			case k < 88:
				if dirs == 0 {
					continue
				}
				dirs--
				at, err = fs.Rmdir(at, fmt.Sprintf("/d%d", dirs))
			case k < 96: // commit; wraps the journal every few commits
				at, err = fs.Sync(at)
			default: // a cold insert, victim named beforehand
				if bc.blocks.Len() < bc.max {
					continue
				}
				want := scanVictim(bc)
				if _, _, err = bc.get(at, 31000+int64(step), true); err != nil {
					break
				}
				if want != nil && bc.peek(want.lba) != nil {
					t.Fatalf("%s: reference victim %d survived the insert", when, want.lba)
				}
				// An insert shrinks the cache to its bound unless everything
				// left is dirty or pinned.
				if v := scanVictim(bc); bc.blocks.Len() > bc.max && v != nil {
					t.Fatalf("%s: %d blocks cached (max %d) after an insert while buffer %d is evictable", when, bc.blocks.Len(), bc.max, v.lba)
				}
			}
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			checkCursor(t, bc, when)
		}
		if _, checkpoints := fs.journalStats(); checkpoints == 0 || bc.stats.Evictions == 0 {
			t.Fatalf("seed %d: %d checkpoints, %d evictions; the run exercised nothing", seed, checkpoints, bc.stats.Evictions)
		}
	}
}

// BenchmarkBcacheEvictDirtyTail inserts clean blocks into a full cache whose
// LRU tail is N dirty buffers: the TPC-H shape, where a rescan made every
// insert cost O(N). ns/op must not grow with N.
func BenchmarkBcacheEvictDirtyTail(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		b.Run(fmt.Sprintf("dirty=%d", n), func(b *testing.B) {
			const clean = 64
			bc := newBcache(blockdev.NewTestbedArray(1<<22), n+clean, nil)
			data := make([]byte, BlockSize) // shared: nothing reads it back
			for lba := int64(0); lba < int64(n); lba++ {
				buf, _, err := bc.get(0, lba, true)
				if err != nil {
					b.Fatal(err)
				}
				bc.markDirty(buf, false)
			}
			// One insert past full: the cursor's single walk over the dirty
			// tail happens here, not in the timed loop.
			next := int64(n)
			for i := 0; i <= clean; i++ {
				bc.insertPrefetch(next, data, 0)
				next++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.insertPrefetch(next, data, 0)
				next++
			}
			b.StopTimer()
			if got := bc.stats.Evictions; got != int64(b.N)+1 {
				b.Fatalf("evictions = %d, want one per insert past full (%d)", got, b.N+1)
			}
		})
	}
}
