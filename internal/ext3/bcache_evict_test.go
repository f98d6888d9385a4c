package ext3

import (
	"fmt"
	"math/rand"
	"testing"

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
	for e := p.bc.lru.Front(); e != nil; e = e.Next() {
		b := e.Value.(*buffer)
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
	if len(p.bc.blocks) != len(p.ref.lru) {
		p.t.Fatalf("after %s: %d blocks mapped, %d on the LRU list", op, len(p.bc.blocks), len(p.ref.lru))
	}
	// The invariant the cursor rests on.
	for e := p.bc.blocked; e != nil; e = e.Next() {
		if b := e.Value.(*buffer); !b.dirty && b.pins == 0 {
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
				for _, b := range bc.blocks {
					if b.dirty && b.meta {
						b.dirty = false
						b.pins++
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

// BenchmarkBcacheEvictDirtyTail inserts clean blocks into a full cache whose
// LRU tail is N dirty buffers: the TPC-H shape, where a rescan made every
// insert cost O(N). ns/op must not grow with N.
func BenchmarkBcacheEvictDirtyTail(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		b.Run(fmt.Sprintf("dirty=%d", n), func(b *testing.B) {
			const clean = 64
			bc := newBcache(blockdev.NewTestbedArray(1<<22), n+clean)
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
