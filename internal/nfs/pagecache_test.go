package nfs

import (
	"bytes"
	"container/list"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/vfs"
)

// refPageCache is the page cache as it was before it grew a per-file index:
// container/list for the LRU order, a walk from the back of the list for
// eviction, and a scan of the whole page map in dropFile. pageCache must
// keep the same pages in the same order and pick the same victims. It has
// the one rule added since: an insert never evicts the page it inserts.
type refPageCache struct {
	max     int
	pages   map[pageKey]*refPage
	lru     *list.List
	victims []pageKey
}

type refPage struct {
	key     pageKey
	dirty   bool
	readyAt time.Duration
	elem    *list.Element
}

func newRefPageCache(max int) *refPageCache {
	return &refPageCache{max: max, pages: make(map[pageKey]*refPage), lru: list.New()}
}

func (pc *refPageCache) insert(k pageKey, readyAt time.Duration) *refPage {
	if p, ok := pc.pages[k]; ok {
		if readyAt > p.readyAt {
			p.readyAt = readyAt
		}
		pc.lru.MoveToFront(p.elem)
		return p
	}
	p := &refPage{key: k, readyAt: readyAt}
	p.elem = pc.lru.PushFront(p)
	pc.pages[k] = p
	pc.evict(p)
	return p
}

func (pc *refPageCache) getOrCreate(k pageKey) *refPage {
	if p, ok := pc.pages[k]; ok {
		pc.lru.MoveToFront(p.elem)
		return p
	}
	return pc.insert(k, 0)
}

func (pc *refPageCache) evict(keep *refPage) {
	for len(pc.pages) > pc.max {
		evicted := false
		for e := pc.lru.Back(); e != nil; e = e.Prev() {
			p := e.Value.(*refPage)
			if p.dirty || p == keep {
				continue
			}
			pc.lru.Remove(e)
			delete(pc.pages, p.key)
			pc.victims = append(pc.victims, p.key)
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
}

func (pc *refPageCache) dropFile(ino uint64) {
	for k, p := range pc.pages {
		if k.ino == ino {
			pc.lru.Remove(p.elem)
			delete(pc.pages, k)
		}
	}
}

// order lists the cache front (most recent) first, walking the ring in both
// directions and checking the three places a page lives against each other.
func (pc *pageCache) order(t *testing.T) (keys []pageKey, state []string) {
	t.Helper()
	for p := pc.lru.older; p != &pc.lru; p = p.older {
		keys = append(keys, p.key)
		state = append(state, fmt.Sprint(p.key, p.dirty, p.readyAt))
		if pc.pages[p.key.id()] != p {
			t.Fatalf("page %v is on the LRU ring but not in the map", p.key)
		}
		if p.older.newer != p || p.newer.older != p {
			t.Fatalf("LRU ring broken at %v", p.key)
		}
	}
	if len(keys) != len(pc.pages) {
		t.Fatalf("%d pages on the LRU ring, %d in the map", len(keys), len(pc.pages))
	}
	chained := 0
	for ino, head := range pc.byFile {
		if head == nil || head.fprev != nil {
			t.Fatalf("file %d: bad chain head", ino)
		}
		for p := head; p != nil; p = p.fnext {
			chained++
			if p.key.ino != ino || pc.pages[p.key.id()] != p {
				t.Fatalf("file %d: chain holds %v, which is not its cached page", ino, p.key)
			}
			if p.fnext != nil && p.fnext.fprev != p {
				t.Fatalf("file %d: chain broken at %v", ino, p.key)
			}
		}
	}
	if chained != len(pc.pages) {
		t.Fatalf("%d pages on file chains, %d in the map", chained, len(pc.pages))
	}
	return keys, state
}

// TestPageCacheMatchesReference drives pageCache and the reference with the
// same random operations and compares resident pages, LRU order and the
// victims of every eviction after each one.
func TestPageCacheMatchesReference(t *testing.T) {
	for _, max := range []int{1, 8, 64} {
		t.Run(fmt.Sprint("max", max), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(max)))
			pc, ref := newPageCache(max, nil), newRefPageCache(max)
			var victims []pageKey
			randKey := func() pageKey {
				return pageKey{ino: uint64(1 + rng.Intn(6)), idx: int64(rng.Intn(4 * max))}
			}
			// mutate runs one cache-changing operation on pc and records
			// its victims: the pages that vanished, oldest first.
			mutate := func(k pageKey, op func()) {
				before, _ := pc.order(t)
				op()
				for i := len(before) - 1; i >= 0; i-- {
					if pc.peek(before[i]) == nil {
						victims = append(victims, before[i])
					}
				}
				if pc.peek(k) == nil { // the new page itself was the victim
					victims = append(victims, k)
				}
			}
			for step := 0; step < 20000; step++ {
				var op string
				switch k := randKey(); rng.Intn(11) {
				case 0, 1, 2:
					op = fmt.Sprint("insert ", k)
					at := time.Duration(rng.Intn(1000))
					var data []byte
					if rng.Intn(2) == 0 {
						data = make([]byte, pageSize)
					}
					mutate(k, func() { pc.insert(k, data, at) })
					ref.insert(k, at)
				case 3, 4, 5:
					op = fmt.Sprint("getOrCreate ", k)
					mutate(k, func() { pc.getOrCreate(k) })
					ref.getOrCreate(k)
				case 6, 7:
					op = fmt.Sprint("dirty ", k)
					if p := pc.peek(k); p != nil {
						p.dirty = true
					}
					if p := ref.pages[k]; p != nil {
						p.dirty = true
					}
				case 8:
					op = fmt.Sprint("clean ", k)
					if p := pc.peek(k); p != nil {
						p.dirty = false
					}
					if p := ref.pages[k]; p != nil {
						p.dirty = false
					}
				case 10:
					// The next inserts find no victim but themselves.
					op = "all others dirty"
					for _, p := range pc.pages {
						p.dirty = true
					}
					for _, p := range ref.pages {
						p.dirty = true
					}
				case 9:
					op = fmt.Sprint("dropFile ", k.ino)
					pc.dropFile(k.ino)
					ref.dropFile(k.ino)
					if pc.byFile[k.ino] != nil {
						t.Fatalf("step %d %s: the file still has a chain", step, op)
					}
				}
				_, got := pc.order(t)
				var want []string
				for e := ref.lru.Front(); e != nil; e = e.Next() {
					p := e.Value.(*refPage)
					want = append(want, fmt.Sprint(p.key, p.dirty, p.readyAt))
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("step %d %s: LRU (key dirty readyAt, front first)\n got %v\nwant %v", step, op, got, want)
				}
				if fmt.Sprint(victims) != fmt.Sprint(ref.victims) {
					t.Fatalf("step %d %s: victims\n got %v\nwant %v", step, op, victims, ref.victims)
				}
				victims, ref.victims = victims[:0], ref.victims[:0]
			}
		})
	}
}

// TestDropFileTouchesOnlyThatFile: dropping one file among 10 000 cached
// pages of other files reaches its pages through its own chain. The page
// map is swapped for an empty one and every other page is relabelled as the
// dropped file's, so a drop that found pages by scanning the map would find
// none, and one that looked at any other page, through the map, the LRU
// ring or another chain, would take it for the file's and drop it too.
func TestDropFileTouchesOnlyThatFile(t *testing.T) {
	const target, others = 7, 10000
	pc := newPageCache(1<<20, nil)
	for i := 0; i < others; i++ {
		pc.getOrCreate(pageKey{ino: uint64(100 + i%50), idx: int64(i)})
		if i%2500 == 0 {
			pc.getOrCreate(pageKey{ino: target, idx: int64(i)})
		}
	}
	pc.order(t)
	var kept []*page
	for p := pc.lru.older; p != &pc.lru; p = p.older {
		if p.key.ino != target {
			p.key.ino = target
			kept = append(kept, p)
		}
	}
	pc.pages = map[uint64]*page{}

	pc.dropFile(target)

	var got []*page
	for p := pc.lru.older; p != &pc.lru; p = p.older {
		got = append(got, p)
	}
	if len(got) != others || len(kept) != others {
		t.Fatalf("%d of %d other pages left on the LRU ring", len(got), len(kept))
	}
	for i := range got {
		if got[i] != kept[i] {
			t.Fatalf("LRU position %d changed", i)
		}
	}
	if _, ok := pc.byFile[target]; ok {
		t.Error("the dropped file still has a chain")
	}
}

// DropCaches gives the pool every page the cache still knows, resident or
// retired; every page is one whole pool block whichever way it came in (READ
// replies are copied, so the server's reply buffer never reaches the pool);
// after it the client works on recycled (poisoned) pages and still reads its
// data. evict and dropFile retire, and the next read or write reclaims.
func TestDropCachesReturnsOnlyPoolBornPages(t *testing.T) {
	c, _, _ := rig(t, V3)
	pool := &blockdev.Pool{Poison: true}
	c.SetPool(pool)
	payload := make([]byte, 9*pageSize+100) // nine full pages and a tail
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	write := func(path string) time.Duration {
		f, at, err := c.Create(0, path, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, at, err = f.WriteAt(at, 0, payload); err != nil {
			t.Fatal(err)
		}
		if at, err = f.Close(at); err != nil {
			t.Fatal(err)
		}
		return at
	}
	read := func(at time.Duration, path string) time.Duration {
		t.Helper()
		f, at, err := c.Open(at, path)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload))
		if _, at, err = f.ReadAt(at, 0, got); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read %s: err %v, equal %v", path, err, bytes.Equal(got, payload))
		}
		return at
	}
	at := write("/written")
	c.DropCaches()
	if pool.Len() != 10 {
		t.Fatalf("pool holds %d pages after dropping 10 written ones", pool.Len())
	}
	at = read(at, "/written") // ten pages copied out of READ replies
	if pool.Len() != 0 {
		t.Fatalf("a cold read of 10 pages left %d of 10 pool blocks unused", pool.Len())
	}
	var pages []*page
	for _, p := range c.pages.pages {
		if len(p.data) != pageSize || cap(p.data) != pageSize {
			t.Fatalf("page %v: len %d cap %d, want one whole block", p.key, len(p.data), cap(p.data))
		}
		pages = append(pages, p)
	}
	ino := pages[0].key.ino // the dropped pages' slots are reused below
	reply := c.srv.reply[:pageSize]
	last := append([]byte(nil), reply...)
	c.DropCaches()
	if pool.Len() != 10 {
		t.Fatalf("pool holds %d pages after dropping 10 read ones", pool.Len())
	}
	for _, p := range pages {
		if p.data != nil {
			t.Fatal("a released page kept its data")
		}
	}
	if !bytes.Equal(reply, last) {
		t.Fatal("the server's reply buffer was poisoned: part of it went to the pool")
	}
	// A page created on a recycled block is zero where nothing was written.
	g, at, err := c.Create(at, "/sparse", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{0, 3000} {
		if _, at, err = g.WriteAt(at, off, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	sparse := make([]byte, 3004)
	if _, at, err = g.ReadAt(at, 0, sparse); err != nil || !bytes.Equal(sparse[4:3000], make([]byte, 2996)) {
		t.Fatalf("gap inside a page on a recycled block is not zero (err %v)", err)
	}
	// dropFile retires a file's pages; the next syscall's reclaim puts them.
	at = read(at, "/written")
	before, cached := pool.Len(), len(c.pages.pages)
	c.pages.dropFile(ino)
	if len(c.pages.pages) != cached-10 || len(c.pages.mem.Retired()) != 10 || pool.Len() != before {
		t.Fatalf("dropFile dropped %d pages, retired %d and moved the pool by %d", cached-len(c.pages.pages), len(c.pages.mem.Retired()), pool.Len()-before)
	}
	read(at, "/written") // reclaims 10, takes 10
	if len(c.pages.mem.Retired()) != 0 || pool.Len() != before {
		t.Fatalf("after the next read: %d retired, pool %d, want 0 and %d", len(c.pages.mem.Retired()), pool.Len(), before)
	}
	c.pages.dropFile(ino)
	c.DropCaches()
	if len(c.pages.mem.Retired()) != 0 || pool.Len() != before+10+1 {
		t.Fatalf("DropCaches left %d retired pages, pool %d, want 0 and %d", len(c.pages.mem.Retired()), pool.Len(), before+11)
	}
}

// drop empties the cache in place: a refill to the size it had allocates
// nothing, neither pages (the slab keeps its chunks) nor the index, and
// afterwards the cache holds nothing.
func TestDropKeepsTheIndexStorage(t *testing.T) {
	const n = 4096
	pc := newPageCache(n, nil)
	fill := func() {
		for i := int64(0); i < n; i++ {
			pc.getOrCreate(pageKey{uint64(1 + i%3), i})
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(3, func() { pc.drop(); fill() }); allocs != 0 {
		t.Fatalf("drop and a refill of %d pages allocated %.0f objects, want 0", n, allocs)
	}
	pc.drop()
	if len(pc.pages) != 0 || len(pc.byFile) != 0 || pc.lru.older != &pc.lru || pc.lru.newer != &pc.lru {
		t.Fatalf("drop left %d pages, %d files or a non-empty LRU ring", len(pc.pages), len(pc.byFile))
	}
}

// reclaim after N evictions puts the private blocks among them: a page of
// mixed bytes is pooled, a zero or uniform one is shared and never reaches
// the pool. A victim keeps its bytes until then, and so does a private block
// a shared one replaced in a resident page. Without a pool pages are retired
// and reused, and no block is.
func TestPageCacheReclaim(t *testing.T) {
	pool := &blockdev.Pool{Poison: true}
	pc := newPageCache(3, pool)
	first := pc.insert(pageKey{1, 0}, []byte("first"), 0) // mixed once zero-extended
	uniform := bytes.Repeat([]byte{0x41}, pageSize)
	for i := int64(1); i < 4; i++ {
		pc.insert(pageKey{1, i}, uniform, 0)
	}
	for i := int64(4); i < 10; i++ {
		pc.getOrCreate(pageKey{1, i}) // zeros
	}
	if len(pc.pages) != 3 || len(pc.mem.Retired()) != 7 || pool.Len() != 0 {
		t.Fatalf("%d pages cached, %d retired, pool %d; want 3, 7, 0", len(pc.pages), len(pc.mem.Retired()), pool.Len())
	}
	if pc.mem.Retired()[0] != first || string(first.data[:5]) != "first" {
		t.Fatal("the first victim lost its bytes before reclaim")
	}
	pc.reclaim()
	if pool.Len() != 1 || len(pc.mem.Retired()) != 0 || first.data != nil {
		t.Fatalf("after reclaim: pool %d, %d retired; want 1 (the mixed page), 0", pool.Len(), len(pc.mem.Retired()))
	}
	pc.reclaim()
	if pool.Len() != 1 {
		t.Fatalf("a second reclaim moved the pool to %d", pool.Len())
	}

	// Mixed content over a shared page takes a pool block; uniform content
	// over it retires that block until the next reclaim.
	p := pc.peek(pageKey{1, 9})
	p.data = pc.mem.Replace(p.data, bytes.Repeat([]byte("mixed"), pageSize/5))
	if pool.Len() != 0 || pc.mem.Replaced() != 0 {
		t.Fatalf("mixed over a shared page: pool %d, %d replaced; want 0, 0", pool.Len(), pc.mem.Replaced())
	}
	block := p.data
	p.data = pc.mem.Replace(p.data, uniform)
	if pc.mem.Replaced() != 1 || pool.Len() != 0 || string(block[:5]) != "mixed" {
		t.Fatal("uniform over a private page: its block must wait for reclaim")
	}
	pc.reclaim()
	if pool.Len() != 1 || pc.mem.Replaced() != 0 || !bytes.Equal(p.data, uniform) {
		t.Fatalf("after reclaim: pool %d, %d replaced; want 1, 0", pool.Len(), pc.mem.Replaced())
	}
	pc.release()
	if pool.Len() != 1 {
		t.Fatalf("release of three shared pages moved the pool to %d", pool.Len())
	}

	heap := newPageCache(3, nil)
	for i := int64(0); i < 10; i++ {
		heap.getOrCreate(pageKey{1, i})
	}
	last := heap.peek(pageKey{1, 9})
	last.data = heap.mem.Replace(last.data, []byte("mixed"))
	last.data = heap.mem.Replace(last.data, nil)
	heap.dropFile(1)
	if len(heap.mem.Retired()) != 10 || heap.mem.Replaced() != 0 {
		t.Fatalf("a cache without a pool retired %d pages and %d blocks, want 10 and 0", len(heap.mem.Retired()), heap.mem.Replaced())
	}
	freed := map[*page]bool{}
	for _, p := range heap.mem.Retired() {
		freed[p] = true
	}
	heap.reclaim()
	if len(heap.mem.Retired()) != 0 || last.data != nil {
		t.Fatal("reclaim kept a retired page, or left it its block")
	}
	for i := int64(0); i < 3; i++ {
		if !freed[heap.getOrCreate(pageKey{2, i})] {
			t.Fatalf("page %d of a refill is not one of the freed slots", i)
		}
	}
	heap.release()
}

// A warm page cache allocates nothing in a cycle of inserts past its size,
// the evictions they cause and the reclaim after them, with a pool and
// without one: each new page is a slot the last reclaim freed, and each block
// one it put (without a pool the blocks are the shared ones). A page evicted
// while held keeps its key and its bytes until that reclaim, and only then is
// freed and its block poisoned.
func TestPageCacheWarmCycleAllocatesNothing(t *testing.T) {
	mixed := make([]byte, pageSize)
	for i := range mixed {
		mixed[i] = byte(i * 7)
	}
	for _, pool := range []*blockdev.Pool{nil, {Poison: true}} {
		t.Run(fmt.Sprint("pool=", pool != nil), func(t *testing.T) {
			src := bytes.Repeat([]byte{0x5a}, pageSize)
			if pool != nil {
				src = mixed
			}
			pc := newPageCache(8, pool)
			from := int64(0)
			cycle := func() {
				for idx := from; idx < from+16; idx++ {
					pc.insert(pageKey{1, idx}, src, 0)
				}
				pc.reclaim()
				from = (from + 16) % 64
			}
			for i := 0; i < 4; i++ {
				cycle()
			}
			if n := testing.AllocsPerRun(50, cycle); n != 0 {
				t.Fatalf("a warm cycle of 16 inserts and a reclaim allocated %v objects, want 0", n)
			}
			k := pageKey{2, 100}
			held := pc.insert(k, src, 0)
			for idx := int64(200); idx < 216; idx++ { // evicts page k
				pc.insert(pageKey{1, idx}, src, 0)
			}
			if pc.peek(k) != nil || held.key != k || !bytes.Equal(held.data, src) {
				t.Fatalf("a held page evicted before reclaim: resident %v, key %v, bytes kept %v", pc.peek(k) != nil, held.key, bytes.Equal(held.data, src))
			}
			pc.reclaim()
			if held.key != (pageKey{}) || held.data != nil {
				t.Fatal("reclaim did not free the evicted page")
			}
		})
	}
}

// sharedIntact fails the test if a shared block was written: a write landed
// in one of the read-only blocks the caches and stores refer to.
func sharedIntact(t *testing.T) {
	t.Helper()
	if err := (*blockdev.Pool)(nil).SharedIntact(); err != nil {
		t.Fatal(err)
	}
}

// Pages of one byte repeated are shared; a partial write (v3's page write,
// v2's coherence copy) or a truncate inside one makes that page private
// first, so the other pages of the same byte, in this file and another, still
// read as that byte.
func TestPartialWritesCopySharedPages(t *testing.T) {
	for _, ver := range []Version{V2, V3} {
		t.Run(fmt.Sprint(ver), func(t *testing.T) {
			c, _, _ := rig(t, ver)
			c.SetPool(&blockdev.Pool{Poison: true})
			fill := bytes.Repeat([]byte{0x41}, 3*pageSize)
			at := time.Duration(0)
			var files []vfs.File
			for _, name := range []string{"/u", "/v"} {
				f, d, err := c.Create(at, name, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, d, err = f.WriteAt(d, 0, fill); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, len(fill)) // v2 caches pages only when read
				if _, at, err = f.ReadAt(d, 0, got); err != nil || !bytes.Equal(got, fill) {
					t.Fatalf("%s reads back wrong (err %v)", name, err)
				}
				files = append(files, f)
			}
			u, v := files[0], files[1]
			if _, d, err := u.WriteAt(at, 10, []byte("xyz")); err != nil {
				t.Fatal(err)
			} else {
				at = d
			}
			c.pages.truncate(u.(*nfsFile).fh.Ino, pageSize+100)
			want := append([]byte(nil), fill...)
			copy(want[10:], "xyz")
			clear(want[pageSize+100 : 2*pageSize])
			for i, page := range []*page{
				c.pages.peek(pageKey{u.(*nfsFile).fh.Ino, 0}),
				c.pages.peek(pageKey{u.(*nfsFile).fh.Ino, 1}),
			} {
				if page == nil || !bytes.Equal(page.data, want[i*pageSize:(i+1)*pageSize]) {
					t.Fatalf("page %d of /u does not hold what was written", i)
				}
			}
			got := make([]byte, len(fill))
			if _, _, err := v.ReadAt(at, 0, got); err != nil || !bytes.Equal(got, fill) {
				t.Fatalf("/v, never written since, reads otherwise (err %v)", err)
			}
			sharedIntact(t)
		})
	}
}

// An insert with every other page dirty overflows the cache: the page being
// inserted, the only clean one, is not the victim.
func TestInsertNeverEvictsItsOwnPage(t *testing.T) {
	pc := newPageCache(2, nil)
	for i := int64(0); i < 2; i++ {
		pc.getOrCreate(pageKey{1, i}).dirty = true
	}
	p := pc.getOrCreate(pageKey{1, 2})
	if pc.peek(p.key) != p || len(pc.pages) != 3 {
		t.Fatalf("the new page was evicted by its own insert (%d pages cached)", len(pc.pages))
	}
	p.dirty = true
	q := pc.insert(pageKey{1, 3}, nil, 0)
	if pc.peek(q.key) != q || len(pc.pages) != 4 {
		t.Fatalf("the second new page was evicted by its own insert (%d pages cached)", len(pc.pages))
	}
	// A clean older page is still the victim, as before.
	p.dirty, q.dirty = false, true
	pc.getOrCreate(pageKey{1, 4})
	if pc.peek(p.key) != nil || pc.peek(q.key) != q {
		t.Fatal("with a clean older page present, that page is the victim")
	}
}
