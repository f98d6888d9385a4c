package blockdev

// BlockSize is the size of the blocks a Pool recycles and of the shared
// constant blocks a Store or a cache refers to: the 4 KB block every device,
// buffer cache and page cache in this repository uses.
const BlockSize = 4096

// poolCap bounds how many free blocks a Pool keeps (16 MB). A cell's caches
// can die holding far more; what does not fit is left to the collector, so
// a pool never makes one cell's high-water footprint permanent.
const poolCap = 4096

// Pool is a free list shared by the block owners of the cells one sweep builds
// one after another: the Stores, the ext3 buffer caches and the NFS client
// page caches (testbed.Config.Pool hands it down). It recycles the
// BlockSize-byte private blocks of the Stores and of the caches, the leaves
// of the Tables that index Stores and buffer caches by block number, the
// chunks the caches' entries live in (Reclaimer), and the filesystems' run
// buffers (TakeRun). A block goes back where its owner drops it, a leaf or a
// chunk when its Table or cache is released, a run buffer when its
// filesystem's caches die, so the next fetch, or the next cell, takes it from
// here, not from the heap.
//
// A nil *Pool is valid and inert: Get allocates, Put does nothing, and Tables
// and caches make leaves and chunks and leave them to the collector. That is
// the state of every assembly built without one.
//
// An owner holds two kinds of block. A private block is one Get handed out;
// the owner writes it and gives it back. A shared block is the read-only block
// of one byte repeated (the same table a Store's constant blocks refer to):
// Load and Replace hand one out for content that is one byte repeated, it is
// never written, and Writable swaps it for a private copy before a partial
// write.
//
// Ownership rules, which callers keep and the pool cannot check:
//
//   - Only whole blocks Get handed out go back: every private block an owner
//     holds is one (what arrives in a run or reply buffer is copied into one),
//     so there is nothing an owner must remember about where a block came
//     from. Shared blocks never reach the free list: Put refuses them, which
//     also keeps Poison off them.
//   - Put is called where nothing can still refer to the block. A Store
//     block replaced by a constant and a released Store are that at once. A
//     cache drops blocks (eviction, a superseded copy, a dropped file, a
//     private block a shared one replaced) while the operation that obtained
//     them may still use them, so it only retires them there and puts them
//     between operations (bcache.reclaim, nfs pageCache.reclaim) or when the
//     whole cache dies (dropAll, release). What outlives an operation refers
//     only to dirty or pinned blocks, and those are never dropped.
//   - After Put the owner drops its reference (data = nil).
//   - Leaves go back only whole and emptied, in Table.Release: when a Store
//     is released (Store.Release), when a buffer cache dies (dropAll) and
//     after each journal checkpoint; chunks in Reclaimer.Release. A leaf or
//     chunk never holds a value in the pool, so a free one keeps no block
//     and no entry alive. Like blocks, at most leafCap of them are kept.
//
// The zero Pool is empty and ready. A Pool is not safe for concurrent use;
// concurrent sweeps take one each.
type Pool struct {
	free [][]byte
	// shelves holds one free list per kind of leaf (a *[]*leaf[T], or a
	// chunk), leaves counts the leaves on all of them.
	shelves []any
	leaves  int
	// Poison makes Put overwrite the block with 0xEE, a byte no workload
	// writes, so a reference that outlived its owner reads bytes no golden
	// expects. Tests set it.
	Poison bool
}

// Get returns a block the caller owns. With zeroed set it reads as zeros;
// otherwise its content is unspecified and the caller overwrites all of it.
func (p *Pool) Get(zeroed bool) []byte {
	if p == nil || len(p.free) == 0 {
		return make([]byte, BlockSize)
	}
	n := len(p.free) - 1
	b := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	if zeroed {
		clear(b)
	}
	return b
}

// Len reports how many free blocks the pool holds (for tests).
func (p *Pool) Len() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}

// Put takes back a block Get handed out. Anything that is not exactly one
// whole block is refused, and so is a shared block and everything beyond the
// cap.
func (p *Pool) Put(b []byte) {
	if p == nil || len(b) != BlockSize || cap(b) != BlockSize || isShared(b) {
		return
	}
	if p.Poison {
		for i := range b {
			b[i] = 0xEE
		}
	}
	if len(p.free) < poolCap {
		p.free = append(p.free, b)
	}
}

// Load returns a block holding src (at most BlockSize bytes) zero-extended to
// a whole block: the shared block of that byte when the result is one byte
// repeated, else a private block from the pool.
func (p *Pool) Load(src []byte) []byte {
	if v, ok := repeats(src); ok {
		return shared[v][:]
	}
	b := p.Get(len(src) < BlockSize)
	copy(b, src)
	return b
}

// Shared returns the shared read-only block of byte v repeated: a block to
// hand down by reference (see Device.WriteRun), never to write.
func Shared(v byte) []byte { return shared[v][:] }

// replace returns the block that holds src (at most BlockSize bytes,
// zero-extended) in place of cur, a block Get or Load handed out: a shared
// block when the result is one byte repeated, else cur itself overwritten
// when it is private, else a private block from the pool. A shared block is
// never written. A private block a shared one displaces is retired: appended
// to *retired, for putAll once the operation is over (a nil pool retires
// nothing).
func (p *Pool) replace(cur, src []byte, retired *[][]byte) []byte {
	if v, ok := repeats(src); ok {
		if p != nil && !isShared(cur) {
			*retired = append(*retired, cur)
		}
		return shared[v][:]
	}
	if isShared(cur) {
		return p.Load(src)
	}
	clear(cur[copy(cur, src):])
	return cur
}

// putAll puts every block of retired and returns it emptied, its references
// dropped, for reuse.
func (p *Pool) putAll(retired [][]byte) [][]byte {
	for i, b := range retired {
		p.Put(b)
		retired[i] = nil
	}
	return retired[:0]
}

// Writable returns b, a block Get or Load handed out, when it is private,
// and otherwise a private block holding a copy of it: the copy-on-write a
// partial write into a shared block takes first.
func (p *Pool) Writable(b []byte) []byte {
	if !isShared(b) {
		return b
	}
	w := p.Get(false)
	copy(w, b)
	return w
}

// repeats reports the byte that src zero-extended to BlockSize repeats, if it
// is one byte repeated. A whole shared block is known by its address: it was
// compared where it entered the cache it came from.
func repeats(src []byte) (byte, bool) {
	switch {
	case len(src) == 0:
		return 0, true
	case len(src) == BlockSize && isShared(src):
		return src[0], true
	case !uniform(src), len(src) < BlockSize && src[0] != 0:
		return 0, false
	}
	return src[0], true
}

// chunkSlots is how many cache entries a chunk holds: 76 ext3 buffers or NFS
// pages nearly fill a malloc size class (6144 and 6784 bytes with the 8-byte
// header), so an entry costs no more than a heap object of its own did.
const chunkSlots = 76

// Reclaimer is a cache's side of the pool, for caches whose entries (of type
// E) each hold one block: the ext3 buffer cache and the NFS page cache. New is
// the only source of their entries, a slab: chunks of chunkSlots entries that
// never move while an operation holds one. A cache that drops an entry during
// an operation only retires it, since the operation may still read it, and
// Reclaim frees the entry and gives its block back once no operation is in
// flight. Pool is where the cache's private blocks and chunks come from; nil
// means the heap, and then entries are still retired and reused, but no block
// or chunk goes anywhere.
type Reclaimer[E any] struct {
	Pool     *Pool
	chunks   []*[chunkSlots]E
	used     int      // slots of chunks handed out, in order, since the last Release
	free     []*E     // slots Reclaim freed, handed out first
	retired  []*E     // unlinked since the last Reclaim
	replaced [][]byte // private blocks Replace swapped out of resident entries since the last Reclaim
}

// New returns a slot holding e: a freed one, else the next of the last
// chunk, else the first of a chunk taken from the pool.
func (r *Reclaimer[E]) New(e E) *E {
	var p *E
	if n := len(r.free) - 1; n >= 0 {
		p, r.free = r.free[n], r.free[:n]
	} else {
		if r.used == len(r.chunks)*chunkSlots {
			r.chunks = append(r.chunks, takeLeaf[[chunkSlots]E](r.Pool))
		}
		p = &r.chunks[r.used/chunkSlots][r.used%chunkSlots]
		r.used++
	}
	*p = e
	return p
}

// Retire remembers e, an entry the cache unlinked, for Reclaim.
func (r *Reclaimer[E]) Retire(e *E) { r.retired = append(r.retired, e) }

// Replace is Pool.replace for a resident entry's block: the private block a
// shared one displaces is retired.
func (r *Reclaimer[E]) Replace(cur, src []byte) []byte {
	return r.Pool.replace(cur, src, &r.replaced)
}

// Reclaim frees the retired entries, zeroed, and gives the pool their blocks
// and the replaced blocks. data returns where a retired entry keeps its
// block, or nil for an entry that is the cache's again and stays. One retired
// twice has no block the second time and is freed once. Callers guarantee
// that no operation is in flight.
func (r *Reclaimer[E]) Reclaim(data func(*E) *[]byte) {
	var none E
	for i, e := range r.retired {
		if d := data(e); d != nil && *d != nil {
			r.Pool.Put(*d)
			*e = none
			r.free = append(r.free, e)
		}
		r.retired[i] = nil
	}
	r.retired = r.retired[:0]
	r.replaced = r.Pool.putAll(r.replaced)
}

// Release zeroes every entry, resident or retired, and gives the pool the
// blocks data returns, the replaced blocks and the chunks; without a pool the
// slab keeps its chunks. Callers guarantee that nothing refers to an entry.
func (r *Reclaimer[E]) Release(data func(*E) []byte) {
	for i, c := range r.chunks {
		slots := c[:max(0, min(r.used-i*chunkSlots, chunkSlots))]
		for j := range slots {
			r.Pool.Put(data(&slots[j]))
		}
		clear(slots)
		putLeaf(r.Pool, c)
	}
	if r.Pool != nil {
		r.chunks = r.chunks[:0]
	}
	r.used, r.free, r.retired = 0, r.free[:0], r.retired[:0]
	r.replaced = r.Pool.putAll(r.replaced)
}

// Retired returns the entries retired since the last Reclaim (for tests).
func (r *Reclaimer[E]) Retired() []*E { return r.retired }

// Replaced reports how many replaced blocks wait for Reclaim (for tests).
func (r *Reclaimer[E]) Replaced() int { return len(r.replaced) }
