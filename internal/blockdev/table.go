package blockdev

import "math/bits"

const (
	// leafBits is log2 of leafSlots.
	leafBits = 9
	// leafSlots is how many block numbers one leaf of a Table covers.
	leafSlots = 1 << leafBits
	// leafCap bounds how many free leaves a Pool keeps, over every kind of
	// leaf (a Store's is 12 KB, a cache index's 4 KB, a cache chunk 6 KB, a
	// run buffer 128 KB, of which a cell frees one per filesystem).
	leafCap = 1024
)

// leaf is one leafSlots-wide stretch of a Table: the values, and a bit per
// slot saying which of them are present.
type leaf[T any] struct {
	used  [leafSlots / 64]uint64
	slots [leafSlots]T
}

// Table maps block numbers to values: the index of a Store's blocks and of
// the ext3 buffer cache. Block numbers are dense integers below a device's
// NumBlocks, so it is a two-level radix table rather than a map: a top array
// of leaf pointers that grows only as far as the highest leaf a Set touches,
// and leaves of leafSlots values made on first touch. Nothing is sized from
// the device, so a large device with a few blocks in use pays for a few
// leaves. Next walks the present numbers in ascending order. A
// Table[struct{}] is a set of block numbers whose leaves are bitmaps, such
// as the ext3 buffer cache's dirty data.
//
// Leaves come from the Pool given to SetPool and go back to it in Release,
// emptied, the way blocks do (see Pool); a nil pool means the heap and the
// collector. The zero Table is empty and ready.
type Table[T any] struct {
	top  []*leaf[T]
	n    int
	pool *Pool
}

// SetPool makes the table take its leaves from p and give them back to it.
func (t *Table[T]) SetPool(p *Pool) { t.pool = p }

// Len reports how many block numbers are present.
func (t *Table[T]) Len() int { return t.n }

// Get returns the value at lba and whether one is present. Any lba is
// accepted: one that is negative or past every leaf is absent.
func (t *Table[T]) Get(lba int64) (v T, ok bool) {
	if i := uint64(lba) >> leafBits; i < uint64(len(t.top)) {
		if l, j := t.top[i], lba&(leafSlots-1); l != nil && l.used[j>>6]&(1<<(j&63)) != 0 {
			return l.slots[j], true
		}
	}
	return v, false
}

// Set makes v the value at lba, which is not negative.
func (t *Table[T]) Set(lba int64, v T) {
	i, j := int(lba>>leafBits), lba&(leafSlots-1)
	if i >= len(t.top) {
		t.top = append(t.top, make([]*leaf[T], i+1-len(t.top))...)
	}
	l := t.top[i]
	if l == nil {
		l = takeLeaf[leaf[T]](t.pool)
		t.top[i] = l
	}
	if w, bit := &l.used[j>>6], uint64(1)<<(j&63); *w&bit == 0 {
		*w |= bit
		t.n++
	}
	l.slots[j] = v
}

// Delete makes lba absent. Its leaf stays until Release.
func (t *Table[T]) Delete(lba int64) {
	if i := uint64(lba) >> leafBits; i < uint64(len(t.top)) {
		l, j := t.top[i], lba&(leafSlots-1)
		if l == nil {
			return
		}
		if w, bit := &l.used[j>>6], uint64(1)<<(j&63); *w&bit != 0 {
			*w &^= bit
			var zero T
			l.slots[j] = zero
			t.n--
		}
	}
}

// Next returns the smallest present block number at or after from, or -1.
func (t *Table[T]) Next(from int64) int64 {
	from = max(from, 0)
	for i, j := from>>leafBits, int(from&(leafSlots-1)); i < int64(len(t.top)); i, j = i+1, 0 {
		if l := t.top[i]; l != nil {
			if k := nextBit(l.used[:], j); k >= 0 {
				return i<<leafBits + int64(k)
			}
		}
	}
	return -1
}

// Release empties the table and gives its leaves, emptied, to the pool. The
// table stays usable; its next Set takes a leaf from the pool first.
func (t *Table[T]) Release() {
	var zero T
	for i, l := range t.top {
		if l == nil {
			continue
		}
		for w, word := range l.used {
			for ; word != 0; word &= word - 1 {
				l.slots[w<<6+bits.TrailingZeros64(word)] = zero
			}
		}
		l.used = [leafSlots / 64]uint64{}
		putLeaf(t.pool, l)
		t.top[i] = nil
	}
	t.n = 0
}

// nextBit returns the index of the first set bit of words at or after from,
// or -1.
func nextBit(words []uint64, from int) int {
	i := from >> 6
	if i >= len(words) {
		return -1
	}
	if w := words[i] >> (from & 63); w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for i++; i < len(words); i++ {
		if words[i] != 0 {
			return i<<6 + bits.TrailingZeros64(words[i])
		}
	}
	return -1
}

// RunBlocks is the length of the run buffers a Pool recycles: ext3's default
// coalescing limit, 128 KB.
const RunBlocks = 32

// Run is one run buffer: a coalescing buffer for RunBlocks contiguous blocks.
type Run = [RunBlocks * BlockSize]byte

// TakeRun returns a run buffer p holds, or a new one. Its content is
// unspecified; the caller overwrites what it uses.
func (p *Pool) TakeRun() *Run { return takeLeaf[Run](p) }

// PutRun gives p back a run buffer nothing refers to any more.
func (p *Pool) PutRun(r *Run) { putLeaf(p, r) }

// takeLeaf returns an empty leaf (or chunk): one p holds, or a new one.
func takeLeaf[L any](p *Pool) *L {
	if p != nil && p.leaves > 0 {
		if s := shelf[L](p); len(*s) > 0 {
			n := len(*s) - 1
			l := (*s)[n]
			(*s)[n] = nil
			*s = (*s)[:n]
			p.leaves--
			return l
		}
	}
	return new(L)
}

// putLeaf gives p an empty leaf, unless p is nil or holds leafCap already.
func putLeaf[L any](p *Pool, l *L) {
	if p == nil || p.leaves >= leafCap {
		return
	}
	s := shelf[L](p)
	*s = append(*s, l)
	p.leaves++
}

// shelf returns p's free list of leaves of type L, adding an empty one the
// first time a kind is asked for. A pool sees at most six kinds.
func shelf[L any](p *Pool) *[]*L {
	for _, s := range p.shelves {
		if s, ok := s.(*[]*L); ok {
			return s
		}
	}
	s := new([]*L)
	p.shelves = append(p.shelves, s)
	return s
}
