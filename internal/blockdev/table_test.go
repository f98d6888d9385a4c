package blockdev

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// tableBlocks is the device the table tests index: 2^21 blocks, the largest
// volume the default ext3 geometry tiles.
const tableBlocks = 1 << 21

// tableEdges are the block numbers the table's shape makes special: block 0,
// both sides of a bitmap word and of a leaf, and the device's last block.
var tableEdges = []int64{0, 1, 63, 64, 511, 512, 513, 1023, 1024, 1025, tableBlocks - 513, tableBlocks - 512, tableBlocks - 1}

// tableBeyond are addresses no Set may be given but Get, Delete and Next
// must take: past the device's end, far past any leaf, and negative.
var tableBeyond = []int64{tableBlocks, tableBlocks + 511, 1 << 40, -1, -513}

// pickLBA turns two bytes into a block number below tableBlocks: an edge, or
// one spread over the whole device.
func pickLBA(a, b byte) int64 {
	if a < 128 {
		return tableEdges[int(b)%len(tableEdges)]
	}
	return int64(a-128)<<14 + int64(b)*61
}

// pickAny is pickLBA, or now and then an address beyond the device.
func pickAny(a, b byte) int64 {
	if a%8 == 7 {
		return tableBeyond[int(b)%len(tableBeyond)]
	}
	return pickLBA(a, b)
}

// tableOps replays a byte string as steps on a Table, a set (a Table of
// nothing) holding the same block numbers, and a map, on the given pool: set,
// get, delete, a walk from some block number, and release, after which both
// take recycled leaves. One step is three bytes: kind and two for the block
// number. Every answer the table and the set give must be the map's.
func tableOps(t *testing.T, ops []byte, pool *Pool) {
	t.Helper()
	var (
		tab  Table[[]byte]
		set  Table[struct{}]
		ref  = map[int64][]byte{}
		keys []int64 // ref's keys in ascending order; nil when stale
	)
	tab.SetPool(pool)
	set.SetPool(pool)
	sorted := func() []int64 {
		if keys == nil {
			keys = make([]int64, 0, len(ref))
			for k := range ref {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		}
		return keys
	}
	walk := func(from int64) {
		k := sorted()
		i := sort.Search(len(k), func(i int) bool { return k[i] >= from })
		want := int64(-1)
		if i < len(k) {
			want = k[i]
		}
		if got := tab.Next(from); got != want {
			t.Fatalf("Table.Next(%d) = %d, want %d", from, got, want)
		}
		if got := set.Next(from); got != want {
			t.Fatalf("set Next(%d) = %d, want %d", from, got, want)
		}
	}
	get := func(lba int64) {
		got, ok := tab.Get(lba)
		want, in := ref[lba]
		if ok != in || !bytes.Equal(got, want) || (in && &got[0] != &want[0]) {
			t.Fatalf("Get(%d) = %x %v, want %x %v", lba, got, ok, want, in)
		}
	}
	for step := 0; len(ops) >= 3; ops, step = ops[3:], step+1 {
		switch ops[0] % 8 {
		case 0, 1:
			lba, v := pickLBA(ops[1], ops[2]), []byte{byte(step), byte(step >> 8)}
			tab.Set(lba, v)
			set.Set(lba, struct{}{})
			if _, in := ref[lba]; !in {
				keys = nil
			}
			ref[lba] = v
		case 2, 3:
			get(pickAny(ops[1], ops[2]))
		case 4:
			lba := pickAny(ops[1], ops[2])
			tab.Delete(lba)
			set.Delete(lba)
			if _, in := ref[lba]; in {
				keys = nil
			}
			delete(ref, lba)
		case 5, 6:
			walk(pickAny(ops[1], ops[2]))
		case 7:
			tab.Release()
			set.Release()
			clear(ref)
			keys = nil
		}
		if tab.Len() != len(ref) || set.Len() != len(ref) {
			t.Fatalf("step %d: table holds %d, set %d, map %d", step, tab.Len(), set.Len(), len(ref))
		}
	}
	// The whole walk is the map's keys in ascending order, for the table and
	// for the set alike.
	var gotTab, gotSet []int64
	for lba := tab.Next(0); lba >= 0; lba = tab.Next(lba + 1) {
		gotTab = append(gotTab, lba)
		get(lba)
	}
	for lba := set.Next(0); lba >= 0; lba = set.Next(lba + 1) {
		gotSet = append(gotSet, lba)
	}
	want := sorted()
	if !equalLBAs(gotTab, want) || !equalLBAs(gotSet, want) {
		t.Fatalf("walks: table %v, set %v, want %v", gotTab, gotSet, want)
	}
	for _, lba := range append(tableEdges, tableBeyond...) {
		get(lba)
	}
	// What a release gives the pool is empty: no value and no bit is left in
	// a free leaf, so it keeps nothing alive and reads as absent when reused.
	tab.Release()
	set.Release()
	checkFreeLeaves(t, pool)
}

func equalLBAs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkFreeLeaves fails unless every leaf p holds is empty and p holds no
// more than leafCap of them.
func checkFreeLeaves(t *testing.T, p *Pool) {
	t.Helper()
	if p == nil {
		return
	}
	n := 0
	for _, s := range p.shelves {
		switch s := s.(type) {
		case *[]*leaf[[]byte]:
			for _, l := range *s {
				if l.used != [leafSlots / 64]uint64{} {
					t.Fatal("a free leaf has bits set")
				}
				for j, v := range l.slots {
					if v != nil {
						t.Fatalf("a free leaf still refers to a value in slot %d", j)
					}
				}
			}
			n += len(*s)
		case *[]*leaf[struct{}]:
			for _, l := range *s {
				if l.used != [leafSlots / 64]uint64{} {
					t.Fatal("a free set leaf has bits set")
				}
			}
			n += len(*s)
		default:
			t.Fatalf("a shelf of %T", s)
		}
	}
	if n != p.leaves || p.leaves > leafCap {
		t.Fatalf("pool counts %d free leaves, holds %d, cap %d", p.leaves, n, leafCap)
	}
}

// TestBlockTableMatchesMap runs long random step sequences against a map,
// on the heap and on a poisoning pool whose leaves each release recycles.
func TestBlockTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*20000)
		rng.Read(ops)
		// Releases are rare in the raw bytes; thin them further so the
		// tables grow large between them.
		for i := 0; i < len(ops); i += 3 {
			if ops[i]%8 == 7 && rng.Intn(50) != 0 {
				ops[i] = 0
			}
		}
		tableOps(t, ops, nil)
		tableOps(t, ops, &Pool{Poison: true})
	}
}

// FuzzBlockTableMatchesMap: any step sequence, on the heap and on a pool.
func FuzzBlockTableMatchesMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 4, 0, 0, 5, 0, 0, 6, 5, 0, 0, 5, 0, 5, 4, 0, 5, 5, 0, 4}) // 511/512/513, walk across the leaf edge
	f.Add([]byte{0, 0, 12, 0, 0, 0, 7, 0, 0, 0, 0, 11, 2, 0, 12, 2, 7, 0})       // last block and block 0, release, reuse
	f.Add([]byte{0, 200, 9, 4, 7, 2, 2, 7, 0, 5, 7, 1, 5, 7, 4, 2, 200, 9})      // beyond the end, negative, far
	f.Fuzz(func(t *testing.T, ops []byte) {
		tableOps(t, ops, nil)
		pool := &Pool{Poison: true}
		tableOps(t, ops, pool)
		tableOps(t, ops, pool) // the second run takes the first one's leaves
	})
}

// A Store built after another was released on the same pool takes that
// store's leaves and blocks, allocating neither: it allocates exactly the
// five leaves and six blocks fewer than a store without a pool. (What both
// allocate besides, the Store and its top array, depends on the build: the
// race detector adds one.)
func TestReleasedStoreLeavesAreReused(t *testing.T) {
	lbas := []int64{tableBlocks - 1, 0, 511, 512, 100000, 70000} // five leaves
	cycle := func(pool *Pool) func() {
		return func() {
			s := NewStore(tableBlocks, BlockSize)
			s.SetPool(pool)
			for _, lba := range lbas {
				if err := s.WriteAt(lba, ramp[lba%256:][:BlockSize]); err != nil {
					t.Fatal(err)
				}
			}
			s.Release()
		}
	}
	pool := &Pool{Poison: true}
	pooled := testing.AllocsPerRun(20, cycle(pool))
	heap := testing.AllocsPerRun(20, cycle(nil))
	if saved := heap - pooled; saved != 5+float64(len(lbas)) {
		t.Fatalf("a store rebuilt on its predecessor's pool allocates %v times, one without a pool %v: want 5 leaves and %d blocks fewer", pooled, heap, len(lbas))
	}
	if pool.leaves != 5 || pool.Len() != len(lbas) {
		t.Fatalf("pool holds %d leaves and %d blocks, want 5 and %d", pool.leaves, pool.Len(), len(lbas))
	}
	// What the next store reads is zeros, not the poisoned recycled memory.
	s := NewStore(tableBlocks, BlockSize)
	s.SetPool(pool)
	buf := make([]byte, BlockSize)
	for _, lba := range append(lbas, tableEdges...) {
		if err := s.ReadAt(lba, buf); err != nil || !bytes.Equal(buf, make([]byte, BlockSize)) {
			t.Fatalf("block %d of a fresh store on a recycled pool reads %x.. (%v)", lba, buf[:4], err)
		}
	}
}

// However many tables release into one pool, it keeps at most leafCap free
// leaves, all of them empty, and hands them out again before making new ones.
func TestPoolLeafCap(t *testing.T) {
	pool := &Pool{}
	var tabs [3]Table[[]byte]
	for i := range tabs {
		tabs[i].SetPool(pool)
		for lba := int64(0); lba < (leafCap/2+1)*leafSlots; lba += leafSlots {
			tabs[i].Set(lba+int64(i), ramp[:1])
		}
	}
	for i := range tabs {
		tabs[i].Release()
		checkFreeLeaves(t, pool)
	}
	if pool.leaves != leafCap {
		t.Fatalf("pool holds %d leaves after three releases of %d, want the cap %d", pool.leaves, leafCap/2+1, leafCap)
	}
	tabs[0].Set(0, ramp[:1])
	if pool.leaves != leafCap-1 {
		t.Fatal("a Set made a leaf while the pool held some")
	}
	var ptrs Table[*int] // another kind of leaf has a shelf of its own
	ptrs.SetPool(pool)
	ptrs.Set(3, new(int))
	ptrs.Release()
	if pool.leaves != leafCap || len(pool.shelves) != 2 {
		t.Fatalf("pool holds %d leaves on %d shelves, want %d on 2", pool.leaves, len(pool.shelves), leafCap)
	}
}
