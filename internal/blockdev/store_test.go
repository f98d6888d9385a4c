package blockdev

import (
	"bytes"
	"testing"
)

// ramp[i] == byte(i): any BlockSize bytes of it are a mixed block.
var ramp = func() (r [BlockSize + 256]byte) {
	for i := range r {
		r[i] = byte(i)
	}
	return r
}()

// storeOps replays a byte string as writes and reads against a store and a
// dense []byte image of the same device: every read must return exactly what
// the image holds. One op is three bytes: lba, kind, value. Kinds cover the
// three representations in every order: zeros, one non-zero byte repeated,
// mixed bytes (derived from value, never constant), a mixed block whose
// bytes differ only in the last position (the constant test's worst case),
// and the shared block of zeros, which must leave what a write of zeros
// leaves without being compared.
func storeOps(t *testing.T, s *Store, ops []byte) {
	t.Helper()
	const blocks = 8
	dense := make([]byte, blocks*BlockSize)
	data, got := make([]byte, BlockSize), make([]byte, BlockSize)
	check := func(lba int64) {
		if err := s.ReadAt(lba, got); err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if want := dense[lba*BlockSize : (lba+1)*BlockSize]; !bytes.Equal(got, want) {
			t.Fatalf("block %d reads %x.., image holds %x..", lba, got[:8], want[:8])
		}
	}
	for ; len(ops) >= 3; ops = ops[3:] {
		lba, kind, v := int64(ops[0]%blocks), ops[1]%6, ops[2]
		switch kind {
		case 0:
			check(lba)
			continue
		case 1:
			clear(data)
		case 2:
			copy(data, bytes.Repeat([]byte{v}, BlockSize))
		case 3:
			copy(data, ramp[v:])
		case 4:
			copy(data, bytes.Repeat([]byte{v}, BlockSize))
			data[BlockSize-1] = v + 1
		case 5:
			clear(data)
		}
		w := data
		if kind == 5 {
			w = shared[0][:]
		}
		if err := s.WriteAt(lba, w); err != nil {
			t.Fatalf("write %d: %v", lba, err)
		}
		copy(dense[lba*BlockSize:], data)
		check(lba)
	}
	// Populated counts the blocks that do not read as all zeros: constant
	// and private ones alike, and never a block whose last write was zeros.
	nonZero := 0
	zero := make([]byte, BlockSize)
	for lba := int64(0); lba < blocks; lba++ {
		check(lba)
		if !bytes.Equal(dense[lba*BlockSize:(lba+1)*BlockSize], zero) {
			nonZero++
		}
	}
	if s.Populated() != nonZero {
		t.Fatalf("Populated() = %d, image has %d non-zero blocks", s.Populated(), nonZero)
	}
	// A private block never holds one byte repeated, and the shared blocks
	// are still what they were built as: nothing wrote through a reference.
	for lba := int64(0); lba < blocks; lba++ {
		if b, ok := s.blocks.Get(lba); ok && !isShared(b) && uniform(b) {
			t.Fatalf("block %d is private but constant (%#x)", lba, b[0])
		}
	}
	sharedIntact(t)
}

// FuzzStoreMatchesDenseImage: random zero / constant / mixed writes and
// overwrites in every order, with and without a (poisoning) pool, and again
// on that pool after a release.
func FuzzStoreMatchesDenseImage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0x5A, 1, 3, 9, 1, 2, 0xA5, 1, 1, 0, 1, 0, 0})          // constant, mixed, constant, zero, read
	f.Add([]byte{0, 3, 7, 1, 3, 7, 0, 2, 0xDB, 1, 4, 0xDB, 0, 1, 0, 1, 2, 0}) // private blocks recycled through the pool
	f.Add([]byte{2, 4, 0xFF, 2, 2, 0xFF, 2, 4, 0, 2, 1, 0, 3, 2, 0, 3, 0, 0}) // last byte differs; constant 0 is zero
	f.Add([]byte{4, 3, 1, 4, 5, 0, 5, 2, 9, 5, 5, 0, 6, 5, 0, 4, 3, 2})       // the shared zero block over private, constant, absent
	f.Fuzz(func(t *testing.T, ops []byte) {
		storeOps(t, NewStore(8, BlockSize), ops)
		pooled := NewStore(8, BlockSize)
		pool := &Pool{Poison: true}
		pooled.SetPool(pool)
		storeOps(t, pooled, ops)
		// Every block the pool holds was put back exactly once, and the
		// store kept no reference to it.
		for i, b := range pool.free {
			for _, c := range pool.free[:i] {
				if &b[0] == &c[0] {
					t.Fatal("a block sits in the pool twice")
				}
			}
			for lba := int64(0); lba < 8; lba++ {
				if c, ok := pooled.blocks.Get(lba); ok && &b[0] == &c[0] {
					t.Fatalf("block %d is in the store and in the pool", lba)
				}
			}
		}
		// A store built after a release on the same pool takes the released
		// store's (poisoned) blocks and its leaf, and still matches the image.
		pooled.Release()
		again := NewStore(8, BlockSize)
		again.SetPool(pool)
		storeOps(t, again, ops)
	})
}

// A constant write costs no block, a mixed write over it gives the lba a
// private block again, a constant write over that returns the block to the
// pool, and Release returns the rest and kills the store.
func TestStoreBlockLifecycle(t *testing.T) {
	s := NewStore(16, BlockSize)
	pool := &Pool{}
	s.SetPool(pool)
	constant := bytes.Repeat([]byte{0xDD}, BlockSize)
	mixed := append(bytes.Repeat([]byte{0xDD}, BlockSize-1), 0)
	for lba := int64(0); lba < 4; lba++ {
		if err := s.WriteAt(lba, constant); err != nil {
			t.Fatal(err)
		}
	}
	if s.Populated() != 4 || len(pool.free) != 0 {
		t.Fatalf("after constant writes: populated %d, pool %d", s.Populated(), len(pool.free))
	}
	for lba := s.blocks.Next(0); lba >= 0; lba = s.blocks.Next(lba + 1) {
		if b, _ := s.blocks.Get(lba); !isShared(b) {
			t.Fatalf("constant block %d owns memory", lba)
		}
	}
	if err := s.WriteAt(0, mixed); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(1, mixed); err != nil {
		t.Fatal(err)
	}
	b0, _ := s.blocks.Get(0)
	b1, _ := s.blocks.Get(1)
	if isShared(b0) || &b0[0] == &b1[0] {
		t.Fatal("mixed writes did not get private blocks of their own")
	}
	if shared[0xDD][BlockSize-1] != 0xDD {
		t.Fatal("a mixed write went through the shared block")
	}
	if err := s.WriteAt(0, constant); err != nil { // private -> constant
		t.Fatal(err)
	}
	if len(pool.free) != 1 {
		t.Fatalf("pool holds %d blocks after a private block became constant, want 1", len(pool.free))
	}
	if err := s.WriteAt(2, make([]byte, BlockSize)); err != nil { // constant -> absent
		t.Fatal(err)
	}
	if s.Populated() != 3 || len(pool.free) != 1 {
		t.Fatalf("after zeroing a constant block: populated %d, pool %d", s.Populated(), len(pool.free))
	}
	s.Release()
	if len(pool.free) != 2 {
		t.Fatalf("pool holds %d blocks after Release, want 2 (shared blocks are never pooled)", len(pool.free))
	}
	buf := make([]byte, BlockSize)
	if s.ReadAt(0, buf) == nil || s.WriteAt(0, buf) == nil {
		t.Fatal("a released store still serves I/O")
	}
	s.Release() // twice is harmless
	if len(pool.free) != 2 {
		t.Fatal("second Release put blocks back again")
	}
}

// Other block sizes keep working: constants up to BlockSize are shared, and
// the pool (whose blocks are BlockSize bytes) is ignored.
func TestStoreOtherBlockSizes(t *testing.T) {
	for _, bs := range []int{1, 512, 8192} {
		s := NewStore(4, bs)
		pool := &Pool{}
		s.SetPool(pool)
		constant := bytes.Repeat([]byte{3}, bs)
		mixed := append(bytes.Repeat([]byte{3}, bs), 4)[1:]
		got := make([]byte, bs)
		for i, data := range [][]byte{constant, mixed, constant, make([]byte, bs)} {
			if err := s.WriteAt(1, data); err != nil {
				t.Fatal(err)
			}
			if err := s.ReadAt(1, got); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("block size %d, write %d: read back %x", bs, i, got[:1])
			}
		}
		if len(pool.free) != 0 {
			t.Fatalf("block size %d: %d blocks reached the pool", bs, len(pool.free))
		}
	}
}
