package blockdev

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// countCompares returns how many uniformity tests f makes.
func countCompares(f func()) int {
	n := 0
	compared = func() { n++ }
	defer func() { compared = nil }()
	f()
	return n
}

// holds reports whether s keeps b itself, not a copy of it, as block lba.
func holds(s *Store, lba int64, b []byte) bool {
	held, ok := s.blocks.Get(lba)
	return ok && &held[0] == &b[0]
}

// A shared block is known by its address: handing one to a Store or loading
// it into a cache block compares no byte, while a private block, uniform or
// mixed, is compared once per owner. Only the shared block is kept as itself.
func TestSharedBlocksAreNotComparedAgain(t *testing.T) {
	p := &Pool{}
	s := NewStore(8, BlockSize)
	s.SetPool(p)
	uniform := bytes.Repeat([]byte{0x5A}, BlockSize)
	var sh []byte
	if n := countCompares(func() { sh = p.Load(uniform) }); !isShared(sh) || n != 1 {
		t.Fatalf("loading uniform bytes: shared %v after %d compares, want a shared block after 1", isShared(sh), n)
	}
	for _, step := range []struct {
		what     string
		do       func() []byte
		compares int
	}{
		{"Load of a shared block", func() []byte { return p.Load(sh) }, 0},
		{"replace by a shared block", func() []byte { var r [][]byte; return p.replace(p.Get(false), sh, &r) }, 0},
		{"Store.WriteAt of a shared block", func() []byte { return sh }, 0},
		{"Store.WriteAt of a uniform private block", func() []byte { return uniform }, 1},
		{"Store.WriteAt of a mixed private block", func() []byte { return ramp[:BlockSize] }, 1},
	} {
		var b []byte
		n := countCompares(func() {
			if b = step.do(); s.WriteAt(3, b) != nil {
				t.Fatal("write failed")
			}
		})
		if n != step.compares {
			t.Errorf("%s: %d compares, want %d", step.what, n, step.compares)
		}
		if kept, shared := holds(s, 3, b), isShared(b); kept != shared {
			t.Errorf("%s: the store keeps the block itself: %v, shared: %v", step.what, kept, shared)
		}
	}
	sharedIntact(t)
}

// runBlocks draws the blocks of one run, one byte of kinds each: 0 a shared
// block of a non-zero byte, 1 the shared block of zeros, 2 a private block of
// mixed bytes, 3 a private block of one byte repeated, 4 a short block, drawn
// only as the last of a run (mixed anywhere else).
func runBlocks(kinds []byte, seed byte) [][]byte {
	blocks := make([][]byte, len(kinds))
	for i, k := range kinds {
		v := seed + byte(i)*13 | 1
		switch k %= 5; {
		case k == 0:
			blocks[i] = shared[v][:]
		case k == 1:
			blocks[i] = shared[0][:]
		case k == 3:
			blocks[i] = bytes.Repeat([]byte{v}, BlockSize)
		case k == 4 && i == len(kinds)-1:
			blocks[i] = append([]byte(nil), ramp[v:int(v)+int(k)*int(v)%BlockSize+1]...)
		default:
			blocks[i] = append([]byte(nil), ramp[v:int(v)+BlockSize]...)
		}
	}
	return blocks
}

// FuzzWriteRunMatchesWriteBlocks holds WriteRun of a run of blocks by
// reference to WriteBlocks of their concatenation on a twin LUN: the same
// error, completion time and array counters, the same store content, the same
// Populated and pool Len, over shared, private, uniform-but-private and short
// final blocks, injected failures and runs past either end. The by-reference
// side compares every block but a shared one, which the store keeps as
// itself, and keeps no private block: poisoning the blocks afterwards changes
// nothing it holds.
func FuzzWriteRunMatchesWriteBlocks(f *testing.F) {
	f.Add([]byte{10, 4, 0, 1, 2, 3, 1})                    // one of each whole kind
	f.Add([]byte{20, 3, 2, 2, 4, 20, 2, 0, 0, 0})          // a short last block, then shared over private
	f.Add([]byte{250, 6, 0, 0, 0, 0, 0, 0, 0, 1, 3, 3, 3}) // past the end, then a run from 0
	f.Add([]byte{5, 3, 3, 2, 2, 0x85, 5, 1, 3, 1, 0, 0})   // a failure injected
	f.Fuzz(func(t *testing.T, ops []byte) {
		type twin struct {
			*Local
			pool *Pool
		}
		mk := func() twin {
			d := twin{NewClusterArraySized(2, 256, 2)[1], &Pool{}} // a LUN at an offset
			d.Store().SetPool(d.pool)
			return d
		}
		whole, byRef := mk(), mk()
		var at time.Duration
		got, want := make([]byte, BlockSize), make([]byte, BlockSize)
		for len(ops) >= 2 {
			// One op: lba (0x80 set: the writes fail), run length, kinds.
			lba, n, fail := int64(ops[0]&0x7F)*2-2, int(ops[1]%7), ops[0]&0x80 != 0
			kinds := ops[2:min(2+n, len(ops))]
			ops = ops[2+len(kinds):]
			blocks := runBlocks(kinds, byte(lba))
			whole.FailWrites, byRef.FailWrites = fail, fail
			var d0, d1 time.Duration
			var err0, err1 error
			dw := countCompares(func() { d0, err0 = whole.WriteBlocks(at, lba, bytes.Join(blocks, nil)) })
			dr := countCompares(func() { d1, err1 = byRef.WriteRun(at, lba, blocks) })
			what := fmt.Sprintf("run of %d at %d (kinds %v, fail %v)", len(blocks), lba, kinds, fail)
			if fmt.Sprint(err0) != fmt.Sprint(err1) || d0 != d1 {
				t.Fatalf("%s: WriteBlocks done %v err %v, WriteRun done %v err %v", what, d0, err0, d1, err1)
			}
			at = d0
			if err0 == nil {
				sharedBlocks := 0
				for i, b := range blocks {
					if isShared(b) {
						sharedBlocks++
					}
					if kept := holds(byRef.Store(), lba+int64(i), b); kept != (isShared(b) && b[0] != 0) {
						t.Fatalf("%s: block %d kept by reference: %v", what, i, kept)
					}
				}
				if dr != dw-sharedBlocks {
					t.Fatalf("%s: %d compares by reference, %d for the joined run with %d shared blocks", what, dr, dw, sharedBlocks)
				}
			}
			for _, b := range blocks {
				if !isShared(b) {
					for i := range b {
						b[i] = 0xEE
					}
				}
			}
			if sa, sb := whole.Stats(), byRef.Stats(); sa != sb {
				t.Fatalf("%s: array counters %+v against %+v", what, sa, sb)
			}
			if whole.Store().Populated() != byRef.Store().Populated() || whole.pool.Len() != byRef.pool.Len() {
				t.Fatalf("%s: store holds %d / %d blocks, pool %d / %d", what,
					whole.Store().Populated(), byRef.Store().Populated(), whole.pool.Len(), byRef.pool.Len())
			}
			for b := max(lba, 0); b < min(lba+int64(len(blocks)), 256); b++ {
				if err := whole.Store().ReadAt(b, want); err != nil {
					t.Fatal(err)
				}
				if err := byRef.Store().ReadAt(b, got); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: block %d differs", what, b)
				}
			}
		}
		sharedIntact(t)
	})
}

// A run with a short or long block anywhere but last, or an empty one, has no
// concatenation of whole blocks to stand for: it is refused before any block
// is stored or the array sees a request.
func TestWriteRunRefusesBrokenRuns(t *testing.T) {
	d := NewTestbedArray(64)
	whole := ramp[:BlockSize]
	for _, blocks := range [][][]byte{
		{whole[:100], whole},
		{whole, append(whole[:BlockSize:BlockSize], 0), whole},
		{whole, {}},
		{append(whole[:BlockSize:BlockSize], 0)},
	} {
		if _, err := d.WriteRun(0, 0, blocks); err == nil {
			t.Errorf("a run of blocks of %d.. bytes was written", len(blocks[0]))
		}
	}
	if d.Store().Populated() != 0 || d.Stats() != (NewTestbedArray(64).Stats()) {
		t.Fatal("a refused run stored a block or reached the array")
	}
}
