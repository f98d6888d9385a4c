package ext3

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/blockdev"
)

// firstClearBitwise is the loop allocBlock and allocInode ran before the
// word-wise search, verbatim: the reference firstClear must agree with.
func firstClearBitwise(bm []byte, lo, hi int) int {
	for idx := lo; idx < hi; idx++ {
		if bm[idx/8]&(1<<uint(idx%8)) == 0 {
			return idx
		}
	}
	return -1
}

func setBit(bm []byte, i int)   { bm[i/8] |= 1 << uint(i%8) }
func clearBit(bm []byte, i int) { bm[i/8] &^= 1 << uint(i%8) }

// TestFirstClearMatchesBitLoop compares the word-wise search with the bit loop
// on every alignment class of (lo, hi) over bitmaps that are random, full, and
// full but for one bit placed in the unaligned head, in an aligned word, in
// the tail, at hi-1 and at hi (outside the range: must not be returned).
func TestFirstClearMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	bm := make([]byte, BlockSize)
	check := func(what string, lo, hi int) {
		t.Helper()
		if got, want := firstClear(bm, lo, hi), firstClearBitwise(bm, lo, hi); got != want {
			t.Fatalf("%s: firstClear(%d, %d) = %d, the bit loop finds %d", what, lo, hi, got, want)
		}
	}
	edges := []int{0, 1, 7, 8, 9, 63, 64, 65, 100, 127, 128, 129, 191, 192, 200, 4095, 4096, 8191, 8192, 8193, 32700, 32767, 32768}
	for _, lo := range edges {
		for _, hi := range edges {
			if hi < lo {
				continue
			}
			for i := range bm {
				bm[i] = 0xFF
			}
			check("full", lo, hi)
			// One clear bit at each place a boundary mistake would lose or
			// invent it; hi itself is outside the range.
			for _, at := range []int{lo - 1, lo, lo + 1, (lo + 63) &^ 63, (lo+63)&^63 + 64, hi &^ 63, hi - 2, hi - 1, hi, hi + 1} {
				if at < 0 || at >= 8*len(bm) {
					continue
				}
				clearBit(bm, at)
				check("one clear bit", lo, hi)
				if got := firstClear(bm, lo, hi); got >= 0 && (got < lo || got >= hi) {
					t.Fatalf("firstClear(%d, %d) = %d, outside the range", lo, hi, got)
				}
				setBit(bm, at)
			}
			// Random bitmaps, an eighth to 15/16 full, behind a long taken
			// run from lo on: the shape a grown file leaves.
			for ors := -2; ors <= 3; ors++ {
				for i := 0; i < len(bm); i += 8 {
					w := rng.Uint64()
					for k := ors; k < 0; k++ {
						w &= rng.Uint64()
					}
					for k := 0; k < ors; k++ {
						w |= rng.Uint64()
					}
					binary.LittleEndian.PutUint64(bm[i:], w)
				}
				for i, end := lo, lo+rng.Intn(700); i < hi && i < end; i++ {
					setBit(bm, i)
				}
				check("random", lo, hi)
			}
		}
	}
	for i := 0; i < 20000; i++ {
		for j := range bm[:64] {
			bm[j] = byte(rng.Intn(256)) | byte(rng.Intn(256)) | byte(rng.Intn(256))
		}
		lo := rng.Intn(512)
		check("random range", lo, lo+rng.Intn(513-lo))
	}
}

// BenchmarkAllocBlockBehindFullRun allocates with the goal at the start of a
// group whose first 6000 blocks are taken: what every 4 KB write to a file
// that already owns 6000 blocks of the group pays (file.WriteAt restarts the
// goal at the indirect block on each call). Each iteration allocates the
// first free block and frees it again, so the run stays 6000 long.
func BenchmarkAllocBlockBehindFullRun(b *testing.B) {
	dev := blockdev.NewTestbedArray(32768)
	if _, err := Mkfs(0, dev, Options{}); err != nil {
		b.Fatal(err)
	}
	fs, _, err := Mount(0, dev, Options{})
	if err != nil {
		b.Fatal(err)
	}
	goal := fs.groupStart(1)
	for i := 0; i < 6000; i++ {
		if _, _, err := fs.allocBlock(0, goal); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba, _, err := fs.allocBlock(0, goal)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fs.freeBlock(0, lba); err != nil {
			b.Fatal(err)
		}
	}
}
