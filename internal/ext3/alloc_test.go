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
// group whose first 6000 blocks are taken: the search every 4 KB write to a
// file that already owns 6000 blocks of the group asks for (file.WriteAt
// restarts the goal at the indirect block on each call), which the group's
// full run answers without rescanning them. Each iteration allocates the
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

// refAllocBlock is allocBlock's policy over the model bitmaps bms and free
// counts, with every search from scratch by firstClear: the block allocBlock
// must return, or -1 when it must find none.
func refAllocBlock(fs *FS, bms [][]byte, free []uint32, goal int64) int64 {
	n, bpg := len(bms), int(fs.sb.BlocksPerGroup)
	startGroup := 0
	if goal > 0 {
		if g := fs.blockGroup(goal); g >= 0 {
			startGroup = g
		}
	}
	for i := 0; i < n; i++ {
		g := (startGroup + i) % n
		if free[g] == 0 {
			continue
		}
		from := 0
		if goal > 0 && fs.blockGroup(goal) == g {
			if from = int(goal + 1 - fs.groupStart(g)); from < 0 || from >= bpg {
				from = 0
			}
		}
		idx := firstClear(bms[g], from, bpg)
		if idx < 0 {
			idx = firstClear(bms[g], 0, from)
		}
		if idx >= 0 {
			return fs.groupStart(g) + int64(idx)
		}
	}
	return -1
}

// FuzzAllocBlockMatchesScan runs allocBlock and freeBlock in any order, with
// any goal, on a three-group filesystem whose last group is short, and
// checks every allocation against refAllocBlock over a model of the bitmaps:
// the full runs the allocator keeps must never change the block it picks.
// Each op is three bytes: a kind and a 16-bit argument. Kind 0 and 1 allocate
// with a goal anywhere on the device (past it too), 2 with the goal of the
// previous allocation (a file growing from its indirect block), 3 behind the
// block last allocated (a contiguous file), 4 and 5 free an allocated block.
func FuzzAllocBlockMatchesScan(f *testing.F) {
	grow := func(n int, kind byte) []byte { // n allocations behind one goal
		var ops []byte
		for i := 0; i < n; i++ {
			ops = append(ops, kind, 0, 0)
		}
		return ops
	}
	seed := append([]byte{0, 0x02, 0x60}, grow(40, 2)...) // goal in group 0's data
	f.Add(seed)
	f.Add(append(append(append([]byte{}, seed...), 4, 0, 5, 4, 0, 17), grow(5, 2)...)) // frees inside the run
	f.Add(append(append([]byte{0, 0x04, 0x40}, grow(30, 3)...), append([]byte{4, 0, 0}, grow(4, 2)...)...))
	f.Add([]byte{1, 0xFF, 0xFF, 2, 0, 0, 0, 0, 0, 2, 0, 0, 5, 0, 1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const bpg, groups = 512, 3
		opts := Options{JournalBlocks: 64, BlocksPerGroup: bpg, InodesPerGroup: 64}
		dev := blockdev.NewTestbedArray(jStart + 64 + groups*bpg - 100)
		if _, err := Mkfs(0, dev, opts); err != nil {
			t.Fatal(err)
		}
		fs, _, err := Mount(0, dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		bms := make([][]byte, groups)
		for g := range bms {
			b, _, err := fs.bc.get(0, fs.groupStart(g), false)
			if err != nil {
				t.Fatal(err)
			}
			bms[g] = append([]byte(nil), b.data...)
		}
		free := append([]uint32(nil), fs.groupFreeBlocks...)
		var owned []int64
		goal, last := int64(0), int64(0)
		for i := 0; i+2 < len(ops); i += 3 {
			arg := int64(ops[i+1])<<8 | int64(ops[i+2])
			switch ops[i] % 6 {
			case 0, 1:
				goal = arg % (dev.NumBlocks() + 16)
			case 2:
			case 3:
				goal = last
			default:
				if len(owned) == 0 {
					continue
				}
				k := int(arg) % len(owned)
				lba := owned[k]
				owned[k] = owned[len(owned)-1]
				owned = owned[:len(owned)-1]
				if _, err := fs.freeBlock(0, lba); err != nil {
					t.Fatalf("op %d: free %d: %v", i/3, lba, err)
				}
				g := fs.blockGroup(lba)
				clearBit(bms[g], int(lba-fs.groupStart(g)))
				free[g]++
				continue
			}
			want := refAllocBlock(fs, bms, free, goal)
			got, _, err := fs.allocBlock(0, goal)
			if want < 0 {
				if err == nil {
					t.Fatalf("op %d: goal %d: allocated %d, the scan finds no free block", i/3, goal, got)
				}
				continue
			}
			if err != nil || got != want {
				t.Fatalf("op %d: goal %d: allocated %d (%v), the scan from scratch picks %d", i/3, goal, got, err, want)
			}
			g := fs.blockGroup(got)
			setBit(bms[g], int(got-fs.groupStart(g)))
			free[g]--
			owned = append(owned, got)
			last = got
		}
		for g := range bms {
			b := fs.bc.peek(fs.groupStart(g))
			if b == nil || string(b.data) != string(bms[g]) {
				t.Fatalf("group %d's bitmap differs from the model", g)
			}
		}
	})
}
