package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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

// zeroRefs is a run of references to the shared block of zeros, the run a
// format writes over a journal.
var zeroRefs = func() (run [64][]byte) {
	for i := range run {
		run[i] = shared[0][:]
	}
	return run
}()

// writeJoined is the reference the write path is held to: the run's bytes
// joined into one buffer, the checks every write makes (an injected failure,
// no whole number of blocks, past the device), each block stored with
// Store.WriteAt, then one request to the array.
func writeJoined(l *Local, at time.Duration, lba int64, blocks [][]byte) (time.Duration, error) {
	data := bytes.Join(blocks, nil)
	n := len(data) / BlockSize
	switch {
	case l.FailWrites:
		return at, errors.New("injected failure")
	case len(data)%BlockSize != 0:
		return at, errors.New("not whole blocks")
	case lba < 0 || lba+int64(n) > l.NumBlocks():
		return at, errors.New("past the device")
	}
	for i := 0; i < n; i++ {
		if err := l.store.WriteAt(lba+int64(i), data[i*BlockSize:(i+1)*BlockSize]); err != nil {
			return at, err
		}
	}
	return l.raid.Write(at, l.offset+lba, n)
}

// FuzzWriteRunMatchesWriteBlocks holds WriteRun of a run of blocks by
// reference, and the WriteBlocks wrapper of their concatenation, to
// writeJoined on twin LUNs: the same errors, completion time and array
// counters, the same store content, the same Populated and pool Len, over
// shared, private, uniform-but-private and short final blocks, runs of
// references to the shared zero block over every kind of block, injected
// failures, runs past either end and a released store. WriteRun compares
// every block but a shared one, which the store keeps as itself, and keeps no
// private block: poisoning the blocks afterwards changes nothing it holds.
func FuzzWriteRunMatchesWriteBlocks(f *testing.F) {
	f.Add([]byte{10, 4, 0, 1, 2, 3, 1})                                 // one of each whole kind
	f.Add([]byte{20, 3, 2, 2, 4, 20, 2, 0, 0, 0})                       // a short last block, then shared over private
	f.Add([]byte{250, 6, 0, 0, 0, 0, 0, 0, 0, 1, 3, 3, 3})              // past the end, then a run from 0
	f.Add([]byte{5, 3, 3, 2, 2, 0x85, 5, 1, 3, 1, 0, 0})                // a failure injected
	f.Add([]byte{6, 6, 2, 3, 2, 0, 2, 3, 1, 0xBF, 0x7E, 0x87, 0, 0x81}) // zeros over private and constant blocks, past either end
	f.Add([]byte{3, 3, 0, 2, 3, 2, 0xC4, 5, 0x87})                      // zeros after a release
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
		twins := [3]twin{mk(), mk(), mk()} // writeJoined, WriteRun, WriteBlocks
		var at time.Duration
		released := false
		got, want := make([]byte, BlockSize), make([]byte, BlockSize)
		for len(ops) >= 2 {
			// One op: lba (0x80 set: the writes fail), then the run. Its
			// byte's top bits pick: 0 or 1, n%7 blocks of the kinds that
			// follow; 2, 1 to 64 references to the shared zero block; 3,
			// release the stores first, then as 0.
			lba, fail := int64(ops[0]&0x7F)*2-2, ops[0]&0x80 != 0
			var blocks [][]byte
			if form := ops[1] >> 6; form == 2 {
				blocks, ops = zeroRefs[:ops[1]&0x3F+1], ops[2:]
			} else {
				if form == 3 && !released {
					for _, d := range twins {
						d.Store().Release()
					}
					released = true
				}
				kinds := ops[2:min(2+int(ops[1]%7), len(ops))]
				blocks, ops = runBlocks(kinds, byte(lba)), ops[2+len(kinds):]
			}
			var done [3]time.Duration
			var errs [3]error
			var compares [3]int
			for i, d := range twins {
				d.FailWrites = fail
				compares[i] = countCompares(func() {
					switch i {
					case 0:
						done[i], errs[i] = writeJoined(d.Local, at, lba, blocks)
					case 1:
						done[i], errs[i] = d.WriteRun(at, lba, blocks)
					case 2:
						done[i], errs[i] = d.WriteBlocks(at, lba, bytes.Join(blocks, nil))
					}
				})
			}
			what := fmt.Sprintf("run of %d at %d (fail %v, released %v)", len(blocks), lba, fail, released)
			if (errs[0] == nil) != (errs[1] == nil) || fmt.Sprint(errs[1]) != fmt.Sprint(errs[2]) || done[0] != done[1] || done[1] != done[2] {
				t.Fatalf("%s: writeJoined done %v err %v, WriteRun done %v err %v, WriteBlocks done %v err %v",
					what, done[0], errs[0], done[1], errs[1], done[2], errs[2])
			}
			at = done[0]
			if errs[0] == nil {
				sharedBlocks := 0
				for i, b := range blocks {
					if isShared(b) {
						sharedBlocks++
					}
					if kept := holds(twins[1].Store(), lba+int64(i), b); kept != (isShared(b) && b[0] != 0) {
						t.Fatalf("%s: block %d kept by reference: %v", what, i, kept)
					}
				}
				if compares[1] != compares[0]-sharedBlocks || compares[2] != compares[0] {
					t.Fatalf("%s: %d compares by reference and %d by WriteBlocks, %d for the joined run with %d shared blocks",
						what, compares[1], compares[2], compares[0], sharedBlocks)
				}
			}
			for _, b := range blocks {
				if !isShared(b) {
					for i := range b {
						b[i] = 0xEE
					}
				}
			}
			ref := twins[0]
			for _, d := range twins[1:] {
				if sa, sb := ref.Stats(), d.Stats(); sa != sb {
					t.Fatalf("%s: array counters %+v against %+v", what, sa, sb)
				}
				if ref.Store().Populated() != d.Store().Populated() || ref.pool.Len() != d.pool.Len() {
					t.Fatalf("%s: store holds %d / %d blocks, pool %d / %d", what,
						ref.Store().Populated(), d.Store().Populated(), ref.pool.Len(), d.pool.Len())
				}
				for b := max(lba, 0); !released && b < min(lba+int64(len(blocks)), 256); b++ {
					if err := ref.Store().ReadAt(b, want); err != nil {
						t.Fatal(err)
					}
					if err := d.Store().ReadAt(b, got); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: block %d differs", what, b)
					}
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

// FuzzCutIsARun: whatever the data and its offset (not negative), Cut's
// pieces join into the data, each lies within one block and all but the
// last run to the end of theirs, and CutSize accepts them with the data's
// length. CutSize refuses the same pieces with one of them emptied, one of
// them reaching past its block, one before the last cut short, or at a
// negative offset.
func FuzzCutIsARun(f *testing.F) {
	f.Add(int64(0), []byte{}, uint(0))
	f.Add(int64(1), ramp[:BlockSize+2], uint(1))
	f.Add(int64(BlockSize-1), append(ramp[:], ramp[:]...), uint(2))
	f.Add(int64(3*BlockSize+5), ramp[:300], uint(0))
	f.Add(int64(-7), ramp[:BlockSize], uint(3))
	f.Fuzz(func(t *testing.T, off int64, data []byte, pick uint) {
		if off < 0 {
			off = ^off
		}
		off %= 1 << 48 // no overflow past the data's end
		pieces := Cut(nil, off, data)
		if !bytes.Equal(bytes.Join(pieces, nil), data) {
			t.Fatalf("at %d: the pieces do not join into the data", off)
		}
		start := off
		for i, p := range pieces {
			end := start + int64(len(p))
			if len(p) == 0 || (end-1)/BlockSize != start/BlockSize || i < len(pieces)-1 && end%BlockSize != 0 {
				t.Fatalf("at %d: piece %d covers %d to %d, not one block to its end", off, i, start, end)
			}
			start = end
		}
		if n, ok := CutSize(off, pieces); !ok || n != len(data) {
			t.Fatalf("at %d: CutSize of the cut of %d bytes is %d, %v", off, len(data), n, ok)
		}
		if _, ok := CutSize(^off, pieces); ok {
			t.Fatalf("at %d: the cut accepted at %d", off, ^off)
		}
		if len(pieces) == 0 {
			return
		}
		i := int(pick % uint(len(pieces)))
		room := BlockSize
		if i == 0 {
			room -= int(off % BlockSize)
		}
		broken := map[string][]byte{"emptied": {}, "past its block": make([]byte, room+1)}
		if i < len(pieces)-1 {
			broken["cut short"] = pieces[i][:len(pieces[i])-1]
		}
		for what, p := range broken {
			run := slices.Clone(pieces)
			run[i] = p
			if _, ok := CutSize(off, run); ok {
				t.Fatalf("at %d: piece %d of %d %s accepted", off, i, len(pieces), what)
			}
		}
	})
}
