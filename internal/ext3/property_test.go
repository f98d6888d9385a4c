package ext3

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// TestQuickDirentPackUnpack: any set of short names packs into dirent
// blocks and scans back intact.
func TestQuickDirentPackUnpack(t *testing.T) {
	f := func(raw []uint8) bool {
		block := make([]byte, BlockSize)
		direntInitBlock(block, 2, 2)
		want := map[string]Ino{}
		for i, b := range raw {
			if i >= 40 {
				break
			}
			name := fmt.Sprintf("n%d-%d", i, b)
			ino := Ino(100 + i)
			if direntAdd(block, name, ino, ftRegular) {
				want[name] = ino
			}
		}
		ents, err := direntList(block)
		if err != nil {
			return false
		}
		got := map[string]Ino{}
		for _, e := range ents {
			if e.Name == "." || e.Name == ".." {
				continue
			}
			got[e.Name] = e.Ino
		}
		if len(got) != len(want) {
			return false
		}
		for n, ino := range want {
			if got[n] != ino {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDirentAddRemove: interleaved adds and removes keep the block
// scannable and consistent.
func TestQuickDirentAddRemove(t *testing.T) {
	f := func(ops []uint8) bool {
		block := make([]byte, BlockSize)
		direntInitBlock(block, 2, 2)
		live := map[string]bool{}
		for i, op := range ops {
			if i >= 60 {
				break
			}
			name := fmt.Sprintf("f%d", op%20)
			if op%3 == 0 {
				if direntRemove(block, name) != live[name] {
					return false // removal result disagreed with model
				}
				delete(live, name)
			} else if !live[name] {
				if direntAdd(block, name, Ino(3+int(op)), ftRegular) {
					live[name] = true
				}
			}
		}
		ents, err := direntList(block)
		if err != nil {
			return false
		}
		n := 0
		for _, e := range ents {
			if e.Name != "." && e.Name != ".." {
				if !live[e.Name] {
					return false
				}
				n++
			}
		}
		return n == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInodeEncode: inodes round-trip through their 128-byte slots.
func TestQuickInodeEncode(t *testing.T) {
	f := func(mode, links uint16, uid, gid, blocks, gen uint32, size uint64, a, m, c int64) bool {
		in := &inode{
			Mode: mode, Links: links, UID: uid, GID: gid,
			Size: size, Atime: a, Mtime: m, Ctime: c,
			Blocks: blocks, Gen: gen,
		}
		for i := range in.Direct {
			in.Direct[i] = uint32(i) * 7
		}
		in.Ind, in.DInd = 99, 101
		slot := make([]byte, InodeSize)
		encodeInode(in, slot)
		out := decodeInode(slot)
		return out == *in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// modelFile mirrors what the filesystem should contain.
type modelFile struct {
	data []byte
}

// TestRandomizedOpsAgainstModel drives random operations against the real
// filesystem and an in-memory model, verifying contents and errors agree,
// with a remount every 400 steps. It runs on the heap and on a pool that
// starts full of poisoned blocks and poisons every block the remounts and
// the store release: a recycled block taken for a zero one (the tail of a
// partial write, a hole, a grown file) or read after its owner gave it away
// is a byte the model does not have. The small caches add eviction: every
// operation evicts buffers it still holds (an indirect block across a bitmap
// fetch), so a victim recycled before the operation ends is handed to someone
// else while in use. About a third of the writes are block-aligned runs of one
// byte, zeros or not, which the caches hold as shared read-only blocks: later
// partial writes and truncates land inside them, and the shared blocks must
// come out of every run unwritten.
func TestRandomizedOpsAgainstModel(t *testing.T) {
	t.Run("heap", func(t *testing.T) { randomizedOpsAgainstModel(t, nil, 0) })
	for _, cacheBlocks := range []int{0, 12, 40} {
		name := "recycled"
		if cacheBlocks > 0 {
			name = fmt.Sprint("recycled-cache", cacheBlocks)
		}
		t.Run(name, func(t *testing.T) {
			pool := &blockdev.Pool{Poison: true}
			for i := 0; i < 1024; i++ {
				pool.Put(make([]byte, BlockSize))
			}
			randomizedOpsAgainstModel(t, pool, cacheBlocks)
		})
	}
	sharedIntact(t)
}

// uniformBlock reports whether file block fb of data is whole and one byte
// repeated.
func uniformBlock(data []byte, fb int) bool {
	if (fb+1)*BlockSize > len(data) {
		return false
	}
	b := data[fb*BlockSize : (fb+1)*BlockSize]
	return bytes.Count(b, b[:1]) == BlockSize
}

func randomizedOpsAgainstModel(t *testing.T, pool *blockdev.Pool, cacheBlocks int) {
	dev := blockdev.NewTestbedArray(32768)
	dev.Store().SetPool(pool)
	opts := Options{Pool: pool, CacheBlocks: cacheBlocks}
	if _, err := Mkfs(0, dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, _, err := Mount(0, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(12345)
	// shape draws which writes are uniform runs, so rng draws what it always
	// did and the mixed-data cases stay as they were.
	shape := sim.NewRNG(54321)
	landed := 0 // partial writes and truncates inside a uniform block
	model := map[string]*modelFile{}
	// /big is only written and read, at offsets past its direct blocks: its
	// indirect block is what an operation holds across other fetches. It is
	// never freed: the journal has no revoke records (ROADMAP, "The journal
	// is right by enumeration").
	names := []string{"/a", "/b", "/c", "/d", "/e", "/big"}
	at := time.Duration(0)
	if _, at, err = fs.Create(at, "/big", 0o644); err != nil {
		t.Fatal(err)
	}
	model["/big"] = &modelFile{}
	for step := 0; step < 2000; step++ {
		if step%400 == 399 {
			if at, err = fs.Unmount(at); err != nil {
				t.Fatalf("step %d unmount: %v", step, err)
			}
			if fs, at, err = Mount(at, dev, opts); err != nil {
				t.Fatalf("step %d remount: %v", step, err)
			}
		}
		name := names[rng.Intn(len(names))]
		op, span := rng.Intn(5), 20000
		if name == "/big" {
			op, span = 1+op%2, 140000
		}
		switch op {
		case 0: // create/truncate
			f, d2, err := fs.Create(at, name, 0o644)
			if err != nil {
				t.Fatalf("step %d create %s: %v", step, name, err)
			}
			at = d2
			model[name] = &modelFile{}
			_ = f
		case 1: // write
			mf := model[name]
			if mf == nil {
				continue
			}
			f, d2, err := fs.Open(at, name)
			if err != nil {
				t.Fatalf("step %d open %s: %v", step, name, err)
			}
			at = d2
			off := rng.Intn(span)
			n := rng.Intn(9000) + 1
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Intn(256))
			}
			if shape.Intn(3) == 0 {
				// A run of whole blocks of one byte, zeros half the time.
				end := (off + n + BlockSize - 1) / BlockSize * BlockSize
				off -= off % BlockSize
				n = end - off
				data = bytes.Repeat([]byte{byte(shape.Intn(2) * (1 + shape.Intn(255)))}, n)
			} else if off%BlockSize != 0 && uniformBlock(mf.data, off/BlockSize) ||
				(off+n)%BlockSize != 0 && uniformBlock(mf.data, (off+n)/BlockSize) {
				landed++
			}
			if _, d3, err := f.WriteAt(at, int64(off), data); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			} else {
				at = d3
			}
			if need := off + n; need > len(mf.data) {
				mf.data = append(mf.data, make([]byte, need-len(mf.data))...)
			}
			copy(mf.data[off:], data)
		case 2: // read and compare
			mf := model[name]
			if mf == nil {
				if _, _, err := fs.Open(at, name); err != vfs.ErrNotExist {
					t.Fatalf("step %d: model says %s absent, fs says %v", step, name, err)
				}
				continue
			}
			f, d2, err := fs.Open(at, name)
			if err != nil {
				t.Fatalf("step %d open %s: %v", step, name, err)
			}
			at = d2
			buf := make([]byte, len(mf.data))
			n, d3, err := f.ReadAt(at, 0, buf)
			if err != nil {
				t.Fatalf("step %d read: %v", step, err)
			}
			at = d3
			if n != len(mf.data) {
				t.Fatalf("step %d: read %d of %d bytes of %s", step, n, len(mf.data), name)
			}
			for i := range buf[:n] {
				if buf[i] != mf.data[i] {
					t.Fatalf("step %d: %s byte %d = %d, model %d", step, name, i, buf[i], mf.data[i])
				}
			}
		case 3: // unlink
			_, err := fs.Unlink(at, name)
			if model[name] == nil {
				if err != vfs.ErrNotExist {
					t.Fatalf("step %d unlink absent %s: %v", step, name, err)
				}
			} else if err != nil {
				t.Fatalf("step %d unlink %s: %v", step, name, err)
			}
			delete(model, name)
			checkInodeReuse(t, fs)
		case 4: // truncate
			mf := model[name]
			if mf == nil {
				continue
			}
			size := rng.Intn(25000)
			if size%BlockSize != 0 && uniformBlock(mf.data, size/BlockSize) {
				landed++
			}
			if _, err := fs.Truncate(at, name, int64(size)); err != nil {
				t.Fatalf("step %d truncate: %v", step, err)
			}
			if size <= len(mf.data) {
				mf.data = mf.data[:size]
			} else {
				mf.data = append(mf.data, make([]byte, size-len(mf.data))...)
			}
		}
	}
	if landed == 0 {
		t.Fatal("no partial write or truncate landed inside a uniform block")
	}
	// Free-space invariant: unlinking everything returns to the baseline.
	for name := range model {
		if _, err := fs.Unlink(at, name); err != nil {
			t.Fatalf("final unlink %s: %v", name, err)
		}
	}
	if _, err := fs.Sync(at); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryAtArbitraryPoints performs batches of operations with
// syncs at random points, crashes, remounts, and verifies that everything
// synced before the crash survived.
func TestCrashRecoveryAtArbitraryPoints(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		dev := blockdev.NewTestbedArray(32768)
		if _, err := Mkfs(0, dev, Options{}); err != nil {
			t.Fatal(err)
		}
		fs, _, err := Mount(0, dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(int64(7000 + trial))
		at := time.Duration(0)
		synced := map[string]bool{}
		unsynced := map[string]bool{}
		nOps := 10 + rng.Intn(40)
		for i := 0; i < nOps; i++ {
			name := fmt.Sprintf("/t%d-f%d", trial, i)
			if _, err := fs.Mkdir(at, name, 0o755); err != nil {
				t.Fatalf("mkdir %s: %v", name, err)
			}
			unsynced[name] = true
			if rng.Intn(4) == 0 {
				d2, err := fs.Sync(at)
				if err != nil {
					t.Fatalf("sync: %v", err)
				}
				at = d2
				for n := range unsynced {
					synced[n] = true
					delete(unsynced, n)
				}
			}
		}
		fs.Crash()
		fs2, _, err := Mount(0, dev, Options{})
		if err != nil {
			t.Fatalf("trial %d recovery mount: %v", trial, err)
		}
		for name := range synced {
			if _, _, err := fs2.Stat(0, name); err != nil {
				t.Fatalf("trial %d: synced %s lost after crash: %v", trial, name, err)
			}
		}
		// Unsynced entries may or may not survive (a background commit may
		// have fired); what matters is the filesystem is consistent:
		ents, _, err := fs2.ReadDir(0, "/")
		if err != nil {
			t.Fatalf("trial %d: root unreadable after recovery: %v", trial, err)
		}
		for _, e := range ents {
			if _, _, err := fs2.Stat(0, "/"+e.Name); err != nil {
				t.Fatalf("trial %d: dangling entry %s: %v", trial, e.Name, err)
			}
		}
	}
}

// TestJournalWrapForcesCheckpoint fills the journal past its capacity and
// verifies commits keep succeeding (checkpointing reclaims space) and data
// stays intact across a remount.
func TestJournalWrapForcesCheckpoint(t *testing.T) {
	dev := blockdev.NewTestbedArray(32768)
	if _, err := Mkfs(0, dev, Options{JournalBlocks: 64}); err != nil {
		t.Fatal(err)
	}
	fs, _, err := Mount(0, dev, Options{JournalBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Duration(0)
	for i := 0; i < 200; i++ {
		if _, err := fs.Mkdir(at, fmt.Sprintf("/w%d", i), 0o755); err != nil {
			t.Fatalf("mkdir %d: %v", i, err)
		}
		if i%5 == 4 {
			d2, err := fs.Sync(at)
			if err != nil {
				t.Fatalf("sync %d: %v", i, err)
			}
			at = d2
		}
	}
	_, checkpoints := fs.journalStats()
	if checkpoints == 0 {
		t.Fatal("tiny journal never checkpointed")
	}
	if _, err := fs.Unmount(at); err != nil {
		t.Fatal(err)
	}
	fs2, _, err := Mount(0, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, _, err := fs2.Stat(0, fmt.Sprintf("/w%d", i)); err != nil {
			t.Fatalf("dir %d lost after journal wrap: %v", i, err)
		}
	}
}
