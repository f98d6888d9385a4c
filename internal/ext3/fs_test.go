package ext3

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/vfs"
)

// newTestFS builds a small filesystem on an untimed in-memory device.
func newTestFS(t *testing.T) (*FS, *blockdev.Local) {
	t.Helper()
	dev := blockdev.NewTestbedArray(32768) // 128 MB logical is plenty
	if _, err := Mkfs(0, dev, Options{}); err != nil {
		t.Fatalf("mkfs: %v", err)
	}
	fs, _, err := Mount(0, dev, Options{})
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	return fs, dev
}

func TestMkfsMountEmptyRoot(t *testing.T) {
	fs, _ := newTestFS(t)
	st, _, err := fs.Stat(0, "/")
	if err != nil {
		t.Fatalf("stat /: %v", err)
	}
	if !st.Mode.IsDir() {
		t.Fatalf("root is not a directory: mode=%#x", st.Mode)
	}
	if st.Nlink != 2 {
		t.Fatalf("root nlink = %d, want 2", st.Nlink)
	}
	ents, _, err := fs.ReadDir(0, "/")
	if err != nil {
		t.Fatalf("readdir /: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("fresh root not empty: %v", ents)
	}
}

func TestMkdirStatReaddir(t *testing.T) {
	fs, _ := newTestFS(t)
	if _, err := fs.Mkdir(0, "/a", 0o755); err != nil {
		t.Fatalf("mkdir /a: %v", err)
	}
	if _, err := fs.Mkdir(0, "/a/b", 0o755); err != nil {
		t.Fatalf("mkdir /a/b: %v", err)
	}
	if _, err := fs.Mkdir(0, "/a", 0o755); err != vfs.ErrExist {
		t.Fatalf("mkdir existing: got %v, want ErrExist", err)
	}
	if _, err := fs.Mkdir(0, "/missing/x", 0o755); err != vfs.ErrNotExist {
		t.Fatalf("mkdir under missing: got %v, want ErrNotExist", err)
	}
	st, _, err := fs.Stat(0, "/a/b")
	if err != nil || !st.Mode.IsDir() {
		t.Fatalf("stat /a/b: %v mode=%#x", err, st.Mode)
	}
	// Parent link count grew.
	st, _, _ = fs.Stat(0, "/a")
	if st.Nlink != 3 {
		t.Fatalf("nlink(/a) = %d, want 3", st.Nlink)
	}
	ents, _, err := fs.ReadDir(0, "/a")
	if err != nil || len(ents) != 1 || ents[0].Name != "b" {
		t.Fatalf("readdir /a: %v %v", ents, err)
	}
}

func TestCreateWriteReadBack(t *testing.T) {
	fs, _ := newTestFS(t)
	f, _, err := fs.Create(0, "/f.txt", 0o644)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	payload := bytes.Repeat([]byte("storage! "), 1000) // 9 KB: spans blocks
	if n, _, err := f.WriteAt(0, 0, payload); err != nil || n != len(payload) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	got := make([]byte, len(payload))
	if n, _, err := f.ReadAt(0, 0, got); err != nil || n != len(payload) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back mismatch")
	}
	// Offset read.
	part := make([]byte, 100)
	if _, _, err := f.ReadAt(0, 4090, part); err != nil {
		t.Fatalf("offset read: %v", err)
	}
	if !bytes.Equal(part, payload[4090:4190]) {
		t.Fatal("offset read mismatch")
	}
	st, _, _ := fs.Stat(0, "/f.txt")
	if st.Size != int64(len(payload)) {
		t.Fatalf("size = %d, want %d", st.Size, len(payload))
	}
}

func TestLargeFileIndirect(t *testing.T) {
	fs, _ := newTestFS(t)
	f, _, err := fs.Create(0, "/big", 0o644)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// 6 MB: exercises direct, single and double indirect blocks.
	const size = 6 << 20
	chunk := make([]byte, 64<<10)
	for i := range chunk {
		chunk[i] = byte(i * 7)
	}
	at := time.Duration(0)
	for off := int64(0); off < size; off += int64(len(chunk)) {
		var err error
		_, at, err = f.WriteAt(at, off, chunk)
		if err != nil {
			t.Fatalf("write @%d: %v", off, err)
		}
	}
	st, _, _ := fs.Stat(at, "/big")
	if st.Size != size {
		t.Fatalf("size = %d, want %d", st.Size, size)
	}
	// Spot-check across regions.
	for _, off := range []int64{0, 40 << 10, 100 << 10, 5 << 20, size - 1000} {
		got := make([]byte, 1000)
		if _, at, err = f.ReadAt(at, off, got); err != nil {
			t.Fatalf("read @%d: %v", off, err)
		}
		want := make([]byte, 1000)
		for i := range want {
			want[i] = byte((int(off)%len(chunk) + i) % len(chunk) * 7)
		}
		for i := range got {
			exp := byte(((int(off) + i) % len(chunk)) * 7)
			if got[i] != exp {
				t.Fatalf("byte mismatch at %d+%d: got %d want %d", off, i, got[i], exp)
			}
		}
	}
}

func TestSparseFileHolesReadZero(t *testing.T) {
	fs, _ := newTestFS(t)
	f, _, _ := fs.Create(0, "/sparse", 0o644)
	if _, _, err := f.WriteAt(0, 1<<20, []byte("end")); err != nil {
		t.Fatalf("sparse write: %v", err)
	}
	buf := make([]byte, 4096)
	if _, _, err := f.ReadAt(0, 0, buf); err != nil {
		t.Fatalf("hole read: %v", err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("hole byte %d = %d, want 0", i, b)
		}
	}
	tail := make([]byte, 3)
	f.ReadAt(0, 1<<20, tail)
	if string(tail) != "end" {
		t.Fatalf("tail = %q", tail)
	}
}

func TestUnlinkFreesSpace(t *testing.T) {
	fs, _ := newTestFS(t)
	freeB, freeI := fs.FreeBlocks(), fs.FreeInodes()
	f, _, _ := fs.Create(0, "/dead", 0o644)
	f.WriteAt(0, 0, make([]byte, 100<<10))
	if _, err := fs.Unlink(0, "/dead"); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	if _, _, err := fs.Stat(0, "/dead"); err != vfs.ErrNotExist {
		t.Fatalf("stat after unlink: %v", err)
	}
	if fs.FreeBlocks() != freeB {
		t.Fatalf("blocks leaked: %d -> %d", freeB, fs.FreeBlocks())
	}
	if fs.FreeInodes() != freeI {
		t.Fatalf("inodes leaked: %d -> %d", freeI, fs.FreeInodes())
	}
}

func TestRenameBasicAndReplace(t *testing.T) {
	fs, _ := newTestFS(t)
	f, _, _ := fs.Create(0, "/one", 0o644)
	f.WriteAt(0, 0, []byte("payload-one"))
	fs.Mkdir(0, "/d", 0o755)
	if _, err := fs.Rename(0, "/one", "/d/two"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if _, _, err := fs.Stat(0, "/one"); err != vfs.ErrNotExist {
		t.Fatalf("old name survives: %v", err)
	}
	g, _, err := fs.Open(0, "/d/two")
	if err != nil {
		t.Fatalf("open new name: %v", err)
	}
	buf := make([]byte, 11)
	g.ReadAt(0, 0, buf)
	if string(buf) != "payload-one" {
		t.Fatalf("content after rename: %q", buf)
	}
	// Replace an existing file.
	h, _, _ := fs.Create(0, "/three", 0o644)
	h.WriteAt(0, 0, []byte("payload-three"))
	if _, err := fs.Rename(0, "/three", "/d/two"); err != nil {
		t.Fatalf("rename replace: %v", err)
	}
	g2, _, _ := fs.Open(0, "/d/two")
	buf = make([]byte, 13)
	g2.ReadAt(0, 0, buf)
	if string(buf) != "payload-three" {
		t.Fatalf("content after replace: %q", buf)
	}
}

func TestRenameDirectoryAcrossParents(t *testing.T) {
	fs, _ := newTestFS(t)
	fs.Mkdir(0, "/p1", 0o755)
	fs.Mkdir(0, "/p2", 0o755)
	fs.Mkdir(0, "/p1/sub", 0o755)
	fs.Create(0, "/p1/sub/file", 0o644)
	if _, err := fs.Rename(0, "/p1/sub", "/p2/moved"); err != nil {
		t.Fatalf("rename dir: %v", err)
	}
	if _, _, err := fs.Stat(0, "/p2/moved/file"); err != nil {
		t.Fatalf("moved content missing: %v", err)
	}
	st1, _, _ := fs.Stat(0, "/p1")
	st2, _, _ := fs.Stat(0, "/p2")
	if st1.Nlink != 2 || st2.Nlink != 3 {
		t.Fatalf("parent nlinks after move: p1=%d p2=%d", st1.Nlink, st2.Nlink)
	}
}

func TestSymlinkReadlinkFollow(t *testing.T) {
	fs, _ := newTestFS(t)
	fs.Mkdir(0, "/real", 0o755)
	f, _, _ := fs.Create(0, "/real/data", 0o644)
	f.WriteAt(0, 0, []byte("via-link"))
	if _, err := fs.Symlink(0, "/real", "/lnk"); err != nil {
		t.Fatalf("symlink: %v", err)
	}
	target, _, err := fs.Readlink(0, "/lnk")
	if err != nil || target != "/real" {
		t.Fatalf("readlink: %q %v", target, err)
	}
	g, _, err := fs.Open(0, "/lnk/data")
	if err != nil {
		t.Fatalf("open through symlink: %v", err)
	}
	buf := make([]byte, 8)
	g.ReadAt(0, 0, buf)
	if string(buf) != "via-link" {
		t.Fatalf("content through symlink: %q", buf)
	}
	// Relative symlink.
	fs.Symlink(0, "data", "/real/rel")
	g2, _, err := fs.Open(0, "/real/rel")
	if err != nil {
		t.Fatalf("open relative symlink: %v", err)
	}
	g2.ReadAt(0, 0, buf)
	if string(buf) != "via-link" {
		t.Fatalf("content through relative symlink: %q", buf)
	}
}

func TestHardLinkSharesInode(t *testing.T) {
	fs, _ := newTestFS(t)
	f, _, _ := fs.Create(0, "/orig", 0o644)
	f.WriteAt(0, 0, []byte("shared"))
	if _, err := fs.Link(0, "/orig", "/alias"); err != nil {
		t.Fatalf("link: %v", err)
	}
	s1, _, _ := fs.Stat(0, "/orig")
	s2, _, _ := fs.Stat(0, "/alias")
	if s1.Ino != s2.Ino {
		t.Fatalf("inos differ: %d %d", s1.Ino, s2.Ino)
	}
	if s1.Nlink != 2 {
		t.Fatalf("nlink = %d, want 2", s1.Nlink)
	}
	fs.Unlink(0, "/orig")
	if _, _, err := fs.Open(0, "/alias"); err != nil {
		t.Fatalf("alias died with original: %v", err)
	}
	s2, _, _ = fs.Stat(0, "/alias")
	if s2.Nlink != 1 {
		t.Fatalf("nlink after unlink = %d, want 1", s2.Nlink)
	}
}

func TestTruncateShrinkGrow(t *testing.T) {
	fs, _ := newTestFS(t)
	f, _, _ := fs.Create(0, "/t", 0o644)
	f.WriteAt(0, 0, bytes.Repeat([]byte{0xAB}, 20<<10))
	if _, err := fs.Truncate(0, "/t", 5000); err != nil {
		t.Fatalf("truncate shrink: %v", err)
	}
	st, _, _ := fs.Stat(0, "/t")
	if st.Size != 5000 {
		t.Fatalf("size after shrink = %d", st.Size)
	}
	if _, err := fs.Truncate(0, "/t", 100<<10); err != nil {
		t.Fatalf("truncate grow: %v", err)
	}
	buf := make([]byte, 10)
	f.ReadAt(0, 50<<10, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatalf("grown region not zero: %v", buf)
		}
	}
}

func TestPersistenceAcrossRemount(t *testing.T) {
	fs, dev := newTestFS(t)
	fs.Mkdir(0, "/keep", 0o755)
	f, _, _ := fs.Create(0, "/keep/file", 0o644)
	f.WriteAt(0, 0, []byte("durable bytes"))
	fs.Chmod(0, "/keep/file", 0o600)
	if _, err := fs.Unmount(0); err != nil {
		t.Fatalf("unmount: %v", err)
	}
	fs2, _, err := Mount(0, dev, Options{})
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	st, _, err := fs2.Stat(0, "/keep/file")
	if err != nil {
		t.Fatalf("stat after remount: %v", err)
	}
	if st.Mode.Perm() != 0o600 || st.Size != 13 {
		t.Fatalf("attrs lost: mode=%o size=%d", st.Mode.Perm(), st.Size)
	}
	g, _, _ := fs2.Open(0, "/keep/file")
	buf := make([]byte, 13)
	g.ReadAt(0, 0, buf)
	if string(buf) != "durable bytes" {
		t.Fatalf("content lost: %q", buf)
	}
}

func TestCrashLosesUncommitted(t *testing.T) {
	fs, dev := newTestFS(t)
	// Committed work: survives.
	fs.Mkdir(0, "/committed", 0o755)
	if _, err := fs.Sync(0); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// Uncommitted work after the sync: lost at crash (the reliability
	// trade-off of asynchronous meta-data updates, paper Section 2.3).
	fs.Mkdir(time.Second, "/uncommitted", 0o755)
	fs.Crash()
	fs2, _, err := Mount(0, dev, Options{})
	if err != nil {
		t.Fatalf("mount after crash: %v", err)
	}
	if _, _, err := fs2.Stat(0, "/committed"); err != nil {
		t.Fatalf("committed dir lost: %v", err)
	}
	if _, _, err := fs2.Stat(0, "/uncommitted"); err != vfs.ErrNotExist {
		t.Fatalf("uncommitted dir survived crash: %v", err)
	}
}

func TestCrashDuringCommitDiscardsTxn(t *testing.T) {
	fs, dev := newTestFS(t)
	fs.Mkdir(0, "/before", 0o755)
	fs.Sync(0)
	fs.Mkdir(time.Second, "/during", 0o755)
	fs.injectCrashDuringCommit(true)
	if _, err := fs.Sync(2 * time.Second); err != errCrashed {
		t.Fatalf("expected injected crash, got %v", err)
	}
	fs.Crash()
	fs2, _, err := Mount(0, dev, Options{})
	if err != nil {
		t.Fatalf("mount after torn commit: %v", err)
	}
	if _, _, err := fs2.Stat(0, "/before"); err != nil {
		t.Fatalf("old committed state lost: %v", err)
	}
	if _, _, err := fs2.Stat(0, "/during"); err != vfs.ErrNotExist {
		t.Fatalf("torn transaction replayed: %v", err)
	}
}

func TestCommitAggregatesMetadataUpdates(t *testing.T) {
	fs, dev := newTestFS(t)
	fs.Sync(0)
	before := dev.Stats()
	// Many updates to the same meta-data blocks within one interval.
	at := time.Duration(0)
	for i := 0; i < 100; i++ {
		var err error
		at, err = fs.Chmod(at, "/", vfs.Mode(0o700+i%8))
		if err != nil {
			t.Fatalf("chmod %d: %v", i, err)
		}
	}
	fs.Sync(at)
	writes := dev.Stats().Sub(before).Writes
	// One journal body + one commit record (+ maybe a data flush): the
	// hundred updates aggregate into a single transaction.
	if writes > 4 {
		t.Fatalf("update aggregation failed: %d writes for 100 updates", writes)
	}
}

func TestRmdirRejectsNonEmpty(t *testing.T) {
	fs, _ := newTestFS(t)
	fs.Mkdir(0, "/d", 0o755)
	fs.Create(0, "/d/f", 0o644)
	if _, err := fs.Rmdir(0, "/d"); err != vfs.ErrNotEmpty {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	fs.Unlink(0, "/d/f")
	if _, err := fs.Rmdir(0, "/d"); err != nil {
		t.Fatalf("rmdir empty: %v", err)
	}
}

func TestManyFilesInDirectory(t *testing.T) {
	fs, _ := newTestFS(t)
	fs.Mkdir(0, "/big", 0o755)
	// Enough entries to force directory growth past one block.
	names := make([]string, 300)
	for i := range names {
		names[i] = "/big/file-with-a-longish-name-" + itoa(i)
		if _, _, err := fs.Create(0, names[i], 0o644); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	ents, _, err := fs.ReadDir(0, "/big")
	if err != nil || len(ents) != 300 {
		t.Fatalf("readdir big: n=%d err=%v", len(ents), err)
	}
	st, _, _ := fs.Stat(0, "/big")
	if st.Size <= BlockSize {
		t.Fatalf("directory did not grow: size=%d", st.Size)
	}
	// Remove every other entry, then verify lookups.
	for i := 0; i < 300; i += 2 {
		if _, err := fs.Unlink(0, names[i]); err != nil {
			t.Fatalf("unlink %d: %v", i, err)
		}
	}
	for i := 0; i < 300; i++ {
		_, _, err := fs.Stat(0, names[i])
		if i%2 == 0 && err != vfs.ErrNotExist {
			t.Fatalf("deleted entry %d still resolves: %v", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("surviving entry %d lost: %v", i, err)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestMkfsOverDirtyJournalReplaysNothing is the property Mkfs zeroes the
// journal for: a committed transaction left by an earlier filesystem on the
// same device must never replay into a new one. The zero blocks Mkfs writes
// have to land on the device even though the store keeps no zero blocks.
func TestMkfsOverDirtyJournalReplaysNothing(t *testing.T) {
	fs, dev := newTestFS(t)
	if _, err := fs.Mkdir(0, "/old", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Sync(0); err != nil { // transaction 1, at the journal's start
		t.Fatal(err)
	}
	fs.Crash()
	blk := make([]byte, BlockSize)
	if _, err := dev.ReadBlocks(0, jStart, blk); err != nil || bytes.Equal(blk, make([]byte, BlockSize)) {
		t.Fatalf("no journal record left to go stale (err=%v)", err)
	}

	if _, err := Mkfs(0, dev, Options{}); err != nil {
		t.Fatalf("second mkfs: %v", err)
	}
	for off := int64(0); off < 2048; off++ {
		if _, err := dev.ReadBlocks(0, jStart+off, blk); err != nil || !bytes.Equal(blk, make([]byte, BlockSize)) {
			t.Fatalf("journal block %d not zero after mkfs (err=%v)", off, err)
		}
	}
	// The new filesystem's first recovery expects transaction 1 too: crash
	// it with nothing committed and recover.
	fs2, _, err := Mount(0, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	freeB, freeI := fs2.FreeBlocks(), fs2.FreeInodes()
	fs2.Crash()
	fs3, _, err := Mount(0, dev, Options{})
	if err != nil {
		t.Fatalf("mount after crash: %v", err)
	}
	if _, _, err := fs3.Stat(0, "/old"); err != vfs.ErrNotExist {
		t.Fatalf("stale transaction replayed: stat /old = %v", err)
	}
	if ents, _, err := fs3.ReadDir(0, "/"); err != nil || len(ents) != 0 {
		t.Fatalf("root not empty after recovery: %v %v", ents, err)
	}
	if fs3.FreeBlocks() != freeB || fs3.FreeInodes() != freeI {
		t.Fatalf("free counts moved: blocks %d->%d inodes %d->%d", freeB, fs3.FreeBlocks(), freeI, fs3.FreeInodes())
	}
}

// Mkfs leaves the journal area holding no block, whatever it held: the
// store keeps the format's meta-data blocks only (superblock, GDT, three
// block bitmaps, group 0's inode bitmap, the root's directory block and its
// inode-table block), and the old journal's private blocks go back to the
// pool, which the format's own blocks then come from.
func TestMkfsLeavesNoJournalBlock(t *testing.T) {
	pool := &blockdev.Pool{}
	dev := blockdev.NewTestbedArray(smallBlocks)
	dev.Store().SetPool(pool)
	old := make([][]byte, smallGeometry.JournalBlocks)
	for i := range old {
		if old[i] = blockdev.Shared(0x5A); i%2 == 0 {
			old[i] = make([]byte, BlockSize)
			old[i][0] = byte(i) + 1 // mixed: a private block
		}
	}
	if _, err := dev.WriteRun(0, jStart, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Mkfs(0, dev, smallGeometry); err != nil {
		t.Fatal(err)
	}
	if n, back := dev.Store().Populated(), pool.Len(); n != 8 || back != len(old)/2-8 {
		t.Fatalf("after the format the store holds %d blocks and the pool %d; want 8 and %d", n, back, len(old)/2-8)
	}
}

// A filesystem whose caches recycle blocks through a pool (poisoned on every
// release) keeps its content through unmount, remount, crash and recovery:
// nothing reads a block after dropAll gave it away, and nothing relies on a
// recycled block being zero.
func TestRemountOnRecycledBlocks(t *testing.T) {
	dev := blockdev.NewTestbedArray(32768)
	pool := &blockdev.Pool{Poison: true}
	dev.Store().SetPool(pool)
	opts := Options{Pool: pool}
	if _, err := Mkfs(0, dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, at, err := Mount(0, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 300*1024+123)
	for i := range want {
		want[i] = byte(i * 7)
	}
	check := func(fs *FS, at time.Duration, when string) time.Duration {
		t.Helper()
		f, at, err := fs.Open(at, "/d/data")
		if err != nil {
			t.Fatalf("%s: open: %v", when, err)
		}
		got := make([]byte, len(want)+10)
		n, at, err := f.ReadAt(at, 0, got)
		if err != nil || n != len(want) || !bytes.Equal(got[:n], want) {
			t.Fatalf("%s: read %d bytes, err %v, equal %v", when, n, err, bytes.Equal(got[:n], want))
		}
		return at
	}
	if at, err = fs.Mkdir(at, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	f, at, err := fs.Create(at, "/d/data", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, at, err = f.WriteAt(at, 0, want); err != nil {
		t.Fatal(err)
	}
	at = check(fs, at, "before unmount")
	if at, err = fs.Unmount(at); err != nil {
		t.Fatal(err)
	}
	if pool.Len() == 0 {
		t.Fatal("unmount returned no block to the pool")
	}
	if _, _, err := f.ReadAt(at, 0, make([]byte, 10)); err == nil {
		t.Fatal("read on an unmounted filesystem succeeded")
	}
	fs, at, err = Mount(at, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	at = check(fs, at, "after remount")
	// Dirty more state, commit it, crash before checkpoint, recover.
	if at, err = fs.Rename(at, "/d/data", "/d/moved"); err != nil {
		t.Fatal(err)
	}
	if at, err = fs.Rename(at, "/d/moved", "/d/data"); err != nil {
		t.Fatal(err)
	}
	if at, err = fs.Sync(at); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	fs, at, err = Mount(at, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	check(fs, at, "after crash recovery")
}

// With a pool the coalescing buffer is the pool's run buffer: Crash and
// Unmount give it back, and the next filesystem's first run takes the same
// one again. Without a pool it grows to exactly the longest run asked for.
func TestRunBufferGoesBackToThePool(t *testing.T) {
	dev := blockdev.NewTestbedArray(32768)
	opts := Options{Pool: &blockdev.Pool{}}
	if _, err := Mkfs(0, dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, at, err := Mount(0, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	first := &fs.runBuf(blockdev.RunBlocks)[0]
	if fs.run == nil || first != &fs.run[0] {
		t.Fatal("a run of RunBlocks did not get the pool's run buffer")
	}
	fs.Crash()
	if fs.run != nil || fs.coalesce != nil {
		t.Fatal("Crash kept the run buffer")
	}
	if fs, at, err = Mount(at, dev, opts); err != nil {
		t.Fatal(err)
	}
	if got := &fs.runBuf(1)[0]; got != first {
		t.Fatal("the next filesystem did not take the run buffer Crash gave back")
	}
	if at, err = fs.Unmount(at); err != nil || fs.run != nil {
		t.Fatalf("Unmount kept the run buffer (err %v)", err)
	}

	opts.Pool = nil
	if fs, _, err = Mount(at, dev, opts); err != nil {
		t.Fatal(err)
	}
	fs.runBuf(3)
	if fs.run != nil || len(fs.coalesce) != 3*BlockSize {
		t.Fatalf("without a pool a 3-block run left a %d-byte buffer", len(fs.coalesce))
	}
}

// TestWarmOpenReadCloseAllocatesNothing holds the meta-data path to no heap
// object per operation: once a file's inode, handle, names and blocks are
// cached, opening it by path, reading it whole and closing it allocate
// nothing. Every call runs at time 0, inside the first commit interval, so no
// journal commit (one allocation each) falls inside the cycle.
func TestWarmOpenReadCloseAllocatesNothing(t *testing.T) {
	fs, _ := newTestFS(t)
	if _, err := fs.Mkdir(0, "/d", 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	f, _, err := fs.Create(0, "/d/f", 0o644)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	payload := bytes.Repeat([]byte("warm"), 2048) // two blocks
	if _, _, err := f.WriteAt(0, 0, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := f.Close(0); err != nil {
		t.Fatalf("close: %v", err)
	}
	buf := make([]byte, len(payload))
	cycle := func() {
		f, _, err := fs.Open(0, "/d/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if n, _, err := f.ReadAt(0, 0, buf); err != nil || n != len(buf) {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		if _, err := f.Close(0); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a warm open, read and close allocated %v objects, want 0", n)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("read-back mismatch")
	}
}
