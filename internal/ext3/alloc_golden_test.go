package ext3

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/vfs"
)

// allocLog records which inode and which blocks each step of a script was
// handed, read back from the inodes the step left behind.
type allocLog struct {
	t   *testing.T
	fs  *FS
	at  time.Duration
	out bytes.Buffer
}

func (l *allocLog) inode(path string) (Ino, *inode) {
	l.t.Helper()
	st, _, err := l.fs.Stat(l.at, path)
	if err != nil {
		l.t.Fatalf("stat %s: %v", path, err)
	}
	n, _, err := l.fs.getInode(l.at, Ino(st.Ino))
	if err != nil {
		l.t.Fatalf("inode of %s: %v", path, err)
	}
	return Ino(st.Ino), n
}

func (l *allocLog) mkdir(path string) {
	l.t.Helper()
	var err error
	if l.at, err = l.fs.Mkdir(l.at, path, 0o755); err != nil {
		l.t.Fatalf("mkdir %s: %v", path, err)
	}
	ino, n := l.inode(path)
	fmt.Fprintf(&l.out, "mkdir %s ino=%d blk=%d\n", path, ino, n.Direct[0])
}

func (l *allocLog) create(path string) {
	l.t.Helper()
	_, done, err := l.fs.Create(l.at, path, 0o644)
	if err != nil {
		l.t.Fatalf("create %s: %v", path, err)
	}
	l.at = done
	ino, _ := l.inode(path)
	pino, pn := l.inode(filepath.Dir(path))
	fmt.Fprintf(&l.out, "create %s ino=%d dir=%d/%d\n", path, ino, pino, pn.Blocks)
}

// write stores blocks file blocks of mixed bytes at file block fb and logs
// where each landed, as runs, with the inode's indirect pointers.
func (l *allocLog) write(path string, fb, blocks int64) error {
	l.t.Helper()
	f, done, err := l.fs.Open(l.at, path)
	if err != nil {
		l.t.Fatalf("open %s: %v", path, err)
	}
	data := make([]byte, blocks*BlockSize)
	for i := range data {
		data[i] = byte(i) ^ byte(fb)
	}
	wrote, done, werr := f.WriteAt(done, fb*BlockSize, data)
	l.at = done
	_, n := l.inode(path)
	fmt.Fprintf(&l.out, "write %s @%d+%d wrote=%d err=%v blocks=%d ind=%d dind=%d lbas=", path, fb, blocks, wrote/BlockSize, werr, n.Blocks, n.Ind, n.DInd)
	for i := int64(0); i < blocks; {
		first := l.fs.bmapPeek(n, fb+i)
		run := int64(1)
		step := min(first, 1) // a hole (0) repeats, an extent counts up
		for i+run < blocks && l.fs.bmapPeek(n, fb+i+run) == first+run*step {
			run++
		}
		switch {
		case first == 0:
			fmt.Fprintf(&l.out, "hole*%d ", run)
		case run > 1:
			fmt.Fprintf(&l.out, "%d-%d ", first, first+run-1)
		default:
			fmt.Fprintf(&l.out, "%d ", first)
		}
		i += run
	}
	fmt.Fprintf(&l.out, "free=%d\n", l.fs.FreeBlocks())
	return werr
}

func (l *allocLog) unlink(path string) {
	l.t.Helper()
	var err error
	if l.at, err = l.fs.Unlink(l.at, path); err != nil {
		l.t.Fatalf("unlink %s: %v", path, err)
	}
	fmt.Fprintf(&l.out, "unlink %s free=%d/%d\n", path, l.fs.FreeBlocks(), l.fs.FreeInodes())
}

// TestAllocOrderGolden locks which inode numbers and which blocks the
// allocators hand out, independently of the simulated-result pin: files across
// three directories, five of them grown past their direct blocks one 4 KB write
// at a time in a rotating order (each write searches from the file's indirect
// block across everything the file owns), unlinks and re-creation into the
// holes, then a small device with a partial last group filled to ErrNoSpace and
// one allocation that only the wrap-around pass below the goal can satisfy.
// Generated on the code that tested one bit per iteration and byte-identical
// after. Regenerate with go test ./internal/ext3 -run AllocOrderGolden -update.
func TestAllocOrderGolden(t *testing.T) {
	dev := blockdev.NewTestbedArray(32768)
	if _, err := Mkfs(0, dev, Options{}); err != nil {
		t.Fatal(err)
	}
	fs, at, err := Mount(0, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := &allocLog{t: t, fs: fs, at: at}
	name := func(i int) string { return fmt.Sprintf("/d%d/f%d", i%3, i) }
	for d := 0; d < 3; d++ {
		l.mkdir(fmt.Sprintf("/d%d", d))
	}
	for i := 0; i < 40; i++ {
		l.create(name(i))
		if err := l.write(name(i), 0, int64(1+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	grown := []int{3, 11, 17, 25, 38}
	for round := int64(0); round < 20; round++ {
		for k := range grown {
			i := grown[(k+int(round))%len(grown)]
			if err := l.write(name(i), int64(1+i%3)+round, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 40; i += 3 {
		l.unlink(name(i))
	}
	for i := 40; i < 54; i++ {
		l.create(name(i))
		if err := l.write(name(i), 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = fs.Unmount(l.at); err != nil {
		t.Fatal(err)
	}

	// Two whole groups of 1024 blocks and a third of 300, 64 inodes each.
	sdev, _ := formatSmall(t)
	if fs, at, err = Mount(0, sdev, smallGeometry); err != nil {
		t.Fatal(err)
	}
	l.fs, l.at = fs, at
	fmt.Fprintf(&l.out, "small device free=%d/%d\n", fs.FreeBlocks(), fs.FreeInodes())
	for _, p := range []string{"/early", "/late", "/big"} {
		l.create(p)
		if p != "/big" {
			if err := l.write(p, 0, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	var fb int64
	for ; ; fb += 100 {
		if err := l.write("/big", fb, 100); err != nil {
			if !errors.Is(err, vfs.ErrNoSpace) {
				t.Fatalf("filling the device: %v", err)
			}
			break
		}
	}
	if fs.FreeBlocks() != 0 {
		t.Fatalf("ErrNoSpace with %d blocks free", fs.FreeBlocks())
	}
	// The only free blocks are now below /late's last block, in its group.
	l.unlink("/early")
	if err := l.write("/late", 4, 3); err != nil {
		t.Fatalf("allocation below the goal: %v", err)
	}
	for i := 0; i < 70; i++ { // more than one group's inodes
		l.create(fmt.Sprintf("/n%d", i))
	}
	checkGolden(t, "alloc_order.golden", l.out.String())
}

// imageLine describes a device after a format: the hash of its dense image,
// how many blocks the sparse store keeps, the pool's free blocks and the
// array's counters.
func imageLine(t *testing.T, label string, dev *blockdev.Local, pool *blockdev.Pool) string {
	t.Helper()
	h := sha256.New()
	blk := make([]byte, BlockSize)
	for lba := int64(0); lba < dev.NumBlocks(); lba++ {
		if err := dev.Store().ReadAt(lba, blk); err != nil {
			t.Fatal(err)
		}
		h.Write(blk)
	}
	return fmt.Sprintf("%s: sha256=%x populated=%d pool=%d disk=%+v\n", label, h.Sum(nil), dev.Store().Populated(), pool.Len(), dev.Stats())
}

// TestMkfsImageGolden pins what Mkfs leaves on the device and what it costs
// the array, on a fresh device and on one formatted again over a populated
// file system. The second case is what the journal zeroing exists for: the
// private blocks of the old journal become absent and go back to the pool.
// Generated on the code that wrote 2048 blocks of zeros through Store.WriteAt.
func TestMkfsImageGolden(t *testing.T) {
	pool := &blockdev.Pool{}
	dev := blockdev.NewTestbedArray(8192)
	dev.Store().SetPool(pool)
	at, err := Mkfs(0, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	fmt.Fprintf(&out, "done=%d\n", at)
	out.WriteString(imageLine(t, "fresh", dev, pool))

	fs, at, err := Mount(at, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := &allocLog{t: t, fs: fs, at: at}
	l.mkdir("/d")
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("/d/f%d", i)
		l.create(p)
		if err := l.write(p, 0, 20); err != nil {
			t.Fatal(err)
		}
		if l.at, err = fs.Sync(l.at); err != nil { // one journal transaction per file
			t.Fatal(err)
		}
	}
	if at, err = fs.Unmount(l.at); err != nil {
		t.Fatal(err)
	}
	out.WriteString(imageLine(t, "populated", dev, pool))
	before, held := dev.Store().Populated(), pool.Len()

	if at, err = Mkfs(at, dev, Options{}); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "done=%d\n", at)
	out.WriteString(imageLine(t, "reformatted", dev, pool))
	blk := make([]byte, BlockSize)
	for lba := int64(jStart); lba < jStart+2048; lba++ {
		if err := dev.Store().ReadAt(lba, blk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blk, make([]byte, BlockSize)) {
			t.Fatalf("journal block %d survived the format", lba)
		}
	}
	if gone, back := before-dev.Store().Populated(), pool.Len()-held; gone < 10 || back != gone {
		t.Errorf("format dropped %d stale blocks and the pool got %d back; want the same, at least 10", gone, back)
	}
	checkGolden(t, "mkfs_image.golden", out.String())
}
