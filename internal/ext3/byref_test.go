package ext3

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/iscsi"
	"repro/internal/simnet"
	"repro/internal/vfs"
)

// handedDownPayload is eight blocks: the even ones each one (distinct,
// non-zero) byte repeated, the odd ones mixed bytes.
func handedDownPayload() []byte {
	data := make([]byte, 8*BlockSize)
	for fb := 0; fb < 8; fb++ {
		blk := data[fb*BlockSize : (fb+1)*BlockSize]
		for i := range blk {
			if fb%2 == 0 {
				blk[i] = byte(0x11 * (fb/2 + 1))
			} else {
				blk[i] = byte(i*7 + fb)
			}
		}
	}
	return data
}

// isSharedBlock reports whether b is one of blockdev's shared blocks: Load
// hands such a block back as itself, anything else as a block of its own.
func isSharedBlock(b []byte) bool {
	return &(*blockdev.Pool)(nil).Load(b)[0] == &b[0]
}

// A file's blocks go from the buffer cache to the Store by reference, on the
// local array and through the iSCSI initiator and target alike: a uniform
// block sits in the cache as the shared block of its byte, and a private
// block is copied on the way, never kept, so scribbling over the cache's
// private blocks after the sync changes nothing the Store holds.
func TestWriteRunsHandCachedBlocksDown(t *testing.T) {
	for _, c := range []struct {
		name  string
		mount func(t *testing.T, dev *blockdev.Local, opts Options) (*FS, time.Duration)
	}{
		{"local", func(t *testing.T, dev *blockdev.Local, opts Options) (*FS, time.Duration) {
			fs, at, err := Mount(0, dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			return fs, at
		}},
		{"iscsi", func(t *testing.T, dev *blockdev.Local, opts Options) (*FS, time.Duration) {
			ini := iscsi.NewInitiator(simnet.New(simnet.DefaultLAN()), iscsi.NewTarget("iqn.test:byref", dev, nil), nil)
			at, err := ini.Login(0)
			if err != nil {
				t.Fatal(err)
			}
			fs, at, err := Mount(at, ini, opts)
			if err != nil {
				t.Fatal(err)
			}
			return fs, at
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := blockdev.NewTestbedArray(32768)
			dev.Store().SetPool(&blockdev.Pool{})
			if _, err := Mkfs(0, dev, Options{}); err != nil {
				t.Fatal(err)
			}
			fs, at := c.mount(t, dev, Options{Pool: &blockdev.Pool{}})
			f, at, err := fs.Create(at, "/f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			data := handedDownPayload()
			if _, at, err = f.WriteAt(at, 0, data); err != nil {
				t.Fatal(err)
			}
			if _, err = fs.Sync(at); err != nil {
				t.Fatal(err)
			}
			n := fs.icache[f.(*file).ino]
			lbas := make([]int64, 8)
			for fb := range lbas {
				lbas[fb] = fs.bmapPeek(n, int64(fb))
				b := fs.bc.peek(lbas[fb])
				if b == nil || !bytes.Equal(b.data, data[fb*BlockSize:(fb+1)*BlockSize]) {
					t.Fatalf("file block %d is not cached as written", fb)
				}
				if shared := isSharedBlock(b.data); shared != (fb%2 == 0) {
					t.Errorf("file block %d (uniform: %v) is cached as a shared block: %v", fb, fb%2 == 0, shared)
				}
				if fb%2 == 1 {
					clear(b.data)
				}
			}
			got := make([]byte, BlockSize)
			for fb, lba := range lbas {
				if err := dev.Store().ReadAt(lba, got); err != nil || !bytes.Equal(got, data[fb*BlockSize:(fb+1)*BlockSize]) {
					t.Errorf("file block %d (uniform: %v) reads back otherwise from the store (%v): it keeps the cache's block", fb, fb%2 == 0, err)
				}
			}
			sharedIntact(t)
		})
	}
}

// A negative offset is an invalid argument on ext3's reads and writes, by
// path and by inode, not a panic.
func TestNegativeOffsetIsInvalid(t *testing.T) {
	fs, _ := newTestFS(t)
	f, at, err := fs.Create(0, "/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, at, err = f.WriteAt(at, 0, bytes.Repeat([]byte("x"), 3*BlockSize)); err != nil {
		t.Fatal(err)
	}
	ino := f.(*file).ino
	buf := make([]byte, 200)
	for _, off := range []int64{-1, -100, -BlockSize, -3*BlockSize - 7} {
		for what, err := range map[string]error{
			"ReadAt":      func() error { _, _, err := f.ReadAt(at, off, buf); return err }(),
			"WriteAt":     func() error { _, _, err := f.WriteAt(at, off, buf); return err }(),
			"ReadFileAt":  func() error { _, _, err := fs.ReadFileAt(at, ino, off, buf); return err }(),
			"WriteFileAt": func() error { _, _, err := fs.WriteFileAt(at, ino, off, [][]byte{buf}); return err }(),
		} {
			if !errors.Is(err, vfs.ErrInvalid) {
				t.Errorf("%s at %d: %v, want ErrInvalid", what, off, err)
			}
		}
	}
}

// WriteFileAt takes a payload cut at block boundaries and refuses one cut
// otherwise; a well-cut payload writes what the same bytes written whole do.
func TestWriteFileAtTakesBlocksCutAtBoundaries(t *testing.T) {
	fs, _ := newTestFS(t)
	f, at, err := fs.Create(0, "/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ino := f.(*file).ino
	data := handedDownPayload()[:3*BlockSize+500]
	for _, bad := range []struct {
		off    int64
		blocks [][]byte
	}{
		{0, [][]byte{data[:100], data[100:200]}}, // a short block before the last
		{100, [][]byte{data[:BlockSize]}},        // longer than its block has room from 100
		{0, [][]byte{data[:BlockSize], {}}},      // an empty piece
		{0, [][]byte{data[:BlockSize+1]}},        // longer than a block
	} {
		if _, _, err := fs.WriteFileAt(at, ino, bad.off, bad.blocks); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("payload at %d cut as %d pieces: %v, want ErrInvalid", bad.off, len(bad.blocks), err)
		}
	}
	for _, off := range []int64{0, 100, BlockSize - 10, 5 * BlockSize} {
		n, d, err := fs.WriteFileAt(at, ino, off, blockdev.Cut(nil, off, data))
		if err != nil || n != len(data) {
			t.Fatalf("WriteFileAt at %d: %d bytes, %v", off, n, err)
		}
		at = d
		got := make([]byte, len(data))
		if n, _, err := fs.ReadFileAt(at, ino, off, got); err != nil || n != len(data) || !bytes.Equal(got, data) {
			t.Fatalf("at %d: read back %d bytes, %v", off, n, err)
		}
	}
}
