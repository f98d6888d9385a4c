package nfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/ext3"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/vfs"
)

// A WRITE hands the client's pages to the server by reference: a uniform
// page sits in the client's cache as the shared block of its byte, and the
// server copies a private page, so a later change to the client's pages
// reaches neither the server's cache nor, after a sync, the Store.
func TestWritePagesHandedToServerByReference(t *testing.T) {
	dev := blockdev.NewTestbedArray(32768)
	dev.Store().SetPool(&blockdev.Pool{})
	if _, err := ext3.Mkfs(0, dev, ext3.Options{}); err != nil {
		t.Fatal(err)
	}
	fs, at, err := ext3.Mount(0, dev, ext3.Options{Pool: &blockdev.Pool{}})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fs, nil)
	c := NewClient(V3, sunrpc.NewClient(simnet.New(simnet.DefaultLAN()), sunrpc.TCP), srv, nil)
	c.SetPool(&blockdev.Pool{})
	if at, err = c.Mount(at); err != nil {
		t.Fatal(err)
	}
	f, at, err := c.Create(at, "/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Eight pages: the even ones each one distinct byte repeated, the odd
	// ones mixed.
	data := make([]byte, 8*pageSize)
	for i := range data {
		if pg := i / pageSize; pg%2 == 0 {
			data[i] = byte(0x11 * (pg/2 + 1))
		} else {
			data[i] = byte(i*7 + pg)
		}
	}
	want := bytes.Clone(data)
	if _, at, err = f.WriteAt(at, 0, data); err != nil {
		t.Fatal(err)
	}
	if at, err = f.Fsync(at); err != nil {
		t.Fatal(err)
	}
	if at, err = fs.Sync(at); err != nil {
		t.Fatal(err)
	}

	ino := f.(*nfsFile).fh.Ino
	for idx := int64(0); idx < 8; idx++ {
		p := c.pages.peek(pageKey{ino, idx})
		if shared := &(*blockdev.Pool)(nil).Load(p.data)[0] == &p.data[0]; shared != (idx%2 == 0) {
			t.Errorf("page %d (uniform: %v) is cached as a shared block: %v", idx, idx%2 == 0, shared)
		}
		if idx%2 == 1 {
			clear(p.data)
		}
	}
	got := make([]byte, len(data))
	if n, _, err := fs.ReadFileAt(at, ext3.Ino(ino), 0, got); err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Errorf("the server's file follows the client's page cache (%d bytes, %v)", n, err)
	}
	// A fresh mount reads the file from the Store.
	if at, err = fs.Unmount(at); err != nil {
		t.Fatal(err)
	}
	if fs, at, err = ext3.Mount(at, dev, ext3.Options{}); err != nil {
		t.Fatal(err)
	}
	clear(got)
	if n, _, err := fs.ReadFileAt(at, ext3.Ino(ino), 0, got); err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Errorf("the Store's copy of the file follows the client's page cache (%d bytes, %v)", n, err)
	}
	sharedIntact(t)
}

// A negative offset is an invalid argument on NFSv2's write-through path,
// which sends nothing, and its reads, and at the server's READ and WRITE
// procedures, which refuse it before counting or charging the request.
func TestNegativeOffsetIsInvalid(t *testing.T) {
	c, srv, net := rig(t, V2)
	f, at, err := c.Create(0, "/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte("y"), 300)
	if _, at, err = f.WriteAt(at, 0, buf); err != nil {
		t.Fatal(err)
	}
	sent := net.Stats().Messages
	if _, _, err := f.WriteAt(at, -100, buf); !errors.Is(err, vfs.ErrInvalid) {
		t.Errorf("v2 WriteAt at -100: %v, want ErrInvalid", err)
	}
	if n := net.Stats().Messages - sent; n != 0 {
		t.Errorf("v2 WriteAt at -100 sent %d messages", n)
	}
	if _, _, err := f.ReadAt(at, -100, buf); !errors.Is(err, vfs.ErrInvalid) {
		t.Errorf("v2 ReadAt at -100: %v, want ErrInvalid", err)
	}
	fh := f.(*nfsFile).fh
	reads, writes := srv.ProcCounts[ProcRead], srv.ProcCounts[ProcWrite]
	if _, _, _, err := srv.read(at, fh, -100, 100); !errors.Is(err, vfs.ErrInvalid) {
		t.Errorf("READ at -100: %v, want ErrInvalid", err)
	}
	if _, _, err := srv.Write(at, fh, -100, [][]byte{buf}, true); !errors.Is(err, vfs.ErrInvalid) {
		t.Errorf("WRITE at -100: %v, want ErrInvalid", err)
	}
	if srv.ProcCounts[ProcRead] != reads || srv.ProcCounts[ProcWrite] != writes {
		t.Error("refused READ or WRITE was counted as a request")
	}
}
