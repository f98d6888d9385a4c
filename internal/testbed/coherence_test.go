package testbed

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/nfs"
	"repro/internal/vfs"
)

// staleHandleScene sets up two NFS v3 clients of one export where the
// second has reused the first's file: client 0 writes /x (8 KB of 'x') and
// stats it, client 1 unlinks /x and writes /y (ySize bytes of 'y'), which
// takes /x's inode number. Then client 0's attribute cache times out. It
// returns the cluster, the inode number /x had, and /x's old bytes.
func staleHandleScene(t *testing.T, ySize int) (*Cluster, uint64, []byte) {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Config:  Config{Kind: NFSv3, DeviceBlocks: 16384, Seed: 1},
		Clients: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c0, c1 := cl.Clients[0], cl.Clients[1]
	old := bytes.Repeat([]byte("x"), 8192)
	if err := c0.WriteFile("/x", old); err != nil {
		t.Fatal(err)
	}
	st, err := c0.Stat("/x")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Unlink("/x"); err != nil {
		t.Fatal(err)
	}
	if err := c1.WriteFile("/y", bytes.Repeat([]byte("y"), ySize)); err != nil {
		t.Fatal(err)
	}
	if y, err := c1.Stat("/y"); err != nil || y.Ino != st.Ino {
		t.Fatalf("/y has inode %d (%v); the scene needs /x's %d again", y.Ino, err, st.Ino)
	}
	cl.Align()
	c0.Idle(nfs.AttrTimeout + time.Second)
	return cl, st.Ino, old
}

// TestKnownDefectStaleHandleReadsRemovedFile records a defect: a filehandle
// outlives its file. Nothing carries an inode generation in the handle, so
// client 0's handle for the removed /x names /y, which reused its inode
// number, and the server never answers ESTALE. Client 0 reads /x's old
// 8 KB from its page cache, and stat reports /x at /y's inode; the right
// answer is ESTALE or ENOENT, which it gives once its caches are dropped.
// A generation in the handle inverts the first two assertions; dropping
// pages when a reply changes the mtime (the next test) already changes the
// bytes read, to /y's.
func TestKnownDefectStaleHandleReadsRemovedFile(t *testing.T) {
	cl, ino, old := staleHandleScene(t, 8192)
	c0 := cl.Clients[0]
	got, err := c0.ReadFile("/x")
	if err != nil || !bytes.Equal(got, old) {
		t.Errorf("read of removed /x: %d bytes, %v; the known defect returns its old %d bytes", len(got), err, len(old))
	}
	if st, err := c0.Stat("/x"); err != nil || st.Ino != ino {
		t.Errorf("stat of removed /x: inode %d, %v; the known defect reports inode %d", st.Ino, err, ino)
	}
	if err := cl.ColdCache(); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.ReadFile("/x"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("read of removed /x after the cache drop: %v, want %v", err, vfs.ErrNotExist)
	}
}

// TestKnownDefectAttrReplyKeepsStalePages records a defect: attributes a
// reply brings in overwrite the cached ones without the mtime comparison
// revalidation makes, so a file's pages survive a change. With /y at 4 KB,
// client 0 takes /y's size for /x and keeps /x's old pages: the read returns
// 4 KB of 'x', bytes of no file that exists. The fix, dropping the pages
// when a reply changes the mtime, inverts the assertion.
func TestKnownDefectAttrReplyKeepsStalePages(t *testing.T) {
	cl, _, old := staleHandleScene(t, 4096)
	got, err := cl.Clients[0].ReadFile("/x")
	if err != nil || !bytes.Equal(got, old[:4096]) {
		t.Errorf("read of /x: %d bytes %.8q…, %v; the known defect returns 4096 bytes of /x's old 'x'", len(got), got, err)
	}
}
