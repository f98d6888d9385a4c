package nfs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/ext3"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/vfs"
)

// rig builds a client/server pair over an untimed in-memory export.
func rig(t *testing.T, ver Version) (*Client, *Server, *simnet.Network) {
	t.Helper()
	dev := blockdev.NewTestbedArray(32768)
	if _, err := ext3.Mkfs(0, dev, ext3.Options{}); err != nil {
		t.Fatalf("mkfs: %v", err)
	}
	fs, _, err := ext3.Mount(0, dev, ext3.Options{})
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	net := simnet.New(simnet.DefaultLAN())
	srv := NewServer(fs, nil)
	tr := sunrpc.TCP
	if ver == V2 {
		tr = sunrpc.UDP
	}
	c := NewClient(ver, sunrpc.NewClient(net, tr), srv, nil)
	if _, err := c.Mount(0); err != nil {
		t.Fatalf("client mount: %v", err)
	}
	return c, srv, net
}

func TestWireSizeSanity(t *testing.T) {
	for _, v := range []Version{V2, V3, V4} {
		if argSize(v, ProcWrite, 0, 8192) < 8192 {
			t.Fatalf("%v WRITE args smaller than payload", v)
		}
		if resSize(v, ProcRead, 4096) < 4096 {
			t.Fatalf("%v READ result smaller than payload", v)
		}
		if argSize(v, ProcLookup, 255, 0) <= argSize(v, ProcLookup, 1, 0) {
			t.Fatalf("%v LOOKUP ignores name length", v)
		}
	}
	if argSize(V4, ProcGetattr, 0, 0) <= argSize(V3, ProcGetattr, 0, 0) {
		t.Fatal("v4 COMPOUND framing not reflected in sizes")
	}
}

func TestEndToEndFileLifecycle(t *testing.T) {
	for _, ver := range []Version{V2, V3, V4} {
		c, _, _ := rig(t, ver)
		at := time.Duration(0)
		var err error
		if at, err = c.Mkdir(at, "/d", 0o755); err != nil {
			t.Fatalf("%v mkdir: %v", ver, err)
		}
		f, at, err := c.Create(at, "/d/file", 0o644)
		if err != nil {
			t.Fatalf("%v create: %v", ver, err)
		}
		payload := bytes.Repeat([]byte("nfs-data"), 3000) // 24 KB
		if _, at, err = f.WriteAt(at, 0, payload); err != nil {
			t.Fatalf("%v write: %v", ver, err)
		}
		if at, err = f.Close(at); err != nil {
			t.Fatalf("%v close: %v", ver, err)
		}
		if at, err = c.Sync(at); err != nil {
			t.Fatalf("%v sync: %v", ver, err)
		}
		g, at, err := c.Open(at, "/d/file")
		if err != nil {
			t.Fatalf("%v open: %v", ver, err)
		}
		got := make([]byte, len(payload))
		if _, at, err = g.ReadAt(at, 0, got); err != nil {
			t.Fatalf("%v read: %v", ver, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%v roundtrip mismatch", ver)
		}
		st, at, err := c.Stat(at, "/d/file")
		if err != nil || st.Size != int64(len(payload)) {
			t.Fatalf("%v stat: %v size=%d", ver, err, st.Size)
		}
		if at, err = c.Rename(at, "/d/file", "/d/file2"); err != nil {
			t.Fatalf("%v rename: %v", ver, err)
		}
		if at, err = c.Unlink(at, "/d/file2"); err != nil {
			t.Fatalf("%v unlink: %v", ver, err)
		}
		if _, _, err = c.Stat(at, "/d/file2"); err != vfs.ErrNotExist {
			t.Fatalf("%v stat after unlink: %v", ver, err)
		}
	}
}

func TestAttrCacheRevalidation(t *testing.T) {
	c, srv, net := rig(t, V3)
	at, err := c.Mkdir(0, "/d", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if _, at, err = c.Stat(at, "/d"); err != nil {
		t.Fatal(err)
	}
	// Within the 3s window: resolution generates no traffic (the stat
	// GETATTR itself is the only message for v3's stat quirk).
	before := net.Stats().Messages
	if _, at, err = c.Stat(at+time.Second, "/d"); err != nil {
		t.Fatal(err)
	}
	fresh := net.Stats().Messages - before
	// Past the window: resolution revalidates too.
	before = net.Stats().Messages
	if _, _, err = c.Stat(at+10*time.Second, "/d"); err != nil {
		t.Fatal(err)
	}
	stale := net.Stats().Messages - before
	if stale <= fresh {
		t.Fatalf("stale stat (%d msgs) should exceed fresh stat (%d)", stale, fresh)
	}
	_ = srv
}

func TestV2WritesAreStable(t *testing.T) {
	c, srv, _ := rig(t, V2)
	f, at, err := c.Create(0, "/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, at, err = f.WriteAt(at, 0, make([]byte, 16<<10)); err != nil {
		t.Fatal(err)
	}
	// v2 writes are synchronous: the server filesystem already has them.
	st, _, err := srv.FS().GetAttrAt(at, ext3.Ino(f.(*nfsFile).fh.Ino))
	if err != nil || st.Size != 16<<10 {
		t.Fatalf("server missed sync writes: %v size=%d", err, st.Size)
	}
}

func TestPseudoSyncLatchesUnderHeavyWrites(t *testing.T) {
	c, _, _ := rig(t, V3)
	f, at, err := c.Create(0, "/big", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 4096)
	for off := int64(0); off < 8<<20; off += 4096 {
		if _, at, err = f.WriteAt(at, off, chunk); err != nil {
			t.Fatal(err)
		}
	}
	if !c.wb.pseudoSync {
		t.Fatal("heavy write stream did not degenerate the write-back pool")
	}
}

func TestServerFailureInjection(t *testing.T) {
	c, srv, _ := rig(t, V3)
	srv.FailRequests = true
	if _, err := c.Mkdir(0, "/x", 0o755); err == nil {
		t.Fatal("injected server failure not surfaced")
	}
	srv.FailRequests = false
	if _, err := c.Mkdir(time.Second, "/x", 0o755); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
}

// A write that reaches the server from elsewhere (another client, a local
// process) is seen once the attribute timeout has passed: the revalidation
// GETATTR brings a new mtime, and the cached pages go. The comparison is
// against the attributes the client held before that GETATTR.
func TestForeignWriteSeenAfterAttrTimeout(t *testing.T) {
	for _, ver := range []Version{V2, V3, V4} {
		c, srv, _ := rig(t, ver)
		f, at, err := c.Create(0, "/f", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		mine, theirs := bytes.Repeat([]byte("a"), 8192), bytes.Repeat([]byte("b"), 8192)
		if _, at, err = f.WriteAt(at, 0, mine); err != nil {
			t.Fatal(err)
		}
		if at, err = f.Fsync(at); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(mine))
		if _, at, err = f.ReadAt(at, 0, got); err != nil || !bytes.Equal(got, mine) {
			t.Fatalf("%v: own write read back as %.8q, %v", ver, got, err)
		}
		if _, at, err = srv.Write(at+time.Second, f.(*nfsFile).fh, 0, blockdev.Cut(nil, 0, theirs), true); err != nil {
			t.Fatal(err)
		}
		if _, _, err = f.ReadAt(at+2*time.Minute, 0, got); err != nil || !bytes.Equal(got, theirs) {
			t.Errorf("%v: after the attribute timeout a foreign write reads as %.8q, %v", ver, got, err)
		}
	}
}

// Unlinking a file forgets its queued writes and cached pages: the inode
// number comes back for the next file created, and what the dead file still
// had queued must not land in the new one.
func TestUnlinkForgetsQueuedWritesOfAReusedInode(t *testing.T) {
	for _, ver := range []Version{V2, V3, V4} {
		c, _, _ := rig(t, ver)
		x, at, err := c.Create(0, "/x", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, at, err = x.WriteAt(at, 0, bytes.Repeat([]byte("x"), 8192)); err != nil {
			t.Fatal(err)
		}
		if at, err = c.Unlink(at, "/x"); err != nil {
			t.Fatal(err)
		}
		y, at, err := c.Create(at, "/y", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if xi, yi := x.(*nfsFile).fh.Ino, y.(*nfsFile).fh.Ino; xi != yi {
			t.Fatalf("%v: /y got inode %d, not /x's %d: the test needs the reuse", ver, yi, xi)
		}
		if at, err = c.Sync(at); err != nil {
			t.Fatal(err)
		}
		c.DropCaches()
		if at, err = c.Mount(at); err != nil {
			t.Fatal(err)
		}
		st, at, err := c.Stat(at, "/y")
		if err != nil {
			t.Fatal(err)
		}
		g, at, err := c.Open(at, "/y")
		if err != nil {
			t.Fatal(err)
		}
		if n, _, err := g.ReadAt(at, 0, make([]byte, 8192)); err != nil || n != 0 || st.Size != 0 {
			t.Errorf("%v: a new file on a reused inode holds %d bytes (read %d, %v) of the unlinked one", ver, st.Size, n, err)
		}
	}
}

// After Abort every namespace call and open fails with ErrStale and sends
// nothing, whatever the caches held.
func TestAbortedClientSendsNothing(t *testing.T) {
	for _, ver := range []Version{V2, V3, V4} {
		c, _, net := rig(t, ver)
		at, err := c.Mkdir(0, "/d", 0o755)
		if err == nil {
			var f vfs.File
			if f, at, err = c.Create(at, "/d/f", 0o644); err == nil {
				_, err = f.Close(at)
			}
		}
		if err == nil {
			at, err = c.Symlink(at, "/d/f", "/l")
		}
		if err != nil {
			t.Fatal(err)
		}
		c.Abort()
		before := net.Stats().Messages
		calls := map[string]func() error{
			"mkdir":    func() error { _, err := c.Mkdir(at, "/x", 0o755); return err },
			"rmdir":    func() error { _, err := c.Rmdir(at, "/d"); return err },
			"symlink":  func() error { _, err := c.Symlink(at, "/d/f", "/l2"); return err },
			"readlink": func() error { _, _, err := c.Readlink(at, "/l"); return err },
			"link":     func() error { _, err := c.Link(at, "/d/f", "/h"); return err },
			"unlink":   func() error { _, err := c.Unlink(at, "/d/f"); return err },
			"rename":   func() error { _, err := c.Rename(at, "/d/f", "/d/g"); return err },
			"readdir":  func() error { _, _, err := c.ReadDir(at, "/d"); return err },
			"stat":     func() error { _, _, err := c.Stat(at, "/d/f"); return err },
			"chmod":    func() error { _, err := c.Chmod(at, "/d/f", 0o600); return err },
			"chown":    func() error { _, err := c.Chown(at, "/d/f", 1, 1); return err },
			"utimes":   func() error { _, err := c.Utimes(at, "/d/f", 1, 2); return err },
			"truncate": func() error { _, err := c.Truncate(at, "/d/f", 10); return err },
			"access":   func() error { _, err := c.Access(at, "/d/f", vfs.AccessRead); return err },
			"create":   func() error { _, _, err := c.Create(at, "/new", 0o644); return err },
			"open":     func() error { _, _, err := c.Open(at, "/d/f"); return err },
		}
		for name, call := range calls {
			if err := call(); err != vfs.ErrStale {
				t.Errorf("%v: %s on an aborted client: %v, want %v", ver, name, err, vfs.ErrStale)
			}
		}
		if sent := net.Stats().Messages - before; sent != 0 {
			t.Errorf("%v: an aborted client sent %d messages", ver, sent)
		}
	}
}

// A hostile READ count is an error or a short read, never a panic
// (makeslice: len out of range) or an allocation the size of the count: the
// reply is sized by what the file holds past the offset.
func TestServerReadHostileCounts(t *testing.T) {
	c, srv, _ := rig(t, V3)
	f, at, err := c.Create(0, "/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789"), 1000) // 10000 bytes: not page-aligned
	if _, at, err = f.WriteAt(at, 0, payload); err != nil {
		t.Fatal(err)
	}
	if at, err = f.Close(at); err != nil {
		t.Fatal(err)
	}
	fh := f.(*nfsFile).fh
	requests := srv.ProcCounts[ProcRead]
	for _, bad := range []struct {
		off   int64
		count int
	}{{0, -1}, {0, math.MinInt}, {-1, 10}, {-4096, 4096}} {
		if _, _, _, err := srv.read(at, fh, bad.off, bad.count); err == nil {
			t.Errorf("READ off=%d count=%d accepted", bad.off, bad.count)
		}
	}
	if srv.ProcCounts[ProcRead] != requests {
		t.Error("rejected READs were counted and charged as requests")
	}
	for _, tc := range []struct {
		off  int64
		want []byte
	}{{0, payload}, {9000, payload[9000:]}, {10000, nil}, {1 << 50, nil}} {
		for _, count := range []int{1 << 40, math.MaxInt} {
			data, eof, _, err := srv.read(at, fh, tc.off, count)
			if err != nil || !bytes.Equal(data, tc.want) || !eof {
				t.Errorf("READ off=%d count=%d: %d bytes, eof=%v, err=%v; want %d bytes at EOF",
					tc.off, count, len(data), eof, err, len(tc.want))
			}
			if cap(data) > len(payload) {
				t.Errorf("READ off=%d count=%d allocated %d bytes for a %d-byte file", tc.off, count, cap(data), len(payload))
			}
		}
	}
	// An ordinary short count still gets exactly what it asked for.
	data, eof, _, err := srv.read(at, fh, 100, 50)
	if err != nil || !bytes.Equal(data, payload[100:150]) || eof {
		t.Errorf("READ off=100 count=50: %q eof=%v err=%v", data, eof, err)
	}
}

// TestServerRefusesHostileArguments sends the server what a client on the
// wire that validates nothing could send: entry names that are empty, dot,
// dot-dot, over-long or contain a slash, symlink targets that are empty or
// larger than a block, sizes no file can have, a size on a directory, a
// directory renamed into itself, data for a directory or for a file that is
// gone. Each is refused with the error the iSCSI
// client's file system returns for the same mistake, and a refused request
// leaves no trace: free counts and the listing are what they were. A bad
// name, target or size is refused before the export is looked at: no virtual
// time passes (this server charges no CPU) and no block is fetched. Unchecked,
// a 300-byte name is stored as its first 44 bytes (the length byte wraps),
// every bad name costs an inode, and the bad targets and sizes succeed.
func TestServerRefusesHostileArguments(t *testing.T) {
	_, srv, _ := rig(t, V3)
	root := srv.rootFH()
	dir, _, _, err := srv.mkdir(0, root, "d", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	file, _, _, err := srv.create(0, root, "f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	gone, _, _, err := srv.create(0, dir, "gone", 0o644)
	if err == nil {
		_, err = srv.remove(0, dir, "gone")
	}
	if err != nil {
		t.Fatal(err)
	}
	listing := func() string {
		t.Helper()
		ents, _, err := srv.readdir(0, root, false)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name)
		}
		return strings.Join(names, " ")
	}

	type request struct {
		what  string
		want  error
		early bool // refused on its arguments alone
		send  func(at time.Duration) (time.Duration, error)
	}
	var requests []request
	for _, n := range []struct {
		name string
		want error
	}{
		{"", vfs.ErrInvalid}, {".", vfs.ErrInvalid}, {"..", vfs.ErrInvalid}, {"a/b", vfs.ErrInvalid}, {"/", vfs.ErrInvalid},
		{strings.Repeat("n", 256), vfs.ErrNameTooLong}, {strings.Repeat("n", 300), vfs.ErrNameTooLong},
	} {
		name := n.name
		for what, send := range map[string]func(at time.Duration) (time.Duration, error){
			"CREATE": func(at time.Duration) (time.Duration, error) {
				_, _, d, e := srv.create(at, root, name, 0o644)
				return d, e
			},
			"OPEN(create)": func(at time.Duration) (time.Duration, error) {
				_, _, d, e := srv.open(at, root, name, true, 0o644)
				return d, e
			},
			"MKDIR": func(at time.Duration) (time.Duration, error) {
				_, _, d, e := srv.mkdir(at, root, name, 0o755)
				return d, e
			},
			"SYMLINK": func(at time.Duration) (time.Duration, error) {
				_, _, d, e := srv.symlink(at, root, name, "t")
				return d, e
			},
			"LINK":        func(at time.Duration) (time.Duration, error) { _, d, e := srv.link(at, file, root, name); return d, e },
			"REMOVE":      func(at time.Duration) (time.Duration, error) { return srv.remove(at, root, name) },
			"RMDIR":       func(at time.Duration) (time.Duration, error) { return srv.rmdir(at, root, name) },
			"RENAME from": func(at time.Duration) (time.Duration, error) { return srv.rename(at, root, name, root, "g") },
			"RENAME to":   func(at time.Duration) (time.Duration, error) { return srv.rename(at, root, "f", root, name) },
		} {
			requests = append(requests, request{fmt.Sprintf("%s %.8q", what, name), n.want, true, send})
		}
	}
	for _, target := range []string{"", strings.Repeat("t", ext3.BlockSize+1), strings.Repeat("t", 5000)} {
		requests = append(requests, request{fmt.Sprintf("SYMLINK to %.8q", target), vfs.ErrInvalid, true,
			func(at time.Duration) (time.Duration, error) {
				_, _, d, e := srv.symlink(at, root, "s", target)
				return d, e
			}})
	}
	for _, size := range []int64{-1, -1 << 62, 1 << 33, 1 << 62} {
		requests = append(requests, request{fmt.Sprintf("SETATTR size %d", size), vfs.ErrInvalid, true,
			func(at time.Duration) (time.Duration, error) {
				_, d, e := srv.setattr(at, file, ext3.SetAttr{Size: &size})
				return d, e
			}})
	}
	zero := int64(0)
	requests = append(requests,
		request{"SETATTR size on a directory", vfs.ErrIsDir, false,
			func(at time.Duration) (time.Duration, error) {
				_, d, e := srv.setattr(at, dir, ext3.SetAttr{Size: &zero})
				return d, e
			}},
		request{"SETATTR by name, size on a directory", vfs.ErrIsDir, false,
			func(at time.Duration) (time.Duration, error) {
				_, _, d, e := srv.setattrNamed(at, root, "d", ext3.SetAttr{Size: &zero})
				return d, e
			}},
		request{"RENAME a directory into itself", vfs.ErrInvalid, false,
			func(at time.Duration) (time.Duration, error) { return srv.rename(at, root, "d", dir, "inside") }},
		request{"WRITE to a directory", vfs.ErrInvalid, false,
			func(at time.Duration) (time.Duration, error) {
				_, d, e := srv.Write(at, dir, 0, blockdev.Cut(nil, 0, []byte("not entries")), true)
				return d, e
			}},
		request{"WRITE to a removed file", vfs.ErrStale, false,
			func(at time.Duration) (time.Duration, error) {
				_, d, e := srv.Write(at, gone, 0, blockdev.Cut(nil, 0, []byte("freed inode")), true)
				return d, e
			}})

	freeB, freeI, before := srv.FS().FreeBlocks(), srv.FS().FreeInodes(), listing()
	const at = time.Hour
	for _, r := range requests {
		hits, misses, _ := srv.FS().CacheStats()
		done, err := r.send(at)
		if err != r.want {
			t.Errorf("%s: %v, want %v", r.what, err, r.want)
		}
		if h, m, _ := srv.FS().CacheStats(); r.early && (done != at || h != hits || m != misses) {
			t.Errorf("%s: refused after %v and %d block fetches, want neither", r.what, done-at, h-hits+m-misses)
		}
	}
	if b, i := srv.FS().FreeBlocks(), srv.FS().FreeInodes(); b != freeB || i != freeI {
		t.Errorf("refused requests moved the free counts: %d/%d -> %d/%d", freeB, freeI, b, i)
	}
	if after := listing(); after != before {
		t.Errorf("refused requests changed the export's root: %q -> %q", before, after)
	}
	if st, _, err := srv.getattr(0, file); err != nil || st.Size != 0 {
		t.Errorf("file after the refused requests: size %d, %v", st.Size, err)
	}
}

// TestWarmOpenReadCloseAllocatesNothing holds the client's meta-data path to
// no heap object per operation: once a file's handle, name, attributes and
// pages are cached, opening it, reading it whole and closing it allocate
// nothing on any version, the RPCs each version sends included (v2 and v3
// revalidate with GETATTR, v4 sends OPEN, OPEN_CONFIRM and CLOSE).
func TestWarmOpenReadCloseAllocatesNothing(t *testing.T) {
	for _, ver := range []Version{V2, V3, V4} {
		c, _, _ := rig(t, ver)
		at, err := c.Mkdir(0, "/d", 0o755)
		if err != nil {
			t.Fatalf("%v mkdir: %v", ver, err)
		}
		f, at, err := c.Create(at, "/d/f", 0o644)
		if err != nil {
			t.Fatalf("%v create: %v", ver, err)
		}
		payload := bytes.Repeat([]byte("warm"), 2048) // two pages
		if _, at, err = f.WriteAt(at, 0, payload); err != nil {
			t.Fatalf("%v write: %v", ver, err)
		}
		if at, err = f.Close(at); err != nil {
			t.Fatalf("%v close: %v", ver, err)
		}
		buf := make([]byte, len(payload))
		cycle := func() {
			f, done, err := c.Open(at, "/d/f")
			if err != nil {
				t.Fatalf("%v open: %v", ver, err)
			}
			n, done, err := f.ReadAt(done, 0, buf)
			if err != nil || n != len(buf) {
				t.Fatalf("%v read: n=%d err=%v", ver, n, err)
			}
			if at, err = f.Close(done); err != nil {
				t.Fatalf("%v close: %v", ver, err)
			}
		}
		cycle()
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("%v: a warm open, read and close allocated %v objects, want 0", ver, n)
		}
		if !bytes.Equal(buf, payload) {
			t.Fatalf("%v read-back mismatch", ver)
		}
	}
}
