package ext3

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/vfs"
)

// TestDotEntriesAreNeverServedStale: ".." follows a directory that moves, and
// neither dot entry of a removed directory survives under a reused inode.
func TestDotEntriesAreNeverServedStale(t *testing.T) {
	fs, _ := newTestFS(t)
	for _, p := range []string{"/a", "/b", "/a/c"} {
		if _, err := fs.Mkdir(0, p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	ino := func(p string) uint64 {
		t.Helper()
		st, _, err := fs.Stat(0, p)
		if err != nil {
			t.Fatalf("stat %s: %v", p, err)
		}
		return st.Ino
	}
	if ino("/a/c/..") != ino("/a") {
		t.Fatal("/a/c/.. is not /a")
	}
	if _, err := fs.Rename(0, "/a/c", "/b/c"); err != nil {
		t.Fatal(err)
	}
	if got, want := ino("/b/c/.."), ino("/b"); got != want {
		t.Errorf("/b/c/.. is inode %d after the move, want /b's %d", got, want)
	}
	// rmdir, then a new directory elsewhere on the freed inode number.
	if _, err := fs.Rmdir(0, "/b/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mkdir(0, "/a/n", 0o755); err != nil {
		t.Fatal(err)
	}
	if got, want := ino("/a/n/.."), ino("/a"); got != want {
		t.Errorf("/a/n/.. is inode %d, want /a's %d", got, want)
	}
}

// fuzzGeometry is the 2048-block filesystem FuzzInodeOps runs on: four small
// groups, 512 inodes, a journal that wraps within one input.
var fuzzGeometry = Options{JournalBlocks: 256, BlocksPerGroup: 512, InodesPerGroup: 128}

// fuzzFS mounts it with a cache that evicts within one input, on a pool that
// poisons what is given back: a buffer recycled while an operation still uses
// it turns into a bitmap, pointer or directory block of 0xEE bytes.
func fuzzFS(t testing.TB) (*FS, *blockdev.Local) {
	dev := blockdev.NewTestbedArray(2048)
	opts := fuzzGeometry
	opts.CacheBlocks, opts.Pool = 16, &blockdev.Pool{Poison: true}
	dev.Store().SetPool(opts.Pool)
	if _, err := Mkfs(0, dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, _, err := Mount(0, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev
}

// Opcodes of the byte language FuzzInodeOps decodes. An inode is two bytes
// (any number up to 65535: live, stale, never allocated, zero, out of range),
// a name or target a length byte and that many raw bytes (250 and up stand for
// 255, 256, 300, 4096, 4097 and 5000 bytes of 'x'), a size eight bytes.
const (
	fzLookup = iota
	fzGetattr
	fzSetattr
	fzMkdir
	fzCreate
	fzSymlink
	fzReadlink
	fzRemove
	fzRmdir
	fzRename
	fzLink
	fzReaddir
	fzWrite
	fzRemount
	fzOps
)

type fuzzEnc struct{ bytes.Buffer }

func (e *fuzzEnc) op(code byte, inos ...Ino) *fuzzEnc {
	e.WriteByte(code)
	for _, ino := range inos {
		e.Write(binary.BigEndian.AppendUint16(nil, uint16(ino)))
	}
	return e
}

func (e *fuzzEnc) str(s string) *fuzzEnc {
	e.WriteByte(byte(len(s)))
	e.WriteString(s)
	return e
}

type fuzzDec struct{ data []byte }

func (d *fuzzDec) byte() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *fuzzDec) ino() Ino { return Ino(d.byte())<<8 | Ino(d.byte()) }

func (d *fuzzDec) str() string {
	n := int(d.byte())
	if long := []int{255, 256, 300, 4096, 4097, 5000}; n >= 250 {
		return strings.Repeat("x", long[n-250])
	}
	n = min(n, len(d.data))
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

func (d *fuzzDec) size() int64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(d.byte())
	}
	return int64(v)
}

// fuzzSeedFromScript replays the golden's script on the fuzz geometry and
// records each line as the by-inode call the path adapter makes for it, with
// the inode numbers that call saw. Allocation is deterministic, so the bytes
// replay to the same calls on a fresh filesystem of the same geometry.
func fuzzSeedFromScript(t testing.TB) []byte {
	fs, _ := fuzzFS(t)
	var e fuzzEnc
	for _, line := range strings.Split(strings.TrimSpace(namespaceScript), "\n") {
		f := strings.Fields(line)
		if f[0] == "noatime" {
			continue
		}
		if f[0] == "cold" {
			e.op(fzRemount)
			f = f[1:]
		}
		last := f[len(f)-1]
		dir, name, _, _ := fs.nameiParent(0, last)
		ino, _, _ := fs.namei(0, last, f[0] != "readlink")
		switch f[0] {
		case "mkdir":
			e.op(fzMkdir, dir).str(name)
		case "rmdir":
			e.op(fzRmdir, dir).str(name)
		case "create":
			e.op(fzCreate, dir).str(name)
		case "populate":
			for i := 0; i < 8; i++ { // enough of them; a long seed is slow to minimise
				e.op(fzCreate, ino).str(fmt.Sprintf("file-with-a-long-name-to-fill-blocks-%04d", i))
			}
			f[2] = "8"
		case "write":
			e.op(fzWrite, ino).str(f[2][:1])
		case "symlink":
			e.op(fzSymlink, dir).str(name).str(f[1])
		case "readlink":
			e.op(fzReadlink, ino)
		case "link":
			target, _, _ := fs.namei(0, f[1], false)
			e.op(fzLink, target, dir).str(name)
		case "unlink":
			e.op(fzRemove, dir).str(name)
		case "rename":
			odir, oname, _, _ := fs.nameiParent(0, f[1])
			e.op(fzRename, odir, dir).str(oname).str(name)
		case "readdir":
			e.op(fzReaddir, ino)
		case "stat", "access", "open":
			e.op(fzLookup, dir).str(name).op(fzGetattr, ino)
		case "chmod", "chown", "utimes":
			e.op(fzSetattr, ino).WriteByte(2)
		case "truncate":
			e.op(fzSetattr, ino).WriteByte(1)
			size, _ := strconv.ParseInt(f[2], 10, 64)
			e.Write(binary.BigEndian.AppendUint64(nil, uint64(size)))
		}
		nsExec(fs, 0, f)
	}
	return e.Bytes()
}

// checkInodeReuse fails t if an inode is both cached and free for reuse, or
// cached under two numbers: freeInode gives an inode to the free list only
// as the icache forgets it, and newInode gives it to one number at a time. An
// inode shared by two numbers would carry one file's changes into another.
func checkInodeReuse(t *testing.T, fs *FS) {
	t.Helper()
	owner := make(map[*inode]Ino, len(fs.icache))
	for ino, n := range fs.icache {
		if other, ok := owner[n]; ok {
			t.Fatalf("inodes %d and %d share one cached inode", other, ino)
		}
		owner[n] = ino
	}
	for _, n := range fs.free {
		if ino, ok := owner[n]; ok {
			t.Fatalf("inode %d is cached and free for reuse", ino)
		}
	}
}

// FuzzInodeOps decodes bytes into by-inode calls, the surface nfs.Server
// hands to whatever a client sends: no call may panic or hang whatever inode
// numbers, names, targets and sizes it is given, no size it accepts may be one
// a file cannot have, the filesystem must still unmount and mount afterwards,
// and the tree below the root must still be finite (a walk meets no more
// directories than there are inodes) and list only names a lookup can name.
func FuzzInodeOps(f *testing.F) {
	f.Add(fuzzSeedFromScript(f))
	var e fuzzEnc
	e.op(fzMkdir, RootIno).str("a").op(fzMkdir, 129).str("b").op(fzRename, RootIno, 257).str("a").str("c")
	e.op(fzRmdir, RootIno).str("a").op(fzMkdir, 129).str("stale").op(fzSetattr, 129).WriteByte(1)
	f.Add(e.Bytes())
	// A file (inode 3) that grows past its direct blocks on the 16-block
	// cache, 160 KB and after a remount 200 KB: with everything else dirty the
	// now clean indirect block is evicted by its own insert and stays in use
	// across the bitmap fetches that follow.
	var big fuzzEnc
	big.op(fzCreate, RootIno).str("big").op(fzWrite, 3).WriteByte(253)
	big.op(fzRemount).op(fzWrite, 3).WriteByte(255)
	big.op(fzRemove, RootIno).str("big")
	f.Add(big.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		fs, dev := fuzzFS(t)
		d := fuzzDec{data: data}
		now := time.Duration(0)
		for len(d.data) > 0 {
			now += time.Second
			switch d.byte() % fzOps {
			case fzLookup:
				fs.LookupAt(now, d.ino(), d.str())
			case fzGetattr:
				fs.GetAttrAt(now, d.ino())
			case fzSetattr:
				ino, which := d.ino(), d.byte()
				var sa SetAttr
				if which&1 != 0 {
					size := d.size()
					sa.Size = &size
				}
				if which&2 != 0 {
					mode, id, when := vfs.Mode(which)<<4, uint32(which), now
					sa.Mode, sa.UID, sa.GID, sa.Atime, sa.Mtime = &mode, &id, &id, &when, &when
				}
				if st, _, err := fs.SetAttrAt(now, ino, sa); err == nil && (st.Size < 0 || st.Size > maxFileSize) {
					t.Fatalf("setattr left inode %d with size %d", ino, st.Size)
				}
			case fzMkdir:
				fs.MkdirAt(now, d.ino(), d.str(), 0o755)
			case fzCreate:
				fs.CreateAt(now, d.ino(), d.str(), 0o644)
			case fzSymlink:
				fs.SymlinkAt(now, d.ino(), d.str(), d.str())
			case fzReadlink:
				fs.ReadlinkAt(now, d.ino())
			case fzRemove:
				fs.RemoveAt(now, d.ino(), d.str())
			case fzRmdir:
				fs.RmdirAt(now, d.ino(), d.str())
			case fzRename:
				odir, ndir := d.ino(), d.ino()
				fs.RenameAt(now, odir, d.str(), ndir, d.str())
			case fzLink:
				fs.LinkAt(now, d.ino(), d.ino(), d.str())
			case fzReaddir:
				fs.ReadDirAt(now, d.ino())
			case fzWrite:
				ino, content := d.ino(), d.str()
				fs.WriteFileAt(now, ino, 0, blockdev.Cut(nil, 0, bytes.Repeat([]byte(content), 40)))
			case fzRemount:
				fs, now = fuzzRemount(t, fs, dev, now)
			}
			checkInodeReuse(t, fs)
		}
		fs, now = fuzzRemount(t, fs, dev, now)
		seen, queue := 0, []Ino{RootIno}
		for len(queue) > 0 {
			dir := queue[0]
			queue = queue[1:]
			if seen++; seen > int(fs.sb.InodesCount) {
				t.Fatalf("the walk from the root met more than %d directories: the tree is not finite", fs.sb.InodesCount)
			}
			ents, _, _ := fs.ReadDirAt(now, dir)
			for _, ent := range ents {
				if ent.Name == "" || len(ent.Name) > vfs.MaxNameLen || strings.Contains(ent.Name, "/") {
					t.Fatalf("directory %d lists an entry no lookup can name: %q", dir, ent.Name)
				}
				if ent.Mode.IsDir() {
					queue = append(queue, Ino(ent.Ino))
				}
			}
		}
	})
}

func fuzzRemount(t *testing.T, fs *FS, dev *blockdev.Local, now time.Duration) (*FS, time.Duration) {
	now, err := fs.Unmount(now)
	if err != nil {
		t.Fatalf("unmount: %v", err)
	}
	if fs, now, err = Mount(now, dev, fs.opts); err != nil {
		t.Fatalf("mount: %v", err)
	}
	return fs, now
}
