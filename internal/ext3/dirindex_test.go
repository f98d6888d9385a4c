package ext3

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// indexHarness runs namespace operations on one file system and, after each,
// checks every directory's dirLookup against a scan of its blocks.
type indexHarness struct {
	t       *testing.T
	dev     *blockdev.Local
	opts    Options
	fs      *FS
	at      time.Duration
	rng     *rand.Rand
	dirs    []Ino                   // live directories, ascending
	probes  map[Ino][]string        // every name ever used in a directory
	used    map[Ino]map[string]bool // the same, as a set
	corrupt Ino                     // directory whose cached block holds a bad record
}

// neverNames are probed in every directory and never created ("~" is not in
// the random alphabet): each check is a miss in every directory.
var neverNames = []string{"~", "~never-created", "~" + strings.Repeat("q", 59)}

const nameAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_"

func newIndexHarness(t *testing.T, seed int64) *indexHarness {
	h := &indexHarness{
		t:      t,
		dev:    blockdev.NewTestbedArray(32768),
		opts:   Options{NoAtime: true},
		rng:    sim.NewRNG(seed),
		probes: map[Ino][]string{},
		used:   map[Ino]map[string]bool{},
	}
	if _, err := Mkfs(0, h.dev, h.opts); err != nil {
		t.Fatal(err)
	}
	h.mount()
	return h
}

func (h *indexHarness) mount() {
	var err error
	if h.fs, h.at, err = Mount(h.at, h.dev, h.opts); err != nil {
		h.t.Fatalf("mount: %v", err)
	}
	h.survey()
}

// survey lists the live directories by walking the tree with ReadDirAt,
// which steps a directory's blocks without its index.
func (h *indexHarness) survey() {
	h.dirs = []Ino{RootIno}
	for i := 0; i < len(h.dirs); i++ {
		ents, done, err := h.fs.ReadDirAt(h.at, h.dirs[i])
		if err != nil {
			h.t.Fatalf("readdir %d: %v", h.dirs[i], err)
		}
		h.at = done
		for _, e := range ents {
			if e.Mode.IsDir() {
				h.dirs = append(h.dirs, Ino(e.Ino))
			}
		}
	}
	slices.Sort(h.dirs)
}

// use adds name to dir's probe names.
func (h *indexHarness) use(dir Ino, name string) string {
	if h.used[dir] == nil {
		h.used[dir] = map[string]bool{}
	}
	if !h.used[dir][name] {
		h.used[dir][name] = true
		h.probes[dir] = append(h.probes[dir], name)
	}
	return name
}

// pick returns a name used in dir before (never a scripted, upper-case one)
// or a fresh one.
func (h *indexHarness) pick(dir Ino) string {
	if p := h.probes[dir]; len(p) > 0 && h.rng.Intn(2) == 0 {
		if name := p[h.rng.Intn(len(p))]; name[0] < 'A' || name[0] > 'Z' {
			return name
		}
	}
	return h.fresh(dir)
}

// fresh returns a random name of 1 to 60 bytes not used in dir before.
func (h *indexHarness) fresh(dir Ino) string {
	for {
		if name := h.randomName(); !h.used[dir][name] {
			return h.use(dir, name)
		}
	}
}

func (h *indexHarness) randomName() string {
	b := make([]byte, 1+h.rng.Intn(60))
	for i := range b {
		b[i] = nameAlphabet[h.rng.Intn(len(nameAlphabet))]
	}
	return string(b)
}

// scan is the reference: a direntFind scan of dir's blocks, read with peek.
func (h *indexHarness) scan(dir Ino, name string) (Ino, byte, error) {
	n := h.fs.icache[dir]
	for fb := int64(0); fb*BlockSize < int64(n.Size); fb++ {
		b := h.fs.bc.peek(h.fs.bmapPeek(n, fb))
		if b == nil {
			h.t.Fatalf("block %d of directory %d is not cached", fb, dir)
		}
		if ino, ft, ok := direntFind(b.data, name); ok {
			return ino, ft, nil
		}
	}
	return 0, 0, vfs.ErrNotExist
}

// check compares dirLookup with scan for every directory and probe name,
// past the dcache, then the index's white-box rules: none for a one-block
// directory or one with a corrupt record, one for any other directory past
// one block (every check misses in every directory).
func (h *indexHarness) check(what string) {
	h.t.Helper()
	for _, dir := range h.dirs {
		names := append(append([]string{".", ".."}, neverNames...), h.probes[dir]...)
		for _, name := range names {
			delete(h.fs.dcache, dcacheKey{dir, name})
			ino, ft, _, err := h.fs.dirLookup(h.at, dir, name)
			wino, wft, werr := h.scan(dir, name)
			if ino != wino || ft != wft || err != werr {
				h.t.Fatalf("after %s: directory %d, %q: dirLookup (%d, %d, %v), scan (%d, %d, %v)",
					what, dir, name, ino, ft, err, wino, wft, werr)
			}
		}
		size, indexed := h.fs.icache[dir].Size, h.fs.names[dir] != nil
		switch {
		case size <= BlockSize && indexed:
			h.t.Fatalf("after %s: one-block directory %d has an index", what, dir)
		case dir == h.corrupt && indexed:
			h.t.Fatalf("after %s: directory %d with a corrupt record has an index", what, dir)
		case size > BlockSize && dir != h.corrupt && !indexed:
			h.t.Fatalf("after %s: directory %d of %d blocks has no index after a miss", what, dir, size/BlockSize)
		}
	}
}

// did takes an operation's result: an error a random operation can meet is
// fine, any other fails. The tree is surveyed after a successful change of
// directories, and every directory is checked.
func (h *indexHarness) did(what string, done time.Duration, err error, dirsChanged bool) error {
	h.t.Helper()
	h.at = max(h.at, done)
	for _, ok := range []error{vfs.ErrExist, vfs.ErrNotExist, vfs.ErrNotEmpty, vfs.ErrIsDir, vfs.ErrNotDir, vfs.ErrInvalid} {
		if errors.Is(err, ok) {
			h.check(what)
			return err
		}
	}
	if err != nil {
		h.t.Fatalf("%s: %v", what, err)
	}
	if dirsChanged {
		h.survey()
	}
	h.check(what)
	return nil
}

func (h *indexHarness) create(dir Ino, name string) {
	_, _, done, err := h.fs.CreateAt(h.at, dir, h.use(dir, name), 0o644)
	h.did(fmt.Sprintf("create %d/%s", dir, name), done, err, false)
}

func (h *indexHarness) mkdir(dir Ino, name string) (Ino, error) {
	ino, _, done, err := h.fs.MkdirAt(h.at, dir, h.use(dir, name), 0o755)
	return ino, h.did(fmt.Sprintf("mkdir %d/%s", dir, name), done, err, true)
}

// mustMkdir is a scripted mkdir, which must succeed.
func (h *indexHarness) mustMkdir(dir Ino, name string) Ino {
	ino, err := h.mkdir(dir, name)
	if err != nil {
		h.t.Fatalf("mkdir %d/%s: %v", dir, name, err)
	}
	return ino
}

func (h *indexHarness) rename(odir Ino, oname string, ndir Ino, nname string) {
	done, err := h.fs.RenameAt(h.at, odir, oname, ndir, h.use(ndir, nname))
	h.did(fmt.Sprintf("rename %d/%s %d/%s", odir, oname, ndir, nname), done, err, true)
}

// randomOp is one create, unlink, link, mkdir, rmdir or rename with names
// picked by pick.
func (h *indexHarness) randomOp() {
	r := h.rng
	dir := h.dirs[r.Intn(len(h.dirs))]
	name := h.pick(dir)
	switch op := r.Intn(20); {
	case op < 9 || op == 14 && len(h.dirs) >= 8:
		h.create(dir, name)
	case op < 12:
		done, err := h.fs.RemoveAt(h.at, dir, name)
		h.did(fmt.Sprintf("unlink %d/%s", dir, name), done, err, false)
	case op < 14:
		src := h.dirs[r.Intn(len(h.dirs))]
		target, ft, err := h.scan(src, h.pick(src))
		if err != nil || ft != ftRegular {
			return
		}
		_, done, err := h.fs.LinkAt(h.at, target, dir, name)
		h.did(fmt.Sprintf("link %d %d/%s", target, dir, name), done, err, false)
	case op == 14:
		h.mkdir(dir, name)
	case op == 15:
		done, err := h.fs.RmdirAt(h.at, dir, name)
		h.did(fmt.Sprintf("rmdir %d/%s", dir, name), done, err, true)
	default:
		ndir := h.dirs[r.Intn(len(h.dirs))]
		h.rename(dir, name, ndir, h.pick(ndir))
	}
}

// TestIndexMatchesScan: after every namespace operation, for every directory
// and every name a directory ever held, plus ".", ".." and names never
// created, dirLookup answers what a scan of the directory's blocks answers.
// Random creates, unlinks, links, mkdirs, rmdirs and renames with names of 1
// to 60 bytes run around a script that grows a directory past two blocks (so
// it grows with an index), moves it to another parent, unmounts, corrupts
// and restores one of its records while it is unindexed, crashes, then drains
// and removes it and makes a directory that reuses its inode.
func TestIndexMatchesScan(t *testing.T) {
	steps := 400
	if testing.Short() {
		steps = 100
	}
	h := newIndexHarness(t, 27)
	big := h.mustMkdir(RootIno, "BIG")
	other := h.mustMkdir(RootIno, "OTHER")
	for i := 0; i < steps; i++ {
		h.randomOp()
	}
	for i := 0; h.fs.icache[big].Size < 3*BlockSize; i++ {
		h.create(big, h.fresh(big))
	}
	for i := 0; i < steps; i++ {
		h.randomOp()
	}

	h.rename(RootIno, "BIG", other, "BIG")

	at, err := h.fs.Unmount(h.at)
	if err != nil {
		t.Fatal(err)
	}
	h.at = at
	h.mount()
	if h.fs.names[big] != nil {
		t.Fatal("an index survived the remount")
	}
	n, _, err := h.fs.getInode(h.at, big)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := h.fs.bc.get(h.at, h.fs.bmapPeek(n, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	w := direntWalker{block: b.data}
	for i := 0; i < 10 && w.next(); i++ {
	}
	rec := binary.BigEndian.Uint16(b.data[w.off+4:])
	binary.BigEndian.PutUint16(b.data[w.off+4:], rec+2)
	h.corrupt = big
	h.check("a record of an unindexed directory corrupted")
	binary.BigEndian.PutUint16(b.data[w.off+4:], rec)
	h.corrupt = 0
	h.check("the record restored")

	for i := 0; i < steps; i++ {
		h.randomOp()
	}
	h.fs.Crash()
	h.mount()
	h.check("crash and remount")

	ents, _, err := h.fs.ReadDirAt(h.at, big)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Mode.IsDir() {
			h.rename(big, e.Name, RootIno, h.fresh(RootIno))
			continue
		}
		done, err := h.fs.RemoveAt(h.at, big, e.Name)
		h.did("drain "+e.Name, done, err, false)
	}
	if h.fs.names[big] == nil || h.fs.icache[big].Size < 3*BlockSize {
		t.Fatal("the drained directory is not an indexed one of three blocks")
	}
	done, err := h.fs.RmdirAt(h.at, other, "BIG")
	h.did("rmdir the drained directory", done, err, true)
	if err != nil {
		t.Fatal(err)
	}
	if reused := h.mustMkdir(RootIno, "REUSE"); reused != big {
		t.Fatalf("mkdir took inode %d, not the removed directory's %d", reused, big)
	}
	for i := 0; i < steps; i++ {
		h.randomOp()
	}
}

// largeDirectory makes directory /d with 700 names in three blocks.
func largeDirectory(tb testing.TB) (*FS, Ino) {
	dev := blockdev.NewTestbedArray(32768)
	if _, err := Mkfs(0, dev, Options{}); err != nil {
		tb.Fatal(err)
	}
	fs, _, err := Mount(0, dev, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	dir, _, _, err := fs.MkdirAt(0, RootIno, "d", 0o755)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 700; i++ {
		if _, _, _, err := fs.CreateAt(0, dir, fmt.Sprintf("f%04d", i), 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	if size := fs.icache[dir].Size; size != 3*BlockSize {
		tb.Fatalf("directory of %d bytes, want three blocks", size)
	}
	return fs, dir
}

// BenchmarkLookupMissInLargeDirectory: LookupAt of an absent name in a
// directory of 700 names in three cached blocks.
func BenchmarkLookupMissInLargeDirectory(b *testing.B) {
	fs, dir := largeDirectory(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := fs.LookupAt(0, dir, "absent"); err != vfs.ErrNotExist {
			b.Fatal(err)
		}
	}
}
