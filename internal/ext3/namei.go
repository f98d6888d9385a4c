package ext3

import (
	"strings"
	"time"

	"repro/internal/vfs"
)

// This file is the resolver: it turns a path into the inode, or the (parent
// directory, final name) pair, that the namespace engine (inodeops.go) is
// called with. Only a client that runs the file system itself walks paths
// here, which is the iSCSI side of the paper's comparison; the NFS client walks
// them with one LOOKUP per component and the server sees dirLookup alone. The
// two entry points, namei and nameiParent, refuse an unmounted filesystem and
// a malformed path (vfs.RelPath, vfs.ParentRel) before anything is read.

// maxSymlinkDepth bounds symlink recursion during resolution.
const maxSymlinkDepth = 8

// dcacheKey identifies a dentry.
type dcacheKey struct {
	dir  Ino
	name string
}

// dirIndex is the name index of one directory larger than one block: every
// live name, "." and ".." included, with the file block holding its entry.
// It is host CPU only. A lookup or removal still fetches the blocks a scan
// would, in the same order, and only stops comparing names in each of them.
// The dcache, by contrast, is simulated behaviour: its hit fetches none of
// the directory's blocks.
//
// Beside the names it keeps each block's insert hint, room: 1 + the largest
// record slack (rec - used) a failed insert walked past in that block, 0
// where that is unknown. An insert needing more skips the block's parse, not
// its fetch: the full walk would choose the same record.
//
// Invariant: while mounted, a directory's blocks change only through
// addEntry and removeEntry, which keep its index current and forget the hint
// of the block they touch, and RenameAt's ".." rewrite, which drops the
// index. WriteFileAt and SetAttrAt refuse directories, and the shared LUN
// carries no file system. freeInode drops the index, because inode numbers
// are reused; Unmount and Crash drop every index.
type dirIndex struct {
	slots map[string]dirSlot
	room  []uint16 // by file block
}

type dirSlot struct {
	fb  int64 // file block holding the entry
	ino Ino
	ft  byte
}

// slot returns name's entry in the index; x may be nil (no index).
func (x *dirIndex) slot(name string) (dirSlot, bool) {
	if x == nil {
		return dirSlot{}, false
	}
	s, ok := x.slots[name]
	return s, ok
}

// fits reports whether file block fb may have room for a record of need
// bytes: false only when a failed insert found less there and no entry was
// added to or removed from the block since.
func (x *dirIndex) fits(fb int64, need int) bool {
	return x == nil || fb >= int64(len(x.room)) || x.room[fb] == 0 || int(x.room[fb]) > need
}

// full records that a failed insert found at most slack bytes in fb.
func (x *dirIndex) full(fb int64, slack int) {
	if x == nil {
		return
	}
	for int64(len(x.room)) <= fb {
		x.room = append(x.room, 0)
	}
	x.room[fb] = uint16(slack + 1)
}

// touched forgets fb's hint: an entry was added to or removed from it.
func (x *dirIndex) touched(fb int64) {
	if x != nil && fb < int64(len(x.room)) {
		x.room[fb] = 0
	}
}

// dirRef is a block a lookup walked past, kept to build the index from.
type dirRef struct {
	fb   int64
	data []byte
}

// dirLookup looks up name in directory dirIno. Each directory data block and
// inode-table block touched is fetched through the buffer cache, so cold
// lookups generate the two-transactions-per-level pattern of Figure 4. A
// dentry-cache hit, as in Linux, fetches none of the directory's blocks (the
// inode read still goes through the buffer cache). Otherwise the walk fetches
// the blocks up to the one holding name, or all of them on a miss, and the
// directory's dirIndex, if it has one, says which block that is; the first
// miss in an unindexed directory past one block builds its index from the
// blocks the walk fetched.
func (fs *FS) dirLookup(at time.Duration, dirIno Ino, name string) (Ino, byte, time.Duration, error) {
	dn, done, err := fs.getInode(at, dirIno)
	if err != nil {
		return 0, 0, done, err
	}
	if !vfs.Mode(dn.Mode).IsDir() {
		return 0, 0, done, vfs.ErrNotDir
	}
	if ino, ok := fs.dcache[dcacheKey{dirIno, name}]; ok {
		n, d2, err := fs.getInode(done, ino)
		if err != nil {
			delete(fs.dcache, dcacheKey{dirIno, name})
		} else {
			return ino, ftypeOfMode(vfs.Mode(n.Mode)), d2, nil
		}
	}
	idx := fs.names[dirIno]
	slot, indexed := idx.slot(name)
	build := idx == nil && dn.Size > BlockSize
	var local [4]dirRef
	walked := local[:0]
	it := fs.dirBlocks(done, dn)
	for it.next() {
		ino, ft, ok := slot.ino, slot.ft, indexed && it.cur == slot.fb
		if idx == nil {
			ino, ft, ok = direntFind(it.b.data, name)
		}
		if ok {
			// "." and ".." are not cached: a directory's ".." changes when it
			// moves, and both outlive an rmdir under a reusable inode number.
			if name != "." && name != ".." {
				fs.dcache[dcacheKey{dirIno, name}] = ino
			}
			return ino, ft, it.done, nil
		}
		if build {
			walked = append(walked, dirRef{it.cur, it.b.data})
		}
	}
	if it.err != nil {
		return 0, 0, it.done, it.err
	}
	if build {
		fs.indexDir(dirIno, walked)
	}
	return 0, 0, it.done, vfs.ErrNotExist
}

// indexDir gives directory dir the index of the blocks a lookup walked. A
// corrupt record or a repeated name leaves it unindexed, and lookups scan.
func (fs *FS) indexDir(dir Ino, blocks []dirRef) {
	slots := make(map[string]dirSlot)
	for _, b := range blocks {
		w := direntWalker{block: b.data}
		for w.next() {
			if w.name == nil {
				continue
			}
			if _, dup := slots[string(w.name)]; dup {
				return
			}
			slots[string(w.name)] = dirSlot{b.fb, w.ino(), w.ftype()}
		}
		if w.err != nil {
			return
		}
	}
	fs.names[dir] = &dirIndex{slots: slots}
}

// namei resolves path to an inode number. followFinal selects whether a
// symlink in the final component is followed (stat) or returned (lstat,
// unlink, readlink).
func (fs *FS) namei(at time.Duration, path string, followFinal bool) (Ino, time.Duration, error) {
	if !fs.mounted {
		return 0, at, vfs.ErrStale
	}
	rel, err := vfs.RelPath(path)
	if err != nil {
		return 0, at, err
	}
	return fs.walk(at, RootIno, rel, followFinal, 0)
}

// walk resolves the components of rel (validated: vfs.RelPath, vfs.CheckRel)
// starting from dir, stepping through the string in place.
func (fs *FS) walk(at time.Duration, dir Ino, rel string, followFinal bool, depth int) (Ino, time.Duration, error) {
	cur := dir
	done := at
	for rel != "" {
		var comp string
		comp, rel, _ = strings.Cut(rel, "/")
		ino, ft, d2, err := fs.dirLookup(done, cur, comp)
		if err != nil {
			return 0, d2, err
		}
		done = d2
		final := rel == ""
		if ft == ftSymlink && (!final || followFinal) {
			if depth >= maxSymlinkDepth {
				return 0, done, vfs.ErrInvalid
			}
			target, d3, err := fs.readlinkIno(done, ino)
			if err != nil {
				return 0, d3, err
			}
			done = d3
			trel, base, err := fs.linkParts(target, cur)
			if err != nil {
				return 0, done, err
			}
			resolved, d4, err := fs.walk(done, base, trel, true, depth+1)
			if err != nil {
				return 0, d4, err
			}
			done = d4
			cur = resolved
			continue
		}
		cur = ino
	}
	return cur, done, nil
}

// linkParts interprets a symlink target relative to dir (or root when
// absolute) and returns the validated relative path plus starting directory.
func (fs *FS) linkParts(target string, dir Ino) (string, Ino, error) {
	if target == "" {
		return "", 0, vfs.ErrInvalid
	}
	if target[0] == '/' {
		rel, err := vfs.RelPath(target)
		return rel, RootIno, err
	}
	return target, dir, vfs.CheckRel(target)
}

// nameiParent resolves everything but the final component, returning the
// parent directory inode and the final name.
func (fs *FS) nameiParent(at time.Duration, path string) (Ino, string, time.Duration, error) {
	if !fs.mounted {
		return 0, "", at, vfs.ErrStale
	}
	rel, name, err := vfs.ParentRel(path) // cannot operate on "/" itself
	if err != nil {
		return 0, "", at, err
	}
	dir, done, err := fs.walk(at, RootIno, rel, true, 0)
	if err != nil {
		return 0, "", done, err
	}
	return dir, name, done, nil
}

// readlinkIno reads a symlink's target from its data block.
func (fs *FS) readlinkIno(at time.Duration, ino Ino) (string, time.Duration, error) {
	n, done, err := fs.getInode(at, ino)
	if err != nil {
		return "", done, err
	}
	if !vfs.Mode(n.Mode).IsSymlink() {
		return "", done, vfs.ErrInvalid
	}
	if n.Direct[0] == 0 || n.Size == 0 || n.Size > BlockSize {
		return "", done, vfs.ErrIO
	}
	b, done, err := fs.bc.get(done, int64(n.Direct[0]), false)
	if err != nil {
		return "", done, err
	}
	return string(b.data[:n.Size]), done, nil
}
