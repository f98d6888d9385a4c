package ext3

import (
	"strings"
	"time"

	"repro/internal/vfs"
)

// This file is the namespace engine: every operation that reads or changes
// the directory tree, addressed the way NFS addresses it, by inode and by
// (directory inode, name). Both of the paper's stacks reach it and nothing
// beside it. nfs.Server calls it directly, because in a file-access protocol
// the *client* resolves paths and sends handles (one of the two architectural
// differences the paper studies); the iSCSI client's mounted file system calls
// it through ops.go, which puts a path walk (namei.go) in front of the same
// calls. One file system, two places to put it.
//
// The engine is also the trust boundary. Handles, names, targets and sizes
// arrive from a client on the wire, which need not have checked them, so they
// are checked here and only here: every operation that adds or removes an
// entry runs its names through enter, SymlinkAt checks its target, SetAttrAt
// its size, RenameAt that a directory does not move below itself. Each check comes before anything is allocated or written, the
// argument checks before any virtual time passes. ops.go validates path
// syntax (vfs.RelPath) and nothing else.

// maxFileSize is the largest size bmap can address.
const maxFileSize = (DirectBlocks + PtrsPerBlock + PtrsPerBlock*PtrsPerBlock) * BlockSize

// enter admits an operation that adds or removes the entry called name:
// the filesystem is mounted and name can be one directory entry.
func (fs *FS) enter(name string) error {
	switch {
	case !fs.mounted:
		return vfs.ErrStale
	case name == "" || name == "." || name == ".." || strings.IndexByte(name, '/') >= 0:
		return vfs.ErrInvalid
	case len(name) > vfs.MaxNameLen:
		return vfs.ErrNameTooLong
	}
	return nil
}

// checkSize refuses a file size no block map can hold.
func checkSize(size int64) error {
	if size < 0 || size > maxFileSize {
		return vfs.ErrInvalid
	}
	return nil
}

// statFromInode converts an inode to a vfs.Stat.
func statFromInode(ino Ino, n *inode) vfs.Stat {
	return vfs.Stat{
		Ino:    uint64(ino),
		Mode:   vfs.Mode(n.Mode),
		Nlink:  int(n.Links),
		UID:    n.UID,
		GID:    n.GID,
		Size:   int64(n.Size),
		Blocks: int64(n.Blocks),
		Atime:  time.Duration(n.Atime),
		Mtime:  time.Duration(n.Mtime),
		Ctime:  time.Duration(n.Ctime),
	}
}

// dirBlocks steps through the mapped blocks of a directory, each fetched
// through the buffer cache: the one loop under lookup, insert, remove, list
// and the emptiness test. Declare it before the loop that steps it (a value
// in a for header is copied every iteration). After next returns false, err
// tells a finished walk from a failed one; done is the time so far either way.
type dirBlocks struct {
	fs      *FS
	n       *inode
	fb, nfb int64   // next block to map, blocks in the directory
	cur     int64   // file block of b
	b       *buffer // current block
	done    time.Duration
	err     error
}

func (fs *FS) dirBlocks(at time.Duration, n *inode) dirBlocks {
	return dirBlocks{fs: fs, n: n, nfb: int64((n.Size + BlockSize - 1) / BlockSize), done: at}
}

func (it *dirBlocks) next() bool {
	for it.err == nil && it.fb < it.nfb {
		var lba int64
		it.cur = it.fb
		lba, it.done, it.err = it.fs.bmap(it.done, it.n, it.fb, false, 0)
		it.fb++
		if it.err != nil || lba == 0 {
			continue
		}
		it.b, it.done, it.err = it.fs.bc.get(it.done, lba, false)
		return it.err == nil
	}
	return false
}

// touchDir journals a block of directory dir that an entry was just added to
// or removed from, and the directory's new times.
func (fs *FS) touchDir(at time.Duration, dir Ino, dn *inode, b *buffer) (time.Duration, error) {
	fs.bc.markDirty(b, true)
	fs.journal.add(b)
	dn.Mtime = int64(at)
	dn.Ctime = int64(at)
	return fs.putInode(at, dir, dn)
}

// addEntry inserts (name -> ino) into directory dir, growing it if needed.
func (fs *FS) addEntry(at time.Duration, dir Ino, dn *inode, name string, ino Ino, ftype byte) (time.Duration, error) {
	it := fs.dirBlocks(at, dn)
	for it.next() {
		if direntAdd(it.b.data, name, ino, ftype) {
			fs.entered(dir, name, dirSlot{it.cur, ino, ftype})
			return fs.touchDir(it.done, dir, dn, it.b)
		}
	}
	if it.err != nil {
		return it.done, it.err
	}
	// Grow the directory by one block.
	lba, done, err := fs.bmap(it.done, dn, it.nfb, true, 0)
	if err != nil {
		return done, err
	}
	b, done, err := fs.bc.get(done, lba, true)
	if err != nil {
		return done, err
	}
	direntInitEmpty(b.data)
	if !direntAdd(b.data, name, ino, ftype) {
		return done, vfs.ErrNameTooLong
	}
	fs.entered(dir, name, dirSlot{it.nfb, ino, ftype})
	dn.Size = uint64((it.nfb + 1) * BlockSize)
	return fs.touchDir(done, dir, dn, b)
}

// entered records a new entry of dir in the dcache and in dir's index.
func (fs *FS) entered(dir Ino, name string, s dirSlot) {
	fs.dcache[dcacheKey{dir, name}] = s.ino
	if idx := fs.names[dir]; idx != nil {
		idx[name] = s
	}
}

// removeEntry deletes name from directory dir. In an indexed directory it
// steps to the block the index names and removes the entry there.
func (fs *FS) removeEntry(at time.Duration, dir Ino, dn *inode, name string) (time.Duration, error) {
	idx := fs.names[dir]
	slot, indexed := idx[name]
	it := fs.dirBlocks(at, dn)
	for it.next() {
		if (idx == nil || indexed && it.cur == slot.fb) && direntRemove(it.b.data, name) {
			delete(fs.dcache, dcacheKey{dir, name})
			delete(idx, name)
			return fs.touchDir(it.done, dir, dn, it.b)
		}
	}
	if it.err != nil {
		return it.done, it.err
	}
	return it.done, vfs.ErrNotExist
}

// absent is the prelude of an operation about to add name to dir: it returns
// dir's inode once a lookup has shown that dir is a directory and holds no
// such name.
func (fs *FS) absent(at time.Duration, dir Ino, name string) (*inode, time.Duration, error) {
	pn, done, err := fs.getInode(at, dir)
	if err != nil {
		return nil, done, err
	}
	if _, _, done, err = fs.dirLookup(done, dir, name); err == nil {
		err = vfs.ErrExist
	} else if err == vfs.ErrNotExist {
		err = nil
	}
	return pn, done, err
}

// LookupAt resolves name within directory dir.
func (fs *FS) LookupAt(at time.Duration, dir Ino, name string) (Ino, vfs.Stat, time.Duration, error) {
	if !fs.mounted {
		return 0, vfs.Stat{}, at, vfs.ErrStale
	}
	ino, _, done, err := fs.dirLookup(at, dir, name)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	n, done, err := fs.getInode(done, ino)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	return ino, statFromInode(ino, n), fs.charge(done, 1), nil
}

// GetAttrAt returns attributes of ino.
func (fs *FS) GetAttrAt(at time.Duration, ino Ino) (vfs.Stat, time.Duration, error) {
	if !fs.mounted {
		return vfs.Stat{}, at, vfs.ErrStale
	}
	n, done, err := fs.getInode(at, ino)
	if err != nil {
		return vfs.Stat{}, done, err
	}
	if n.Links == 0 {
		return vfs.Stat{}, done, vfs.ErrStale
	}
	return statFromInode(ino, n), fs.charge(done, 1), nil
}

// SetAttr is a partial attribute update (chmod/chown/utimes/truncate
// combined, like the NFS SETATTR procedure).
type SetAttr struct {
	Mode     *vfs.Mode
	UID, GID *uint32
	Size     *int64
	Atime    *time.Duration
	Mtime    *time.Duration
}

// SetAttrAt applies sa to ino and returns the new attributes.
func (fs *FS) SetAttrAt(at time.Duration, ino Ino, sa SetAttr) (vfs.Stat, time.Duration, error) {
	if !fs.mounted {
		return vfs.Stat{}, at, vfs.ErrStale
	}
	if sa.Size != nil {
		if err := checkSize(*sa.Size); err != nil {
			return vfs.Stat{}, at, err
		}
	}
	n, done, err := fs.getInode(at, ino)
	if err != nil {
		return vfs.Stat{}, done, err
	}
	if sa.Size != nil {
		if vfs.Mode(n.Mode).IsDir() {
			return vfs.Stat{}, done, vfs.ErrIsDir
		}
		if done, err = fs.truncateTo(done, ino, n, *sa.Size); err != nil {
			return vfs.Stat{}, done, err
		}
	}
	if sa.Mode != nil {
		n.Mode = uint16(vfs.Mode(n.Mode)&vfs.TypeMask | *sa.Mode&vfs.PermMask)
	}
	if sa.UID != nil {
		n.UID = *sa.UID
	}
	if sa.GID != nil {
		n.GID = *sa.GID
	}
	if sa.Atime != nil {
		n.Atime = int64(*sa.Atime)
	}
	if sa.Mtime != nil {
		n.Mtime = int64(*sa.Mtime)
	}
	n.Ctime = int64(done)
	if done, err = fs.putInode(done, ino, n); err != nil {
		return vfs.Stat{}, done, err
	}
	done = fs.charge(done, 1)
	done, err = fs.tick(done)
	return statFromInode(ino, n), done, err
}

// MkdirAt creates directory name in dir.
func (fs *FS) MkdirAt(at time.Duration, dir Ino, name string, mode vfs.Mode) (Ino, vfs.Stat, time.Duration, error) {
	if err := fs.enter(name); err != nil {
		return 0, vfs.Stat{}, at, err
	}
	pn, done, err := fs.absent(at, dir, name)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	ino, done, err := fs.allocInode(done, fs.blockGroup(int64(pn.Direct[0])), dir)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	// Allocate the directory's first block in the directory's own group.
	lba, done, err := fs.allocBlock(done, fs.inodeGroupGoal(ino))
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	b, done, err := fs.bc.get(done, lba, true)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	direntInitBlock(b.data, ino, dir)
	fs.bc.markDirty(b, true)
	fs.journal.add(b)
	n := &inode{
		Mode:   uint16((mode & vfs.PermMask) | vfs.ModeDir),
		Links:  2,
		Size:   BlockSize,
		Blocks: 1,
		Atime:  int64(done), Mtime: int64(done), Ctime: int64(done),
	}
	n.Direct[0] = uint32(lba)
	if done, err = fs.putInode(done, ino, n); err != nil {
		return 0, vfs.Stat{}, done, err
	}
	pn.Links++
	if done, err = fs.addEntry(done, dir, pn, name, ino, ftDir); err != nil {
		return 0, vfs.Stat{}, done, err
	}
	done, err = fs.tick(fs.charge(done, 4))
	return ino, statFromInode(ino, n), done, err
}

// CreateAt creates regular file name in dir, or truncates the file already
// there (creat(2): O_CREAT|O_TRUNC, not exclusive).
func (fs *FS) CreateAt(at time.Duration, dir Ino, name string, mode vfs.Mode) (Ino, vfs.Stat, time.Duration, error) {
	if err := fs.enter(name); err != nil {
		return 0, vfs.Stat{}, at, err
	}
	pn, done, err := fs.getInode(at, dir)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	existing, ft, done, err := fs.dirLookup(done, dir, name)
	if err == nil {
		if ft == ftDir {
			return 0, vfs.Stat{}, done, vfs.ErrIsDir
		}
		n, done, err := fs.getInode(done, existing)
		if err != nil {
			return 0, vfs.Stat{}, done, err
		}
		if done, err = fs.truncateTo(done, existing, n, 0); err != nil {
			return 0, vfs.Stat{}, done, err
		}
		done, err = fs.tick(fs.charge(done, 2))
		return existing, statFromInode(existing, n), done, err
	}
	if err != vfs.ErrNotExist {
		return 0, vfs.Stat{}, done, err
	}
	ino, done, err := fs.allocInode(done, fs.blockGroup(int64(pn.Direct[0])), 0)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	n := &inode{
		Mode:  uint16((mode & vfs.PermMask) | vfs.ModeRegular),
		Links: 1,
		Atime: int64(done), Mtime: int64(done), Ctime: int64(done),
	}
	if done, err = fs.putInode(done, ino, n); err != nil {
		return 0, vfs.Stat{}, done, err
	}
	if done, err = fs.addEntry(done, dir, pn, name, ino, ftRegular); err != nil {
		return 0, vfs.Stat{}, done, err
	}
	done, err = fs.tick(fs.charge(done, 3))
	return ino, statFromInode(ino, n), done, err
}

// SymlinkAt creates symlink name -> target in dir.
func (fs *FS) SymlinkAt(at time.Duration, dir Ino, name, target string) (Ino, vfs.Stat, time.Duration, error) {
	if err := fs.enter(name); err != nil {
		return 0, vfs.Stat{}, at, err
	}
	if target == "" || len(target) > BlockSize {
		return 0, vfs.Stat{}, at, vfs.ErrInvalid
	}
	pn, done, err := fs.absent(at, dir, name)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	ino, done, err := fs.allocInode(done, fs.blockGroup(int64(pn.Direct[0])), 0)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	lba, done, err := fs.allocBlock(done, int64(pn.Direct[0]))
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	b, done, err := fs.bc.get(done, lba, true)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	copy(b.data, target) // get zeroed the rest
	fs.bc.markDirty(b, true)
	fs.journal.add(b)
	n := &inode{
		Mode:   uint16(vfs.ModeSymlink | 0o777),
		Links:  1,
		Size:   uint64(len(target)),
		Blocks: 1,
		Atime:  int64(done), Mtime: int64(done), Ctime: int64(done),
	}
	n.Direct[0] = uint32(lba)
	if done, err = fs.putInode(done, ino, n); err != nil {
		return 0, vfs.Stat{}, done, err
	}
	if done, err = fs.addEntry(done, dir, pn, name, ino, ftSymlink); err != nil {
		return 0, vfs.Stat{}, done, err
	}
	done, err = fs.tick(fs.charge(done, 3))
	return ino, statFromInode(ino, n), done, err
}

// ReadlinkAt reads a symlink's target by inode.
func (fs *FS) ReadlinkAt(at time.Duration, ino Ino) (string, time.Duration, error) {
	if !fs.mounted {
		return "", at, vfs.ErrStale
	}
	target, done, err := fs.readlinkIno(at, ino)
	if err != nil {
		return "", done, err
	}
	return target, fs.charge(done, 1), nil
}

// LinkAt adds a hard link (dir, name) -> target.
func (fs *FS) LinkAt(at time.Duration, target Ino, dir Ino, name string) (vfs.Stat, time.Duration, error) {
	if err := fs.enter(name); err != nil {
		return vfs.Stat{}, at, err
	}
	n, done, err := fs.getInode(at, target)
	if err != nil {
		return vfs.Stat{}, done, err
	}
	if vfs.Mode(n.Mode).IsDir() {
		return vfs.Stat{}, done, vfs.ErrIsDir
	}
	pn, done, err := fs.absent(done, dir, name)
	if err != nil {
		return vfs.Stat{}, done, err
	}
	if done, err = fs.addEntry(done, dir, pn, name, target, ftypeOfMode(vfs.Mode(n.Mode))); err != nil {
		return vfs.Stat{}, done, err
	}
	n.Links++
	n.Ctime = int64(done)
	if done, err = fs.putInode(done, target, n); err != nil {
		return vfs.Stat{}, done, err
	}
	done, err = fs.tick(fs.charge(done, 2))
	return statFromInode(target, n), done, err
}

// RemoveAt unlinks non-directory name from dir.
func (fs *FS) RemoveAt(at time.Duration, dir Ino, name string) (time.Duration, error) {
	if err := fs.enter(name); err != nil {
		return at, err
	}
	ino, ft, done, err := fs.dirLookup(at, dir, name)
	if err != nil {
		return done, err
	}
	if ft == ftDir {
		return done, vfs.ErrIsDir
	}
	pn, done, err := fs.getInode(done, dir)
	if err != nil {
		return done, err
	}
	if done, err = fs.removeEntry(done, dir, pn, name); err != nil {
		return done, err
	}
	n, done, err := fs.getInode(done, ino)
	if err != nil {
		return done, err
	}
	n.Links--
	if n.Links == 0 {
		if done, err = fs.truncateTo(done, ino, n, 0); err != nil {
			return done, err
		}
		if done, err = fs.freeInode(done, ino); err != nil {
			return done, err
		}
	} else {
		n.Ctime = int64(done)
		if done, err = fs.putInode(done, ino, n); err != nil {
			return done, err
		}
	}
	return fs.tick(fs.charge(done, 3))
}

// RmdirAt removes empty directory name from dir.
func (fs *FS) RmdirAt(at time.Duration, dir Ino, name string) (time.Duration, error) {
	if err := fs.enter(name); err != nil {
		return at, err
	}
	ino, ft, done, err := fs.dirLookup(at, dir, name)
	if err != nil {
		return done, err
	}
	if ft != ftDir {
		return done, vfs.ErrNotDir
	}
	n, done, err := fs.getInode(done, ino)
	if err != nil {
		return done, err
	}
	it := fs.dirBlocks(done, n)
	for it.next() {
		if !direntEmpty(it.b.data) {
			return it.done, vfs.ErrNotEmpty
		}
	}
	if it.err != nil {
		return it.done, it.err
	}
	pn, done, err := fs.getInode(it.done, dir)
	if err != nil {
		return done, err
	}
	if done, err = fs.removeEntry(done, dir, pn, name); err != nil {
		return done, err
	}
	pn.Links--
	if done, err = fs.putInode(done, dir, pn); err != nil {
		return done, err
	}
	// Free the directory's blocks and inode.
	for fb := int64(0); fb < it.nfb; fb++ {
		lba, d2, err := fs.bmap(done, n, fb, false, 0)
		if err != nil {
			return d2, err
		}
		done = d2
		if lba != 0 {
			if done, err = fs.freeBlock(done, lba); err != nil {
				return done, err
			}
		}
	}
	if done, err = fs.freeInode(done, ino); err != nil {
		return done, err
	}
	return fs.tick(fs.charge(done, 3))
}

// RenameAt moves (odir, oname) to (ndir, nname), replacing what nname holds
// when the types allow (POSIX rename).
func (fs *FS) RenameAt(at time.Duration, odir Ino, oname string, ndir Ino, nname string) (time.Duration, error) {
	if err := fs.enter(oname); err != nil {
		return at, err
	}
	if err := fs.enter(nname); err != nil {
		return at, err
	}
	ino, ft, done, err := fs.dirLookup(at, odir, oname)
	if err != nil {
		return done, err
	}
	// A directory that changes parents must not land in its own subtree: the
	// new parent's chain of ".." reaches the root without meeting it. The
	// bound ends the walk on a chain corrupted into a cycle.
	if ft == ftDir && odir != ndir {
		for up, steps := ndir, uint32(0); up != RootIno; steps++ {
			if up == ino || steps > fs.sb.InodesCount {
				return done, vfs.ErrInvalid
			}
			if up, _, done, err = fs.dirLookup(done, up, ".."); err != nil {
				return done, err
			}
		}
	}
	// Handle an existing target.
	if tIno, tFt, d2, err := fs.dirLookup(done, ndir, nname); err == nil {
		done = d2
		switch {
		case tIno == ino:
			return fs.tick(done) // same object: no-op
		case ft == ftDir && tFt != ftDir:
			return done, vfs.ErrNotDir
		case ft != ftDir && tFt == ftDir:
			return done, vfs.ErrIsDir
		case tFt == ftDir:
			done, err = fs.RmdirAt(done, ndir, nname)
		default:
			done, err = fs.RemoveAt(done, ndir, nname)
		}
		if err != nil {
			return done, err
		}
	} else if err != vfs.ErrNotExist {
		return d2, err
	} else {
		done = d2
	}
	opn, done, err := fs.getInode(done, odir)
	if err != nil {
		return done, err
	}
	if done, err = fs.removeEntry(done, odir, opn, oname); err != nil {
		return done, err
	}
	npn, done, err := fs.getInode(done, ndir)
	if err != nil {
		return done, err
	}
	if done, err = fs.addEntry(done, ndir, npn, nname, ino, ft); err != nil {
		return done, err
	}
	// Directory moved across parents: fix ".." and link counts.
	if ft == ftDir && odir != ndir {
		n, d2, err := fs.getInode(done, ino)
		if err != nil {
			return d2, err
		}
		done = d2
		if n.Direct[0] != 0 {
			b, d3, err := fs.bc.get(done, int64(n.Direct[0]), false)
			if err != nil {
				return d3, err
			}
			done = d3
			if direntRemove(b.data, "..") {
				direntAdd(b.data, "..", ndir, ftDir)
			}
			delete(fs.names, ino)
			fs.bc.markDirty(b, true)
			fs.journal.add(b)
		}
		opn.Links--
		if done, err = fs.putInode(done, odir, opn); err != nil {
			return done, err
		}
		npn.Links++
		if done, err = fs.putInode(done, ndir, npn); err != nil {
			return done, err
		}
	}
	return fs.tick(fs.charge(done, 4))
}

// ReadDirAt lists directory ino ("." and ".." omitted).
func (fs *FS) ReadDirAt(at time.Duration, ino Ino) ([]vfs.DirEntry, time.Duration, error) {
	if !fs.mounted {
		return nil, at, vfs.ErrStale
	}
	n, done, err := fs.getInode(at, ino)
	if err != nil {
		return nil, done, err
	}
	if !vfs.Mode(n.Mode).IsDir() {
		return nil, done, vfs.ErrNotDir
	}
	var out []vfs.DirEntry
	it := fs.dirBlocks(done, n)
	for it.next() {
		ents, err := direntList(it.b.data)
		if err != nil {
			return nil, it.done, err
		}
		for _, e := range ents {
			if e.Name != "." && e.Name != ".." {
				out = append(out, vfs.DirEntry{Name: e.Name, Ino: uint64(e.Ino), Mode: modeOfFtype(e.FType)})
			}
		}
	}
	if it.err != nil {
		return nil, it.done, it.err
	}
	done = fs.charge(it.done, int(it.nfb))
	if !fs.opts.NoAtime {
		n.Atime = int64(done)
		if d2, err := fs.putInode(done, ino, n); err == nil {
			done = d2
		}
	}
	done, err = fs.tick(done)
	return out, done, err
}

// FileSizeAt returns a file's size after the timed inode fetch every read
// starts with: a ReadFileAt that follows finds the inode cached, so asking
// first moves no virtual time. The NFS server sizes its READ replies with it
// instead of trusting the caller's count.
func (fs *FS) FileSizeAt(at time.Duration, ino Ino) (int64, time.Duration, error) {
	if !fs.mounted {
		return 0, at, vfs.ErrStale
	}
	n, done, err := fs.getInode(at, ino)
	if err != nil {
		return 0, done, err
	}
	return int64(n.Size), done, nil
}

// ReadFileAt reads file content by inode (the NFS READ procedure's engine).
func (fs *FS) ReadFileAt(at time.Duration, ino Ino, off int64, buf []byte) (int, time.Duration, error) {
	f := &file{fs: fs, ino: ino}
	return f.ReadAt(at, off, buf)
}

// WriteFileAt writes file content by inode (the NFS WRITE engine).
func (fs *FS) WriteFileAt(at time.Duration, ino Ino, off int64, data []byte) (int, time.Duration, error) {
	f := &file{fs: fs, ino: ino}
	return f.WriteAt(at, off, data)
}
