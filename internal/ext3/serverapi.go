package ext3

import (
	"time"

	"repro/internal/vfs"
)

// This file exposes the inode-granularity operations an NFS server needs:
// NFS requests name (directory-filehandle, name) pairs rather than paths,
// because path resolution happens at the *client* in file-access protocols
// — one of the two architectural differences the paper studies.

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

// SetAttrAt applies a partial attribute update (chmod/chown/utimes/truncate
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
	n, done, err := fs.getInode(at, ino)
	if err != nil {
		return vfs.Stat{}, done, err
	}
	if sa.Size != nil && !vfs.Mode(n.Mode).IsDir() {
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

// MkdirAt creates a directory entry name in dir.
func (fs *FS) MkdirAt(at time.Duration, dir Ino, name string, mode vfs.Mode) (Ino, vfs.Stat, time.Duration, error) {
	if !fs.mounted {
		return 0, vfs.Stat{}, at, vfs.ErrStale
	}
	pn, done, err := fs.getInode(at, dir)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	if !vfs.Mode(pn.Mode).IsDir() {
		return 0, vfs.Stat{}, done, vfs.ErrNotDir
	}
	if _, _, d2, err := fs.dirLookup(done, dir, name); err == nil {
		return 0, vfs.Stat{}, d2, vfs.ErrExist
	} else if err != vfs.ErrNotExist {
		return 0, vfs.Stat{}, d2, err
	} else {
		done = d2
	}
	ino, done, err := fs.allocInode(done, fs.blockGroup(int64(pn.Direct[0])), dir)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
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
	n := &Inode{
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
	if done, err = fs.addEntry(done, dir, pn, name, ino, FTDir); err != nil {
		return 0, vfs.Stat{}, done, err
	}
	done = fs.charge(done, 4)
	done, err = fs.tick(done)
	return ino, statFromInode(ino, n), done, err
}

// CreateAt creates a regular file name in dir (exclusive).
func (fs *FS) CreateAt(at time.Duration, dir Ino, name string, mode vfs.Mode) (Ino, vfs.Stat, time.Duration, error) {
	if !fs.mounted {
		return 0, vfs.Stat{}, at, vfs.ErrStale
	}
	pn, done, err := fs.getInode(at, dir)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	if !vfs.Mode(pn.Mode).IsDir() {
		return 0, vfs.Stat{}, done, vfs.ErrNotDir
	}
	if existing, _, d2, err := fs.dirLookup(done, dir, name); err == nil {
		// Non-exclusive semantics: truncate and return it.
		n, d3, err := fs.getInode(d2, existing)
		if err != nil {
			return 0, vfs.Stat{}, d3, err
		}
		if vfs.Mode(n.Mode).IsDir() {
			return 0, vfs.Stat{}, d3, vfs.ErrIsDir
		}
		if d3, err = fs.truncateTo(d3, existing, n, 0); err != nil {
			return 0, vfs.Stat{}, d3, err
		}
		d3, err = fs.tick(fs.charge(d3, 2))
		return existing, statFromInode(existing, n), d3, err
	} else if err != vfs.ErrNotExist {
		return 0, vfs.Stat{}, d2, err
	} else {
		done = d2
	}
	ino, done, err := fs.allocInode(done, fs.blockGroup(int64(pn.Direct[0])), 0)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	n := &Inode{
		Mode:  uint16((mode & vfs.PermMask) | vfs.ModeRegular),
		Links: 1,
		Atime: int64(done), Mtime: int64(done), Ctime: int64(done),
	}
	if done, err = fs.putInode(done, ino, n); err != nil {
		return 0, vfs.Stat{}, done, err
	}
	if done, err = fs.addEntry(done, dir, pn, name, ino, FTRegular); err != nil {
		return 0, vfs.Stat{}, done, err
	}
	done = fs.charge(done, 3)
	done, err = fs.tick(done)
	return ino, statFromInode(ino, n), done, err
}

// SymlinkAt creates a symlink name -> target in dir.
func (fs *FS) SymlinkAt(at time.Duration, dir Ino, name, target string) (Ino, vfs.Stat, time.Duration, error) {
	if !fs.mounted {
		return 0, vfs.Stat{}, at, vfs.ErrStale
	}
	// Reuse the path-based implementation mechanics via direct calls.
	pn, done, err := fs.getInode(at, dir)
	if err != nil {
		return 0, vfs.Stat{}, done, err
	}
	if _, _, d2, err := fs.dirLookup(done, dir, name); err == nil {
		return 0, vfs.Stat{}, d2, vfs.ErrExist
	} else if err != vfs.ErrNotExist {
		return 0, vfs.Stat{}, d2, err
	} else {
		done = d2
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
	for i := range b.data {
		b.data[i] = 0
	}
	copy(b.data, target)
	fs.bc.markDirty(b, true)
	fs.journal.add(b)
	n := &Inode{
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
	if done, err = fs.addEntry(done, dir, pn, name, ino, FTSymlink); err != nil {
		return 0, vfs.Stat{}, done, err
	}
	done = fs.charge(done, 3)
	done, err = fs.tick(done)
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

// RemoveAt unlinks a non-directory name from dir.
func (fs *FS) RemoveAt(at time.Duration, dir Ino, name string) (time.Duration, error) {
	if !fs.mounted {
		return at, vfs.ErrStale
	}
	ino, ft, done, err := fs.dirLookup(at, dir, name)
	if err != nil {
		return done, err
	}
	if ft == FTDir {
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
	done = fs.charge(done, 3)
	return fs.tick(done)
}

// RmdirAt removes an empty directory name from dir.
func (fs *FS) RmdirAt(at time.Duration, dir Ino, name string) (time.Duration, error) {
	if !fs.mounted {
		return at, vfs.ErrStale
	}
	ino, ft, done, err := fs.dirLookup(at, dir, name)
	if err != nil {
		return done, err
	}
	if ft != FTDir {
		return done, vfs.ErrNotDir
	}
	n, done, err := fs.getInode(done, ino)
	if err != nil {
		return done, err
	}
	nblocks := int64((n.Size + BlockSize - 1) / BlockSize)
	for fb := int64(0); fb < nblocks; fb++ {
		lba, d2, err := fs.bmap(done, n, fb, false, 0)
		if err != nil {
			return d2, err
		}
		done = d2
		if lba == 0 {
			continue
		}
		b, d3, err := fs.bc.get(done, lba, false)
		if err != nil {
			return d3, err
		}
		done = d3
		if !direntEmpty(b.data) {
			return done, vfs.ErrNotEmpty
		}
	}
	pn, done, err := fs.getInode(done, dir)
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
	for fb := int64(0); fb < nblocks; fb++ {
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
	done = fs.charge(done, 3)
	return fs.tick(done)
}

// RenameAt moves (odir, oname) to (ndir, nname) with replace semantics.
func (fs *FS) RenameAt(at time.Duration, odir Ino, oname string, ndir Ino, nname string) (time.Duration, error) {
	if !fs.mounted {
		return at, vfs.ErrStale
	}
	ino, ft, done, err := fs.dirLookup(at, odir, oname)
	if err != nil {
		return done, err
	}
	if tIno, tFt, d2, err := fs.dirLookup(done, ndir, nname); err == nil {
		done = d2
		if tIno != ino {
			switch {
			case ft == FTDir && tFt != FTDir:
				return done, vfs.ErrNotDir
			case ft != FTDir && tFt == FTDir:
				return done, vfs.ErrIsDir
			case tFt == FTDir:
				if done, err = fs.RmdirAt(done, ndir, nname); err != nil {
					return done, err
				}
			default:
				if done, err = fs.RemoveAt(done, ndir, nname); err != nil {
					return done, err
				}
			}
		} else {
			return fs.tick(done)
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
	if ft == FTDir && odir != ndir {
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
				direntAdd(b.data, "..", ndir, FTDir)
			}
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
	done = fs.charge(done, 4)
	return fs.tick(done)
}

// LinkAt adds a hard link (dir, name) -> target.
func (fs *FS) LinkAt(at time.Duration, target Ino, dir Ino, name string) (vfs.Stat, time.Duration, error) {
	if !fs.mounted {
		return vfs.Stat{}, at, vfs.ErrStale
	}
	n, done, err := fs.getInode(at, target)
	if err != nil {
		return vfs.Stat{}, done, err
	}
	if vfs.Mode(n.Mode).IsDir() {
		return vfs.Stat{}, done, vfs.ErrIsDir
	}
	pn, done, err := fs.getInode(done, dir)
	if err != nil {
		return vfs.Stat{}, done, err
	}
	if _, _, d2, err := fs.dirLookup(done, dir, name); err == nil {
		return vfs.Stat{}, d2, vfs.ErrExist
	} else if err != vfs.ErrNotExist {
		return vfs.Stat{}, d2, err
	} else {
		done = d2
	}
	if done, err = fs.addEntry(done, dir, pn, name, target, ftypeFor(vfs.Mode(n.Mode))); err != nil {
		return vfs.Stat{}, done, err
	}
	n.Links++
	n.Ctime = int64(done)
	if done, err = fs.putInode(done, target, n); err != nil {
		return vfs.Stat{}, done, err
	}
	done = fs.charge(done, 2)
	done, err = fs.tick(done)
	return statFromInode(target, n), done, err
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
	nblocks := int64((n.Size + BlockSize - 1) / BlockSize)
	for fb := int64(0); fb < nblocks; fb++ {
		lba, d2, err := fs.bmap(done, n, fb, false, 0)
		if err != nil {
			return nil, d2, err
		}
		done = d2
		if lba == 0 {
			continue
		}
		b, d3, err := fs.bc.get(done, lba, false)
		if err != nil {
			return nil, d3, err
		}
		done = d3
		ents, err := direntList(b.data)
		if err != nil {
			return nil, done, err
		}
		for _, e := range ents {
			if e.Name == "." || e.Name == ".." {
				continue
			}
			var m vfs.Mode
			switch e.FType {
			case FTDir:
				m = vfs.ModeDir
			case FTSymlink:
				m = vfs.ModeSymlink
			default:
				m = vfs.ModeRegular
			}
			out = append(out, vfs.DirEntry{Name: e.Name, Ino: uint64(e.Ino), Mode: m})
		}
	}
	done = fs.charge(done, int(nblocks))
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
	f := &File{fs: fs, ino: ino}
	return f.ReadAt(at, off, buf)
}

// WriteFileAt writes file content by inode (the NFS WRITE engine).
func (fs *FS) WriteFileAt(at time.Duration, ino Ino, off int64, data []byte) (int, time.Duration, error) {
	f := &File{fs: fs, ino: ino}
	return f.WriteAt(at, off, data)
}

// Root returns the root directory inode number (for filehandle roots).
func (fs *FS) Root() Ino { return RootIno }
