package ext3

import (
	"time"

	"repro/internal/vfs"
)

// This file adapts the namespace engine (inodeops.go) to vfs.FileSystem, the
// surface the iSCSI client's mounted file system offers: a path operation is
// a path walk (namei.go; it refuses an unmounted filesystem and bad path
// syntax) followed by the by-inode operation the NFS server calls for the
// same syscall, minus the results vfs does not return. Nothing here touches
// an inode table, a bitmap or a directory block. Truncate and Open keep a few
// lines of their own: no by-inode call has their contract (SetAttrAt writes
// the inode once more than truncate(2) needs; the server opens nothing).

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(at time.Duration, path string, mode vfs.Mode) (time.Duration, error) {
	dir, name, done, err := fs.nameiParent(at, path)
	if err != nil {
		return done, err
	}
	_, _, done, err = fs.MkdirAt(done, dir, name, mode)
	return done, err
}

// Rmdir implements vfs.FileSystem.
func (fs *FS) Rmdir(at time.Duration, path string) (time.Duration, error) {
	dir, name, done, err := fs.nameiParent(at, path)
	if err != nil {
		return done, err
	}
	return fs.RmdirAt(done, dir, name)
}

// Symlink implements vfs.FileSystem.
func (fs *FS) Symlink(at time.Duration, target, path string) (time.Duration, error) {
	dir, name, done, err := fs.nameiParent(at, path)
	if err != nil {
		return done, err
	}
	_, _, done, err = fs.SymlinkAt(done, dir, name, target)
	return done, err
}

// Readlink implements vfs.FileSystem.
func (fs *FS) Readlink(at time.Duration, path string) (string, time.Duration, error) {
	ino, done, err := fs.namei(at, path, false)
	if err != nil {
		return "", done, err
	}
	return fs.ReadlinkAt(done, ino)
}

// Link implements vfs.FileSystem (hard link).
func (fs *FS) Link(at time.Duration, oldpath, newpath string) (time.Duration, error) {
	target, done, err := fs.namei(at, oldpath, false)
	if err != nil {
		return done, err
	}
	dir, name, done, err := fs.nameiParent(done, newpath)
	if err != nil {
		return done, err
	}
	_, done, err = fs.LinkAt(done, target, dir, name)
	return done, err
}

// Unlink implements vfs.FileSystem.
func (fs *FS) Unlink(at time.Duration, path string) (time.Duration, error) {
	dir, name, done, err := fs.nameiParent(at, path)
	if err != nil {
		return done, err
	}
	return fs.RemoveAt(done, dir, name)
}

// Rename implements vfs.FileSystem with POSIX replace semantics.
func (fs *FS) Rename(at time.Duration, oldpath, newpath string) (time.Duration, error) {
	odir, oname, done, err := fs.nameiParent(at, oldpath)
	if err != nil {
		return done, err
	}
	ndir, nname, done, err := fs.nameiParent(done, newpath)
	if err != nil {
		return done, err
	}
	return fs.RenameAt(done, odir, oname, ndir, nname)
}

// ReadDir implements vfs.FileSystem; "." and ".." are omitted.
func (fs *FS) ReadDir(at time.Duration, path string) ([]vfs.DirEntry, time.Duration, error) {
	ino, done, err := fs.namei(at, path, true)
	if err != nil {
		return nil, done, err
	}
	return fs.ReadDirAt(done, ino)
}

// Stat implements vfs.FileSystem (follows symlinks).
func (fs *FS) Stat(at time.Duration, path string) (vfs.Stat, time.Duration, error) {
	ino, done, err := fs.namei(at, path, true)
	if err != nil {
		return vfs.Stat{}, done, err
	}
	return fs.GetAttrAt(done, ino)
}

// Access implements vfs.FileSystem: resolution plus a (trivially granted)
// permission check, generating the same lookup traffic as access(2).
func (fs *FS) Access(at time.Duration, path string, _ int) (time.Duration, error) {
	_, done, err := fs.Stat(at, path)
	return done, err
}

// setattr applies sa to what path names (following symlinks).
func (fs *FS) setattr(at time.Duration, path string, sa SetAttr) (time.Duration, error) {
	ino, done, err := fs.namei(at, path, true)
	if err != nil {
		return done, err
	}
	_, done, err = fs.SetAttrAt(done, ino, sa)
	return done, err
}

// Chmod implements vfs.FileSystem.
func (fs *FS) Chmod(at time.Duration, path string, mode vfs.Mode) (time.Duration, error) {
	return fs.setattr(at, path, SetAttr{Mode: &mode})
}

// Chown implements vfs.FileSystem.
func (fs *FS) Chown(at time.Duration, path string, uid, gid uint32) (time.Duration, error) {
	return fs.setattr(at, path, SetAttr{UID: &uid, GID: &gid})
}

// Utimes implements vfs.FileSystem.
func (fs *FS) Utimes(at time.Duration, path string, atime, mtime time.Duration) (time.Duration, error) {
	return fs.setattr(at, path, SetAttr{Atime: &atime, Mtime: &mtime})
}

// Truncate implements vfs.FileSystem.
func (fs *FS) Truncate(at time.Duration, path string, size int64) (time.Duration, error) {
	if err := checkSize(size); err != nil {
		return at, err
	}
	ino, done, err := fs.namei(at, path, true)
	if err != nil {
		return done, err
	}
	n, done, err := fs.getInode(done, ino)
	if err != nil {
		return done, err
	}
	if vfs.Mode(n.Mode).IsDir() {
		return done, vfs.ErrIsDir
	}
	if done, err = fs.truncateTo(done, ino, n, size); err != nil {
		return done, err
	}
	return fs.tick(fs.charge(done, 1))
}

// Create implements vfs.FileSystem (creat(2): O_CREAT|O_TRUNC).
func (fs *FS) Create(at time.Duration, path string, mode vfs.Mode) (vfs.File, time.Duration, error) {
	dir, name, done, err := fs.nameiParent(at, path)
	if err != nil {
		return nil, done, err
	}
	ino, _, done, err := fs.CreateAt(done, dir, name, mode)
	if err != nil {
		return nil, done, err
	}
	return fs.handle(ino), done, nil
}

// Open implements vfs.FileSystem (existing regular files).
func (fs *FS) Open(at time.Duration, path string) (vfs.File, time.Duration, error) {
	ino, done, err := fs.namei(at, path, true)
	if err != nil {
		return nil, done, err
	}
	n, done, err := fs.getInode(done, ino)
	if err != nil {
		return nil, done, err
	}
	if vfs.Mode(n.Mode).IsDir() {
		return nil, done, vfs.ErrIsDir
	}
	return fs.handle(ino), fs.charge(done, 1), nil
}
