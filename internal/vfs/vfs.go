// Package vfs defines the virtual filesystem surface the workloads drive:
// the sixteen file and directory system calls of the paper's Table 1 plus
// open/create/read/write/close/sync. Two implementations exist, matching
// the paper's Figure 2: the client-side ext3 filesystem over an iSCSI
// volume (package ext3 on an iscsi.Initiator device), and the NFS client
// (package nfs) talking to an NFS server.
//
// Every operation takes the virtual time at which it is issued and returns
// the virtual time at which it completes.
package vfs

import (
	"errors"
	"time"
)

// Mode carries the file type and permission bits (ext2-style).
type Mode uint16

// File type bits.
const (
	ModeRegular Mode = 0x8000
	ModeDir     Mode = 0x4000
	ModeSymlink Mode = 0xA000
	TypeMask    Mode = 0xF000
	PermMask    Mode = 0x0FFF
)

// IsDir reports whether the mode denotes a directory.
func (m Mode) IsDir() bool { return m&TypeMask == ModeDir }

// IsRegular reports whether the mode denotes a regular file.
func (m Mode) IsRegular() bool { return m&TypeMask == ModeRegular }

// IsSymlink reports whether the mode denotes a symbolic link.
func (m Mode) IsSymlink() bool { return m&TypeMask == ModeSymlink }

// Perm extracts the permission bits.
func (m Mode) Perm() Mode { return m & PermMask }

// Access mode bits for the access(2) analogue.
const (
	AccessRead  = 4
	AccessWrite = 2
	AccessExec  = 1
)

// Stat describes a filesystem object.
type Stat struct {
	Ino    uint64
	Mode   Mode
	Nlink  int
	UID    uint32
	GID    uint32
	Size   int64
	Blocks int64 // allocated blocks
	Atime  time.Duration
	Mtime  time.Duration
	Ctime  time.Duration
}

// DirEntry is one readdir result.
type DirEntry struct {
	Name string
	Ino  uint64
	Mode Mode // type bits only for some implementations
}

// Errors shared by all filesystem implementations.
var (
	ErrNotExist    = errors.New("no such file or directory")
	ErrExist       = errors.New("file exists")
	ErrNotDir      = errors.New("not a directory")
	ErrIsDir       = errors.New("is a directory")
	ErrNotEmpty    = errors.New("directory not empty")
	ErrNoSpace     = errors.New("no space left on device")
	ErrNameTooLong = errors.New("file name too long")
	ErrInvalid     = errors.New("invalid argument")
	ErrStale       = errors.New("stale file handle")
	ErrIO          = errors.New("input/output error")
)

// File is an open file.
type File interface {
	// ReadAt reads up to len(buf) bytes at offset off; short reads occur
	// only at end of file.
	ReadAt(at time.Duration, off int64, buf []byte) (n int, done time.Duration, err error)
	// WriteAt writes len(data) bytes at offset off, extending the file if
	// needed.
	WriteAt(at time.Duration, off int64, data []byte) (n int, done time.Duration, err error)
	// Fsync forces the file's data and metadata to stable storage.
	Fsync(at time.Duration) (done time.Duration, err error)
	// Close releases the handle.
	Close(at time.Duration) (done time.Duration, err error)
}

// FileSystem is the mounted-filesystem operation surface. Paths are
// absolute, slash-separated, already cleaned (see Env for cwd handling).
type FileSystem interface {
	Mkdir(at time.Duration, path string, mode Mode) (done time.Duration, err error)
	Rmdir(at time.Duration, path string) (done time.Duration, err error)
	Symlink(at time.Duration, target, path string) (done time.Duration, err error)
	Readlink(at time.Duration, path string) (target string, done time.Duration, err error)
	Link(at time.Duration, oldpath, newpath string) (done time.Duration, err error)
	Unlink(at time.Duration, path string) (done time.Duration, err error)
	Rename(at time.Duration, oldpath, newpath string) (done time.Duration, err error)
	ReadDir(at time.Duration, path string) (ents []DirEntry, done time.Duration, err error)
	Stat(at time.Duration, path string) (st Stat, done time.Duration, err error)
	Chmod(at time.Duration, path string, mode Mode) (done time.Duration, err error)
	Chown(at time.Duration, path string, uid, gid uint32) (done time.Duration, err error)
	Utimes(at time.Duration, path string, atime, mtime time.Duration) (done time.Duration, err error)
	Truncate(at time.Duration, path string, size int64) (done time.Duration, err error)
	Access(at time.Duration, path string, mode int) (done time.Duration, err error)
	Create(at time.Duration, path string, mode Mode) (f File, done time.Duration, err error)
	Open(at time.Duration, path string) (f File, done time.Duration, err error)
	// Sync flushes all dirty state (data and meta-data) to stable storage.
	Sync(at time.Duration) (done time.Duration, err error)
}
