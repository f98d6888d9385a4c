package nfs

import (
	"strings"
	"time"

	"repro/internal/ext3"
	"repro/internal/lockmgr"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// serverCosts captures the per-request CPU demand of the NFS server path:
// network + RPC + nfsd + VFS + filesystem + block layer + driver. The
// paper measured this path at roughly twice the iSCSI server path
// (Section 5.4); the filesystem portion is charged separately by the
// server-side ext3 instance, so these constants cover the RPC/nfsd part.
type serverCosts struct {
	PerRequest time.Duration
	PerKB      time.Duration
}

// defaultServerCosts returns the RPC/nfsd-layer demand.
func defaultServerCosts() serverCosts {
	return serverCosts{PerRequest: 40 * time.Microsecond, PerKB: 5 * time.Microsecond}
}

// Server is an NFS server exporting one filesystem. Meta-data mutations
// are durable before the reply (the fs is exported with SyncMetadata), as
// NFS semantics require; v2 WRITEs are stable too, while v3/v4 WRITEs are
// unstable until COMMIT.
type Server struct {
	fs   *ext3.FS
	cpu  *sim.CPU
	cost serverCosts

	// ProcCounts tallies requests per procedure (the nfsstat analogue
	// behind the paper's "65% of PostMark messages are meta-data" remark).
	ProcCounts map[Proc]int64

	// SyncMetadataUpdates makes meta-data mutations durable before the
	// reply (the spec-compliant "sync" export). The Linux server of the
	// paper's era defaulted to async exports — it replied once the update
	// reached server memory — which is what the paper's timings reflect:
	// what stays synchronous either way is the client's RPC round trip,
	// the asymmetry against iSCSI's fully-deferred meta-data updates.
	// Default false (async export); enable as the durability ablation.
	SyncMetadataUpdates bool

	// FailRequests injects server unavailability (failure testing).
	FailRequests bool

	// Locks, when non-nil, is the NLM-style byte-range lock manager
	// serving LOCK/UNLOCK requests (cross-client sharing). It lives on
	// the Server — not the filesystem — so a server restart can drop the
	// lock table and open an NSM-style grace period while the journal
	// replays.
	Locks *lockmgr.Manager

	// reply carries every READ reply; see Read.
	reply []byte
}

// syncMeta commits the server filesystem after a meta-data mutation.
func (s *Server) syncMeta(at time.Duration, err error) (time.Duration, error) {
	if err != nil || !s.SyncMetadataUpdates {
		return at, err
	}
	return s.fs.Sync(at)
}

// NewServer exports fs, charging CPU demand to cpu (nil for untimed tests).
func NewServer(fs *ext3.FS, cpu *sim.CPU) *Server {
	return &Server{
		fs: fs, cpu: cpu,
		cost:       defaultServerCosts(),
		ProcCounts: make(map[Proc]int64),
	}
}

// Attach replaces the exported filesystem (server restart in the paper's
// cold-cache protocol re-mounts the export).
func (s *Server) Attach(fs *ext3.FS) { s.fs = fs }

// FS exposes the exported filesystem (tests inspect it directly).
func (s *Server) FS() *ext3.FS { return s.fs }

// Counters exports the nfsstat-style per-procedure counts for the metrics
// event stream (metrics.SubsysNFS; see docs/METRICS.md): one
// "proc_<name>" counter per procedure handled plus a "requests" total.
func (s *Server) Counters() map[string]int64 {
	out := make(map[string]int64, len(s.ProcCounts)+1)
	var total int64
	for p, n := range s.ProcCounts {
		out["proc_"+strings.ToLower(p.String())] = n
		total += n
	}
	out["requests"] = total
	return out
}

// begin charges fixed request cost and counts the procedure.
func (s *Server) begin(at time.Duration, p Proc, payload int) (time.Duration, error) {
	if s.FailRequests {
		return at, vfs.ErrIO
	}
	s.ProcCounts[p]++
	if s.cpu == nil {
		return at, nil
	}
	d := s.cost.PerRequest + time.Duration(payload/1024)*s.cost.PerKB
	return s.cpu.Run(at, d), nil
}

// rootFH returns the export's root filehandle (what MOUNT would return).
func (s *Server) rootFH() FH { return FH{Ino: uint64(ext3.RootIno)} }

// getattr serves GETATTR.
func (s *Server) getattr(at time.Duration, fh FH) (vfs.Stat, time.Duration, error) {
	at, err := s.begin(at, ProcGetattr, 0)
	if err != nil {
		return vfs.Stat{}, at, err
	}
	return s.fs.GetAttrAt(at, ext3.Ino(fh.Ino))
}

// setattr serves SETATTR.
func (s *Server) setattr(at time.Duration, fh FH, sa ext3.SetAttr) (vfs.Stat, time.Duration, error) {
	at, err := s.begin(at, ProcSetattr, 0)
	if err != nil {
		return vfs.Stat{}, at, err
	}
	st, done, err := s.fs.SetAttrAt(at, ext3.Ino(fh.Ino), sa)
	done, err = s.syncMeta(done, err)
	return st, done, err
}

// lookup serves LOOKUP.
func (s *Server) lookup(at time.Duration, dir FH, name string) (FH, vfs.Stat, time.Duration, error) {
	at, err := s.begin(at, ProcLookup, 0)
	if err != nil {
		return FH{}, vfs.Stat{}, at, err
	}
	ino, st, done, err := s.fs.LookupAt(at, ext3.Ino(dir.Ino), name)
	if err != nil {
		return FH{}, vfs.Stat{}, done, err
	}
	return FH{Ino: uint64(ino)}, st, done, nil
}

// access serves ACCESS (v3/v4): permission check at the server.
func (s *Server) access(at time.Duration, fh FH) (vfs.Stat, time.Duration, error) {
	at, err := s.begin(at, ProcAccess, 0)
	if err != nil {
		return vfs.Stat{}, at, err
	}
	return s.fs.GetAttrAt(at, ext3.Ino(fh.Ino))
}

// readlink serves READLINK.
func (s *Server) readlink(at time.Duration, fh FH) (string, time.Duration, error) {
	at, err := s.begin(at, ProcReadlink, 0)
	if err != nil {
		return "", at, err
	}
	return s.fs.ReadlinkAt(at, ext3.Ino(fh.Ino))
}

// read serves READ: up to count bytes from off. The returned slice is never
// larger than what the file holds past off. It is the server's reply buffer,
// valid until the next Read: callers copy what they keep before anything
// else reaches the server. A negative offset or count is an error.
func (s *Server) read(at time.Duration, fh FH, off int64, count int) ([]byte, bool, time.Duration, error) {
	if off < 0 || count < 0 {
		return nil, false, at, vfs.ErrInvalid
	}
	at, err := s.begin(at, ProcRead, count)
	if err != nil {
		return nil, false, at, err
	}
	// The reply holds what the file has past off, however much was asked for.
	size, at, err := s.fs.FileSizeAt(at, ext3.Ino(fh.Ino))
	if err != nil {
		return nil, false, at, err
	}
	want := int(min(int64(count), max(size-off, 0)))
	if want > len(s.reply) {
		s.reply = make([]byte, want)
	}
	buf := s.reply[:want]
	n, done, err := s.fs.ReadFileAt(at, ext3.Ino(fh.Ino), off, buf)
	if err != nil {
		return nil, false, done, err
	}
	st, done, err2 := s.fs.GetAttrAt(done, ext3.Ino(fh.Ino))
	eof := err2 == nil && off+int64(n) >= st.Size
	return buf[:n], eof, done, nil
}

// Write serves WRITE. With stable set (v2, or v3 FILE_SYNC), the data and
// meta-data are durable before the reply; otherwise the server caches the
// write and durability waits for COMMIT. The payload is the client's pages,
// cut at page boundaries (see blockdev.Cut and ext3's WriteFileAt), by
// reference: the server's cache copies what it keeps. A negative offset is
// an error.
func (s *Server) Write(at time.Duration, fh FH, off int64, pages [][]byte, stable bool) (vfs.Stat, time.Duration, error) {
	if off < 0 {
		return vfs.Stat{}, at, vfs.ErrInvalid
	}
	n := 0
	for _, p := range pages {
		n += len(p)
	}
	at, err := s.begin(at, ProcWrite, n)
	if err != nil {
		return vfs.Stat{}, at, err
	}
	_, done, err := s.fs.WriteFileAt(at, ext3.Ino(fh.Ino), off, pages)
	if err != nil {
		return vfs.Stat{}, done, err
	}
	if stable && s.SyncMetadataUpdates {
		if done, err = s.fs.Sync(done); err != nil {
			return vfs.Stat{}, done, err
		}
	}
	st, done, err := s.fs.GetAttrAt(done, ext3.Ino(fh.Ino))
	return st, done, err
}

// commit serves COMMIT (v3/v4): flush cached writes to stable storage.
// An async export (the Linux default the paper's testbed ran) acknowledges
// from memory — the server's own journal ticks flush in the background —
// which is precisely the durability hole of that configuration.
func (s *Server) commit(at time.Duration, fh FH) (time.Duration, error) {
	at, err := s.begin(at, ProcCommit, 0)
	if err != nil {
		return at, err
	}
	if !s.SyncMetadataUpdates {
		return at, nil
	}
	return s.fs.Sync(at)
}

// create serves CREATE.
func (s *Server) create(at time.Duration, dir FH, name string, mode vfs.Mode) (FH, vfs.Stat, time.Duration, error) {
	at, err := s.begin(at, ProcCreate, 0)
	if err != nil {
		return FH{}, vfs.Stat{}, at, err
	}
	ino, st, done, err := s.fs.CreateAt(at, ext3.Ino(dir.Ino), name, mode)
	if done, err = s.syncMeta(done, err); err != nil {
		return FH{}, vfs.Stat{}, done, err
	}
	return FH{Ino: uint64(ino)}, st, done, nil
}

// mkdir serves MKDIR.
func (s *Server) mkdir(at time.Duration, dir FH, name string, mode vfs.Mode) (FH, vfs.Stat, time.Duration, error) {
	at, err := s.begin(at, ProcMkdir, 0)
	if err != nil {
		return FH{}, vfs.Stat{}, at, err
	}
	ino, st, done, err := s.fs.MkdirAt(at, ext3.Ino(dir.Ino), name, mode)
	if done, err = s.syncMeta(done, err); err != nil {
		return FH{}, vfs.Stat{}, done, err
	}
	return FH{Ino: uint64(ino)}, st, done, nil
}

// symlink serves SYMLINK.
func (s *Server) symlink(at time.Duration, dir FH, name, target string) (FH, vfs.Stat, time.Duration, error) {
	at, err := s.begin(at, ProcSymlink, len(target))
	if err != nil {
		return FH{}, vfs.Stat{}, at, err
	}
	ino, st, done, err := s.fs.SymlinkAt(at, ext3.Ino(dir.Ino), name, target)
	if done, err = s.syncMeta(done, err); err != nil {
		return FH{}, vfs.Stat{}, done, err
	}
	return FH{Ino: uint64(ino)}, st, done, nil
}

// remove serves REMOVE.
func (s *Server) remove(at time.Duration, dir FH, name string) (time.Duration, error) {
	at, err := s.begin(at, ProcRemove, 0)
	if err != nil {
		return at, err
	}
	done, err := s.fs.RemoveAt(at, ext3.Ino(dir.Ino), name)
	return s.syncMeta(done, err)
}

// rmdir serves RMDIR.
func (s *Server) rmdir(at time.Duration, dir FH, name string) (time.Duration, error) {
	at, err := s.begin(at, ProcRmdir, 0)
	if err != nil {
		return at, err
	}
	done, err := s.fs.RmdirAt(at, ext3.Ino(dir.Ino), name)
	return s.syncMeta(done, err)
}

// rename serves RENAME.
func (s *Server) rename(at time.Duration, odir FH, oname string, ndir FH, nname string) (time.Duration, error) {
	at, err := s.begin(at, ProcRename, 0)
	if err != nil {
		return at, err
	}
	done, err := s.fs.RenameAt(at, ext3.Ino(odir.Ino), oname, ext3.Ino(ndir.Ino), nname)
	return s.syncMeta(done, err)
}

// link serves LINK.
func (s *Server) link(at time.Duration, target FH, dir FH, name string) (vfs.Stat, time.Duration, error) {
	at, err := s.begin(at, ProcLink, 0)
	if err != nil {
		return vfs.Stat{}, at, err
	}
	st, done, err := s.fs.LinkAt(at, ext3.Ino(target.Ino), ext3.Ino(dir.Ino), name)
	done, err = s.syncMeta(done, err)
	return st, done, err
}

// readdir serves READDIR/READDIRPLUS.
func (s *Server) readdir(at time.Duration, dir FH, plus bool) ([]vfs.DirEntry, time.Duration, error) {
	p := ProcReaddir
	if plus {
		p = ProcReaddirPlus
	}
	at, err := s.begin(at, p, 0)
	if err != nil {
		return nil, at, err
	}
	return s.fs.ReadDirAt(at, ext3.Ino(dir.Ino))
}

// open serves the v4 OPEN operation (we model its server work as a lookup
// plus state establishment).
func (s *Server) open(at time.Duration, dir FH, name string, create bool, mode vfs.Mode) (FH, vfs.Stat, time.Duration, error) {
	at, err := s.begin(at, ProcOpen, 0)
	if err != nil {
		return FH{}, vfs.Stat{}, at, err
	}
	if create {
		ino, st, done, err := s.fs.CreateAt(at, ext3.Ino(dir.Ino), name, mode)
		if done, err = s.syncMeta(done, err); err != nil {
			return FH{}, vfs.Stat{}, done, err
		}
		return FH{Ino: uint64(ino)}, st, done, nil
	}
	ino, st, done, err := s.fs.LookupAt(at, ext3.Ino(dir.Ino), name)
	if err != nil {
		return FH{}, vfs.Stat{}, done, err
	}
	return FH{Ino: uint64(ino)}, st, done, nil
}

// openConfirm serves v4 OPEN_CONFIRM.
func (s *Server) openConfirm(at time.Duration) (time.Duration, error) {
	return s.begin(at, ProcOpenConfirm, 0)
}

// close serves v4 CLOSE.
func (s *Server) close(at time.Duration) (time.Duration, error) {
	return s.begin(at, ProcClose, 0)
}

// lock serves one LOCK request against the server's lock manager: a
// reclaim during the post-restart grace window, or a normal try-lock
// (denied requests join the manager's FIFO queue; the client polls).
// Returns whether the lock was granted.
func (s *Server) lock(at time.Duration, fh FH, owner int, off, length int64, excl, reclaim bool) (bool, time.Duration, error) {
	at, err := s.begin(at, ProcLock, 0)
	if err != nil {
		return false, at, err
	}
	if s.Locks == nil {
		return false, at, vfs.ErrInvalid
	}
	if reclaim {
		return s.Locks.Reclaim(at, owner, fh.Ino, off, length, excl), at, nil
	}
	return s.Locks.TryLock(at, owner, fh.Ino, off, length, excl), at, nil
}

// unlock serves one UNLOCK request.
func (s *Server) unlock(at time.Duration, fh FH, owner int, off, length int64) (time.Duration, error) {
	at, err := s.begin(at, ProcUnlock, 0)
	if err != nil {
		return at, err
	}
	if s.Locks == nil {
		return at, vfs.ErrInvalid
	}
	s.Locks.Unlock(owner, fh.Ino, off, length)
	return at, nil
}

// setattrNamed is the v4 COMPOUND (PUTFH;LOOKUP;SETATTR) a delegation
// holder sends when it must push an update for a path it has no cached
// handle for: one message, one logical operation (counted as SETATTR,
// consistent with how this package folds COMPOUNDs — see Proc). The
// server resolves name under dir and applies the update in one round.
func (s *Server) setattrNamed(at time.Duration, dir FH, name string, sa ext3.SetAttr) (FH, vfs.Stat, time.Duration, error) {
	at, err := s.begin(at, ProcSetattr, 0)
	if err != nil {
		return FH{}, vfs.Stat{}, at, err
	}
	ino, _, done, err := s.fs.LookupAt(at, ext3.Ino(dir.Ino), name)
	if err != nil {
		return FH{}, vfs.Stat{}, done, err
	}
	st, done, err := s.fs.SetAttrAt(done, ino, sa)
	done, err = s.syncMeta(done, err)
	return FH{Ino: uint64(ino)}, st, done, err
}
