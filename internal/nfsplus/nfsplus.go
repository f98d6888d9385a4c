// Package nfsplus implements the enhancements the paper proposes in
// Section 7 to close NFS's meta-data gap with iSCSI:
//
//  1. A strongly-consistent read-only name and attribute cache: meta-data
//     reads are served from the client cache with no revalidation
//     messages; the server invalidates other clients' entries on update
//     (callback messages), per Shirriff & Ousterhout's design the paper
//     cites.
//  2. Directory delegation: a client holding a directory lease applies
//     meta-data updates locally and flushes them to the server in
//     aggregated batches — giving NFS the update aggregation that ext3's
//     journal gives iSCSI. A conflicting access by another client recalls
//     the lease (callback + flush), like NFS v4 file delegation extended
//     to directories.
//
// The Coordinator tracks leases and cache registrations across clients and
// generates the callback traffic; message counts are exact with respect to
// the proposed protocol. As the paper notes, aggregated updates trade
// durability for performance exactly as iSCSI's asynchronous meta-data
// updates do: updates pending at a crashed client are lost.
package nfsplus

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ext3"
	"repro/internal/nfs"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/vfs"
)

// AggregationFactor is how many queued meta-data updates one flush
// COMPOUND carries (the "degree of compounding" the paper says the benefit
// depends on).
const AggregationFactor = 16

// Coordinator is the server-side state for delegation and cache
// consistency across clients.
type Coordinator struct {
	Srv *nfs.Server
	Net *simnet.Network

	leases  map[uint64]*Client          // dir ino -> lease holder
	cachers map[uint64]map[*Client]bool // object ino -> clients caching it

	// Callbacks counts invalidation/recall messages sent.
	Callbacks int64
	// Recalls counts lease recalls.
	Recalls int64
}

// NewCoordinator wraps an NFS server with delegation machinery.
func NewCoordinator(srv *nfs.Server, net *simnet.Network) *Coordinator {
	return &Coordinator{
		Srv:     srv,
		Net:     net,
		leases:  make(map[uint64]*Client),
		cachers: make(map[uint64]map[*Client]bool),
	}
}

// registerCacher records that c caches object ino.
func (co *Coordinator) registerCacher(ino uint64, c *Client) {
	m := co.cachers[ino]
	if m == nil {
		m = make(map[*Client]bool)
		co.cachers[ino] = m
	}
	m[c] = true
}

// invalidate sends invalidation callbacks to every other client caching
// ino. Returns the time all callbacks are acknowledged.
func (co *Coordinator) invalidate(at time.Duration, ino uint64, from *Client) time.Duration {
	done := at
	for c := range co.cachers[ino] {
		if c == from {
			continue
		}
		co.Callbacks++
		cc := c
		d, _ := co.Net.ServerRoundTrip(at, 96, 32, func(arrive time.Duration) time.Duration {
			cc.dropObject(ino)
			return arrive
		})
		if d > done {
			done = d
		}
		delete(co.cachers[ino], c)
	}
	return done
}

// acquireLease grants the directory lease to c, recalling it first if
// another client holds it.
func (co *Coordinator) acquireLease(at time.Duration, dir uint64, c *Client) (time.Duration, error) {
	if holder, ok := co.leases[dir]; ok && holder != c {
		co.Recalls++
		co.Callbacks++
		h := holder
		done, _ := co.Net.ServerRoundTrip(at, 96, 32, func(arrive time.Duration) time.Duration {
			d, err := h.flushDir(arrive, dir)
			if err != nil {
				return arrive
			}
			return d
		})
		at = done
	}
	co.leases[dir] = c
	return at, nil
}

// Client is an enhanced NFS client: vfs.FileSystem with consistent
// meta-data caching and directory delegation.
type Client struct {
	co  *Coordinator
	rpc *sunrpc.Client
	cpu func(at, demand time.Duration) time.Duration

	rootFH  nfs.FH
	mounted bool

	// Strongly-consistent caches: no TTLs, invalidated by callbacks.
	dc       map[dcKey]nfs.FH
	attrs    map[uint64]vfs.Stat
	listings map[uint64][]vfs.DirEntry

	// Delegation state: pending aggregated updates per held directory.
	leases  map[uint64]bool
	pending map[uint64]int

	// Stats.
	LocalOps   int64 // meta-data updates applied under a lease
	FlushRPCs  int64 // aggregated flush messages
	LeaseRPCs  int64 // lease acquisitions
	LocalReads int64 // meta-data reads served from the consistent cache
}

type dcKey struct {
	dir  uint64
	name string
}

// NewClient attaches an enhanced client to a coordinator.
func NewClient(co *Coordinator, rpc *sunrpc.Client, cpu func(at, d time.Duration) time.Duration) *Client {
	return &Client{
		co:       co,
		rpc:      rpc,
		cpu:      cpu,
		dc:       make(map[dcKey]nfs.FH),
		attrs:    make(map[uint64]vfs.Stat),
		listings: make(map[uint64][]vfs.DirEntry),
		leases:   make(map[uint64]bool),
		pending:  make(map[uint64]int),
	}
}

// Mount obtains the root filehandle.
func (c *Client) Mount(at time.Duration) (time.Duration, error) {
	c.rootFH = c.co.Srv.RootFH()
	st, done, err := c.co.Srv.Getattr(at, c.rootFH)
	if err != nil {
		return done, err
	}
	c.attrs[c.rootFH.Ino] = st
	c.co.registerCacher(c.rootFH.Ino, c)
	c.mounted = true
	return done, nil
}

// dropObject is the invalidation callback target.
func (c *Client) dropObject(ino uint64) {
	delete(c.attrs, ino)
	delete(c.listings, ino)
	for k := range c.dc {
		if k.dir == ino || c.dc[k].Ino == ino {
			delete(c.dc, k)
		}
	}
}

// charge bills client CPU.
func (c *Client) charge(at time.Duration, d time.Duration) time.Duration {
	if c.cpu == nil {
		return at
	}
	return c.cpu(at, d)
}

// call performs one RPC to the server.
func (c *Client) call(at time.Duration, argBytes int,
	serve func(arrive time.Duration) (int, time.Duration, error)) (time.Duration, error) {
	at = c.charge(at, 18*time.Microsecond)
	var opErr error
	done, rpcErr := c.rpc.Call(at, argBytes, func(arrive time.Duration) (int, time.Duration) {
		n, fin, err := serve(arrive)
		opErr = err
		return n, fin
	})
	if rpcErr != nil {
		return done, rpcErr
	}
	return done, opErr
}

// lookup resolves one component through the consistent cache.
func (c *Client) lookup(at time.Duration, dir nfs.FH, name string) (nfs.FH, time.Duration, error) {
	if fh, ok := c.dc[dcKey{dir.Ino, name}]; ok {
		c.LocalReads++
		return fh, at, nil // consistent: no revalidation message, ever
	}
	var fh nfs.FH
	done, err := c.call(at, 96+len(name), func(arrive time.Duration) (int, time.Duration, error) {
		f, st, fin, err := c.co.Srv.Lookup(arrive, dir, name)
		if err != nil {
			return 32, fin, err
		}
		fh = f
		c.attrs[f.Ino] = st
		return 148, fin, nil
	})
	if err != nil {
		return nfs.FH{}, done, err
	}
	c.dc[dcKey{dir.Ino, name}] = fh
	c.co.registerCacher(fh.Ino, c)
	c.co.registerCacher(dir.Ino, c)
	return fh, done, nil
}

// resolve walks a path through the consistent cache.
func (c *Client) resolve(at time.Duration, path string) (nfs.FH, time.Duration, error) {
	rel, err := vfs.RelPath(path)
	if err != nil {
		return nfs.FH{}, at, err
	}
	return c.walk(at, rel)
}

// walk looks up the components of rel (validated: vfs.RelPath) from the
// root, stepping through the string in place.
func (c *Client) walk(at time.Duration, rel string) (nfs.FH, time.Duration, error) {
	if !c.mounted {
		return nfs.FH{}, at, vfs.ErrStale
	}
	cur, done := c.rootFH, at
	for rel != "" {
		var comp string
		comp, rel, _ = strings.Cut(rel, "/")
		var err error
		if cur, done, err = c.lookup(done, cur, comp); err != nil {
			return nfs.FH{}, done, err
		}
	}
	return cur, done, nil
}

// resolveParent resolves all but the final component, which must name an
// entry (vfs.ParentRel).
func (c *Client) resolveParent(at time.Duration, path string) (nfs.FH, string, time.Duration, error) {
	rel, name, err := vfs.ParentRel(path)
	if err != nil {
		return nfs.FH{}, "", at, err
	}
	dir, done, err := c.walk(at, rel)
	return dir, name, done, err
}

// delegatedUpdate runs a meta-data mutation under a directory lease: the
// operation is applied locally (virtual-time cost: client CPU plus the
// local application at the server's state engine, standing in for the
// client's shadow tree) and queued for an aggregated flush. No wire
// message is generated now; flushes and recalls carry the updates later.
func (c *Client) delegatedUpdate(at time.Duration, dir nfs.FH,
	apply func(at time.Duration) (time.Duration, error)) (time.Duration, error) {
	done := at
	var err error
	if !c.leases[dir.Ino] {
		// Lease acquisition: one RPC (plus any recall the server drives).
		c.LeaseRPCs++
		done, err = c.call(done, 96, func(arrive time.Duration) (int, time.Duration, error) {
			fin, err := c.co.acquireLease(arrive, dir.Ino, c)
			return 64, fin, err
		})
		if err != nil {
			return done, err
		}
		c.leases[dir.Ino] = true
	}
	done = c.charge(done, 25*time.Microsecond)
	if done, err = apply(done); err != nil {
		return done, err
	}
	c.LocalOps++
	c.pending[dir.Ino]++
	// Other clients' cached view of this directory must be invalidated.
	done = c.co.invalidate(done, dir.Ino, c)
	delete(c.listings, dir.Ino)
	if c.pending[dir.Ino] >= AggregationFactor*4 {
		return c.flushDir(done, dir.Ino)
	}
	return done, nil
}

// flushDir sends the aggregated updates for one directory.
func (c *Client) flushDir(at time.Duration, dir uint64) (time.Duration, error) {
	n := c.pending[dir]
	if n == 0 {
		return at, nil
	}
	done := at
	for sent := 0; sent < n; sent += AggregationFactor {
		batch := n - sent
		if batch > AggregationFactor {
			batch = AggregationFactor
		}
		c.FlushRPCs++
		var err error
		done, err = c.call(done, 64+batch*48, func(arrive time.Duration) (int, time.Duration, error) {
			// The updates were already applied to the authoritative state
			// when queued; the flush makes them durable/visible.
			return 64, arrive, nil
		})
		if err != nil {
			return done, err
		}
	}
	c.pending[dir] = 0
	return done, nil
}

// Sync flushes all pending aggregated updates.
func (c *Client) Sync(at time.Duration) (time.Duration, error) {
	done := at
	for dir, n := range c.pending {
		if n == 0 {
			continue
		}
		var err error
		if done, err = c.flushDir(done, dir); err != nil {
			return done, err
		}
	}
	return done, nil
}

// Unmount flushes and releases leases.
func (c *Client) Unmount(at time.Duration) (time.Duration, error) {
	done, err := c.Sync(at)
	if err != nil {
		return done, err
	}
	for dir := range c.leases {
		delete(c.co.leases, dir)
	}
	c.leases = make(map[uint64]bool)
	c.mounted = false
	return done, nil
}

// ---- vfs.FileSystem meta-data operations ----

// Mkdir implements vfs.FileSystem.
func (c *Client) Mkdir(at time.Duration, path string, mode vfs.Mode) (time.Duration, error) {
	dir, name, done, err := c.resolveParent(at, path)
	if err != nil {
		return done, err
	}
	return c.delegatedUpdate(done, dir, func(t time.Duration) (time.Duration, error) {
		fh, st, fin, err := c.co.Srv.Mkdir(t, dir, name, mode)
		if err != nil {
			return fin, err
		}
		c.dc[dcKey{dir.Ino, name}] = fh
		c.attrs[fh.Ino] = st
		return fin, nil
	})
}

// Rmdir implements vfs.FileSystem.
func (c *Client) Rmdir(at time.Duration, path string) (time.Duration, error) {
	dir, name, done, err := c.resolveParent(at, path)
	if err != nil {
		return done, err
	}
	return c.delegatedUpdate(done, dir, func(t time.Duration) (time.Duration, error) {
		fin, err := c.co.Srv.Rmdir(t, dir, name)
		if err == nil {
			delete(c.dc, dcKey{dir.Ino, name})
		}
		return fin, err
	})
}

// Symlink implements vfs.FileSystem.
func (c *Client) Symlink(at time.Duration, target, path string) (time.Duration, error) {
	dir, name, done, err := c.resolveParent(at, path)
	if err != nil {
		return done, err
	}
	return c.delegatedUpdate(done, dir, func(t time.Duration) (time.Duration, error) {
		fh, st, fin, err := c.co.Srv.Symlink(t, dir, name, target)
		if err != nil {
			return fin, err
		}
		c.dc[dcKey{dir.Ino, name}] = fh
		c.attrs[fh.Ino] = st
		return fin, nil
	})
}

// Readlink implements vfs.FileSystem.
func (c *Client) Readlink(at time.Duration, path string) (string, time.Duration, error) {
	fh, done, err := c.resolve(at, path)
	if err != nil {
		return "", done, err
	}
	var target string
	done, err = c.call(done, 96, func(arrive time.Duration) (int, time.Duration, error) {
		t, fin, err := c.co.Srv.Readlink(arrive, fh)
		target = t
		return 64 + len(t), fin, err
	})
	return target, done, err
}

// Link implements vfs.FileSystem.
func (c *Client) Link(at time.Duration, oldpath, newpath string) (time.Duration, error) {
	target, done, err := c.resolve(at, oldpath)
	if err != nil {
		return done, err
	}
	dir, name, done, err := c.resolveParent(done, newpath)
	if err != nil {
		return done, err
	}
	return c.delegatedUpdate(done, dir, func(t time.Duration) (time.Duration, error) {
		st, fin, err := c.co.Srv.Link(t, target, dir, name)
		if err != nil {
			return fin, err
		}
		c.dc[dcKey{dir.Ino, name}] = nfs.FH{Ino: st.Ino}
		c.attrs[st.Ino] = st
		return fin, nil
	})
}

// Unlink implements vfs.FileSystem.
func (c *Client) Unlink(at time.Duration, path string) (time.Duration, error) {
	dir, name, done, err := c.resolveParent(at, path)
	if err != nil {
		return done, err
	}
	return c.delegatedUpdate(done, dir, func(t time.Duration) (time.Duration, error) {
		fin, err := c.co.Srv.Remove(t, dir, name)
		if err == nil {
			delete(c.dc, dcKey{dir.Ino, name})
		}
		return fin, err
	})
}

// Rename implements vfs.FileSystem. A cross-directory rename needs both
// leases; we take them in path order.
func (c *Client) Rename(at time.Duration, oldpath, newpath string) (time.Duration, error) {
	odir, oname, done, err := c.resolveParent(at, oldpath)
	if err != nil {
		return done, err
	}
	ndir, nname, done, err := c.resolveParent(done, newpath)
	if err != nil {
		return done, err
	}
	return c.delegatedUpdate(done, odir, func(t time.Duration) (time.Duration, error) {
		if ndir.Ino != odir.Ino {
			if !c.leases[ndir.Ino] {
				c.LeaseRPCs++
				var err error
				t, err = c.call(t, 96, func(arrive time.Duration) (int, time.Duration, error) {
					fin, err := c.co.acquireLease(arrive, ndir.Ino, c)
					return 64, fin, err
				})
				if err != nil {
					return t, err
				}
				c.leases[ndir.Ino] = true
			}
			c.pending[ndir.Ino]++
			delete(c.listings, ndir.Ino)
		}
		fin, err := c.co.Srv.Rename(t, odir, oname, ndir, nname)
		if err != nil {
			return fin, err
		}
		fh := c.dc[dcKey{odir.Ino, oname}]
		delete(c.dc, dcKey{odir.Ino, oname})
		c.dc[dcKey{ndir.Ino, nname}] = fh
		return fin, nil
	})
}

// ReadDir implements vfs.FileSystem.
func (c *Client) ReadDir(at time.Duration, path string) ([]vfs.DirEntry, time.Duration, error) {
	fh, done, err := c.resolve(at, path)
	if err != nil {
		return nil, done, err
	}
	if ents, ok := c.listings[fh.Ino]; ok {
		c.LocalReads++
		return ents, done, nil
	}
	var ents []vfs.DirEntry
	done, err = c.call(done, 96, func(arrive time.Duration) (int, time.Duration, error) {
		e, fin, err := c.co.Srv.Readdir(arrive, fh, true)
		ents = e
		return 64 + len(e)*24, fin, err
	})
	if err != nil {
		return nil, done, err
	}
	c.listings[fh.Ino] = ents
	c.co.registerCacher(fh.Ino, c)
	return ents, done, nil
}

// Stat implements vfs.FileSystem.
func (c *Client) Stat(at time.Duration, path string) (vfs.Stat, time.Duration, error) {
	fh, done, err := c.resolve(at, path)
	if err != nil {
		return vfs.Stat{}, done, err
	}
	if st, ok := c.attrs[fh.Ino]; ok {
		c.LocalReads++
		return st, done, nil // consistent cache: no GETATTR
	}
	var st vfs.Stat
	done, err = c.call(done, 96, func(arrive time.Duration) (int, time.Duration, error) {
		s, fin, err := c.co.Srv.Getattr(arrive, fh)
		st = s
		return 148, fin, err
	})
	if err != nil {
		return vfs.Stat{}, done, err
	}
	c.attrs[fh.Ino] = st
	c.co.registerCacher(fh.Ino, c)
	return st, done, nil
}

// Access implements vfs.FileSystem (served from the consistent cache).
func (c *Client) Access(at time.Duration, path string, _ int) (time.Duration, error) {
	_, done, err := c.Stat(at, path)
	return done, err
}

// setattr routes attribute updates through the delegation machinery.
func (c *Client) setattr(at time.Duration, path string, sa ext3.SetAttr) (time.Duration, error) {
	dir, name, done, err := c.resolveParent(at, path)
	if err != nil {
		return done, err
	}
	fh, done, err := c.lookup(done, dir, name)
	if err != nil {
		return done, err
	}
	return c.delegatedUpdate(done, dir, func(t time.Duration) (time.Duration, error) {
		st, fin, err := c.co.Srv.Setattr(t, fh, sa)
		if err == nil {
			c.attrs[fh.Ino] = st
		}
		return fin, err
	})
}

// Chmod implements vfs.FileSystem.
func (c *Client) Chmod(at time.Duration, path string, mode vfs.Mode) (time.Duration, error) {
	m := mode
	return c.setattr(at, path, ext3.SetAttr{Mode: &m})
}

// Chown implements vfs.FileSystem.
func (c *Client) Chown(at time.Duration, path string, uid, gid uint32) (time.Duration, error) {
	return c.setattr(at, path, ext3.SetAttr{UID: &uid, GID: &gid})
}

// Utimes implements vfs.FileSystem.
func (c *Client) Utimes(at time.Duration, path string, atime, mtime time.Duration) (time.Duration, error) {
	return c.setattr(at, path, ext3.SetAttr{Atime: &atime, Mtime: &mtime})
}

// Truncate implements vfs.FileSystem.
func (c *Client) Truncate(at time.Duration, path string, size int64) (time.Duration, error) {
	s := size
	return c.setattr(at, path, ext3.SetAttr{Size: &s})
}

// ---- data path (kept deliberately simple: the enhancements target
// meta-data; data transfers behave like stock NFS v3) ----

type plusFile struct {
	c  *Client
	fh nfs.FH
}

// Create implements vfs.FileSystem: creation is a delegated update.
func (c *Client) Create(at time.Duration, path string, mode vfs.Mode) (vfs.File, time.Duration, error) {
	dir, name, done, err := c.resolveParent(at, path)
	if err != nil {
		return nil, done, err
	}
	var fh nfs.FH
	done, err = c.delegatedUpdate(done, dir, func(t time.Duration) (time.Duration, error) {
		f, st, fin, err := c.co.Srv.Create(t, dir, name, mode)
		if err != nil {
			return fin, err
		}
		fh = f
		c.dc[dcKey{dir.Ino, name}] = f
		c.attrs[f.Ino] = st
		return fin, nil
	})
	if err != nil {
		return nil, done, err
	}
	return &plusFile{c: c, fh: fh}, done, nil
}

// Open implements vfs.FileSystem.
func (c *Client) Open(at time.Duration, path string) (vfs.File, time.Duration, error) {
	fh, done, err := c.resolve(at, path)
	if err != nil {
		return nil, done, err
	}
	if st, ok := c.attrs[fh.Ino]; ok && st.Mode.IsDir() {
		return nil, done, vfs.ErrIsDir
	}
	return &plusFile{c: c, fh: fh}, done, nil
}

// ReadAt implements vfs.File with straightforward 8 KB READ RPCs.
func (f *plusFile) ReadAt(at time.Duration, off int64, buf []byte) (int, time.Duration, error) {
	c := f.c
	copied := 0
	done := at
	for copied < len(buf) {
		n := len(buf) - copied
		if n > 8<<10 {
			n = 8 << 10
		}
		var data []byte
		var err error
		done, err = c.call(done, 108, func(arrive time.Duration) (int, time.Duration, error) {
			d, _, fin, err := c.co.Srv.Read(arrive, f.fh, off+int64(copied), n)
			data = d
			return 96 + len(d), fin, err
		})
		if err != nil {
			return copied, done, err
		}
		copied += copy(buf[copied:], data)
		if len(data) < n {
			break
		}
	}
	return copied, done, nil
}

// WriteAt implements vfs.File with unstable 8 KB WRITE RPCs.
func (f *plusFile) WriteAt(at time.Duration, off int64, data []byte) (int, time.Duration, error) {
	c := f.c
	written := 0
	done := at
	for written < len(data) {
		n := len(data) - written
		if n > 8<<10 {
			n = 8 << 10
		}
		part := data[written : written+n]
		o := off + int64(written)
		var err error
		done, err = c.call(done, 112+n, func(arrive time.Duration) (int, time.Duration, error) {
			st, fin, err := c.co.Srv.Write(arrive, f.fh, o, part, false)
			if err == nil {
				c.attrs[f.fh.Ino] = st
			}
			return 136, fin, err
		})
		if err != nil {
			return written, done, err
		}
		written += n
	}
	return written, done, nil
}

// Fsync implements vfs.File.
func (f *plusFile) Fsync(at time.Duration) (time.Duration, error) {
	done, err := f.c.call(at, 108, func(arrive time.Duration) (int, time.Duration, error) {
		fin, err := f.c.co.Srv.Commit(arrive, f.fh)
		return 96, fin, err
	})
	return done, err
}

// Close implements vfs.File.
func (f *plusFile) Close(at time.Duration) (time.Duration, error) { return at, nil }

// guard against interface drift.
var _ vfs.FileSystem = (*Client)(nil)
var _ fmt.Stringer = Stack("")

// Stack is a tiny labeled type so callers can tag results.
type Stack string

func (s Stack) String() string { return string(s) }
