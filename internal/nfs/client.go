package nfs

import (
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/ext3"
	"repro/internal/lockmgr"
	"repro/internal/sim"
	"repro/internal/sunrpc"
	"repro/internal/tracing"
	"repro/internal/vfs"
)

// clientCosts is the client-side CPU demand per RPC. The NFS client is
// thin — path resolution and caching logic only — which is why the paper
// measures an order of magnitude less client CPU for NFS than for iSCSI
// on meta-data workloads (Table 10).
type clientCosts struct {
	PerCall time.Duration
	PerKB   time.Duration
}

// defaultClientCosts returns the client path demand.
func defaultClientCosts() clientCosts {
	return clientCosts{PerCall: 18 * time.Microsecond, PerKB: 4 * time.Microsecond}
}

// dcKey identifies a dentry: (directory inode, name).
type dcKey struct {
	dir  uint64
	name string
}

// dentry is a cached (positive or negative) name resolution.
type dentry struct {
	fh       FH
	negative bool
	cachedAt time.Duration
}

// attrEntry caches attributes with their fetch time.
type attrEntry struct {
	st        vfs.Stat
	fetchedAt time.Duration
}

// dirListing caches a READDIR result.
type dirListing struct {
	ents      []vfs.DirEntry
	fetchedAt time.Duration
}

// Client is the NFS client: it implements vfs.FileSystem over RPC.
type Client struct {
	ver    Version
	rpc    *sunrpc.Client
	srv    *Server
	cpu    *sim.CPU
	cost   clientCosts
	tracer *tracing.Tracer

	rootFH  FH
	mounted bool

	dc       map[dcKey]dentry
	attrs    map[uint64]attrEntry
	access   map[uint64]time.Duration // v4 per-directory ACCESS cache
	listings map[uint64]*dirListing
	pages    *pageCache
	files    map[uint64]fileState
	handles  map[FH]*nfsFile // one open-file handle per filehandle
	wb       *writeBehind

	attrTTL time.Duration
	dataTTL time.Duration

	// Cross-client sharing state (lock.go). shareID names this client to
	// the server's lock manager and delegation table; heldLocks is the
	// client-side lock list (survives cache drops — locks are protocol
	// state, not cache — and seeds post-restart reclaims); lockFH caches
	// lock-target handles so a blocked client's polls cost one LOCK RPC
	// each, not a fresh path walk. deleg, when non-nil, enables the v4
	// delegation fast path: delegFH/delegAttrs are the handles and
	// attributes local operations are served from.
	shareID    int
	heldLocks  []heldLock
	lockFH     map[string]FH
	deleg      *lockmgr.Delegations
	delegFH    map[string]FH
	delegAttrs map[string]vfs.Stat

	// Tunables (exported for ablation benchmarks).
	ReadAheadPages   int // client read-ahead, in pages
	MaxPendingWrites int // async-write pool bound (pages); beyond it the
	// client degenerates to pseudo-synchronous writes (Section 4.5)
	FlushWindow int // in-flight WRITE RPCs during a flush
}

// NewClient builds a client for ver speaking to srv over rpcc.
func NewClient(ver Version, rpcc *sunrpc.Client, srv *Server, cpu *sim.CPU) *Client {
	attrTTL := AttrTimeout
	if ver == V4 {
		// The v4 client trusts its caches longer (the protocol's stateful
		// design anticipates delegation); this reproduces the near-zero
		// warm-cache counts of Table 3's v4 column.
		attrTTL = 60 * time.Second
	}
	c := &Client{
		ver:              ver,
		rpc:              rpcc,
		srv:              srv,
		cpu:              cpu,
		cost:             defaultClientCosts(),
		dc:               make(map[dcKey]dentry),
		attrs:            make(map[uint64]attrEntry),
		access:           make(map[uint64]time.Duration),
		listings:         make(map[uint64]*dirListing),
		files:            make(map[uint64]fileState),
		handles:          make(map[FH]*nfsFile),
		pages:            newPageCache(131072, nil), // 512 MB client RAM
		attrTTL:          attrTTL,
		dataTTL:          dataTimeout,
		ReadAheadPages:   16,
		MaxPendingWrites: 256,
		FlushWindow:      16,
	}
	c.wb = newWriteBehind(c)
	return c
}

// SetTracer attaches a tracer: every RPC issued through the client's call
// funnel becomes a tracing.LayerRPC span named after its procedure, with
// transport legs and server work nested beneath it.
func (c *Client) SetTracer(t *tracing.Tracer) { c.tracer = t }

// SetCacheCapacity bounds the client page cache (in 4 KB pages), modeling
// the client machine's memory.
func (c *Client) SetCacheCapacity(pages int) {
	if pages > 0 {
		c.pages.max = pages
	}
}

// SetPool makes the page cache take its pages from p and return them where
// it drops them (see the ownership rules on pageCache).
func (c *Client) SetPool(p *blockdev.Pool) { c.pages.mem.Pool = p }

// Mount obtains the root filehandle and its attributes (MOUNT + GETATTR +
// FSINFO in real life; message accounting starts after mount in all
// experiments, as the paper counts per-syscall traffic).
func (c *Client) Mount(at time.Duration) (time.Duration, error) {
	c.rootFH = c.srv.rootFH()
	_, done, err := c.attrCall(at, c.rootFH, ProcGetattr)
	if err != nil {
		return done, err
	}
	c.mounted = true
	return done, nil
}

// DropCaches models unmount/remount cache emptying (the cold-cache knob).
// The maps keep their storage: a cold cache refills to about its old size.
func (c *Client) DropCaches() {
	clear(c.dc)
	clear(c.attrs)
	clear(c.access)
	clear(c.listings)
	clear(c.files)
	clear(c.handles)
	c.pages.drop()
	c.wb = newWriteBehind(c)
	if c.deleg != nil {
		c.delegFH = make(map[string]FH)
		c.delegAttrs = make(map[string]vfs.Stat)
	}
}

// Abort detaches the mount without flushing anything: the caches are dropped
// as in DropCaches and every later call fails with vfs.ErrStale. It is the
// client's share of powering a whole assembly off (testbed's Cluster.Close);
// Unmount is the orderly version.
func (c *Client) Abort() {
	c.DropCaches()
	c.mounted = false
}

// charge bills client CPU for one call handling payload bytes.
func (c *Client) charge(at time.Duration, payload int) time.Duration {
	if c.cpu == nil {
		return at
	}
	return c.cpu.Run(at, c.cost.PerCall+time.Duration(payload/1024)*c.cost.PerKB)
}

// chargeInterrupt bills client CPU for asynchronous reply processing:
// the cost is accounted (interrupt-style) without gating the run queue,
// so an in-flight reply does not serialize the next call's marshalling.
func (c *Client) chargeInterrupt(at time.Duration, payload int) time.Duration {
	if c.cpu == nil {
		return at
	}
	return c.cpu.Interrupt(at, c.cost.PerCall+time.Duration(payload/1024)*c.cost.PerKB)
}

// call performs one RPC with realistic wire sizes. serve runs at the
// server and returns its completion time plus the op error (which travels
// back in the reply status).
func (c *Client) call(at time.Duration, p Proc, nameLen, argPayload, resPayload int,
	serve func(arrive time.Duration) (time.Duration, error)) (time.Duration, error) {
	return c.callCharged(at, p, nameLen, argPayload, resPayload, serve, c.charge)
}

// asyncCall performs one RPC issued by the write-behind machinery:
// marshalling charges (and is serialized by) the client CPU like any
// call, but the reply is processed interrupt-style, so a reply in flight
// never gates the next request's marshalling. This is what lets a flush
// batch keep FlushWindow WRITEs on the wire — and what makes the RPC
// transport slot table observable as a bottleneck when it is narrower
// than the pipeline.
func (c *Client) asyncCall(at time.Duration, p Proc, nameLen, argPayload, resPayload int,
	serve func(arrive time.Duration) (time.Duration, error)) (time.Duration, error) {
	return c.callCharged(at, p, nameLen, argPayload, resPayload, serve, c.chargeInterrupt)
}

// callCharged is the shared RPC body: chargeReply bills the reply-side
// CPU cost (run-queue gating for synchronous calls, interrupt accounting
// for asynchronous ones).
func (c *Client) callCharged(at time.Duration, p Proc, nameLen, argPayload, resPayload int,
	serve func(arrive time.Duration) (time.Duration, error),
	chargeReply func(time.Duration, int) time.Duration) (time.Duration, error) {
	at = c.charge(at, argPayload)
	ref := c.tracer.Begin(at, tracing.LayerRPC, p.String())
	var opErr error
	done, rpcErr := c.rpc.Call(at, argSize(c.ver, p, nameLen, argPayload),
		func(arrive time.Duration) (int, time.Duration) {
			fin, err := serve(arrive)
			opErr = err
			if err != nil {
				return resSize(c.ver, p, 0), fin
			}
			return resSize(c.ver, p, resPayload), fin
		})
	if rpcErr != nil {
		c.tracer.End(ref, done)
		return done, rpcErr
	}
	done = chargeReply(done, resPayload)
	c.tracer.End(ref, done)
	return done, opErr
}

// fhCall performs one RPC whose reply carries a handle and its attributes
// (LOOKUP, the creating calls, OPEN, GETATTR, ACCESS, SETATTR, a v2 WRITE)
// and caches the attributes. A failed call returns neither.
func (c *Client) fhCall(at time.Duration, p Proc, nameLen, argPayload int,
	serve func(arrive time.Duration) (FH, vfs.Stat, time.Duration, error)) (FH, vfs.Stat, time.Duration, error) {
	var fh FH
	var st vfs.Stat
	done, err := c.call(at, p, nameLen, argPayload, 0, func(arrive time.Duration) (time.Duration, error) {
		var e error
		fh, st, arrive, e = serve(arrive)
		return arrive, e
	})
	if err != nil {
		return FH{}, vfs.Stat{}, done, err
	}
	c.putAttrs(fh, st, done)
	return fh, st, done, nil
}

// attrCall fetches fh's attributes with GETATTR, or with ACCESS when p is
// ProcAccess (the server checks permission and replies with the same
// attributes).
func (c *Client) attrCall(at time.Duration, fh FH, p Proc) (vfs.Stat, time.Duration, error) {
	serve := c.srv.getattr
	if p == ProcAccess {
		serve = c.srv.access
	}
	_, st, done, err := c.fhCall(at, p, 0, 0, func(arrive time.Duration) (FH, vfs.Stat, time.Duration, error) {
		st, done, err := serve(arrive, fh)
		return fh, st, done, err
	})
	return st, done, err
}

// setattrCall sends SETATTR for fh.
func (c *Client) setattrCall(at time.Duration, fh FH, sa ext3.SetAttr) (vfs.Stat, time.Duration, error) {
	_, st, done, err := c.fhCall(at, ProcSetattr, 0, 0, func(arrive time.Duration) (FH, vfs.Stat, time.Duration, error) {
		st, done, err := c.srv.setattr(arrive, fh, sa)
		return fh, st, done, err
	})
	return st, done, err
}

// refresh is the post-op GETATTR the Linux client sends after some updates;
// a failed one leaves the caller's time as it was.
func (c *Client) refresh(at time.Duration, fh FH) time.Duration {
	if _, done, err := c.attrCall(at, fh, ProcGetattr); err == nil {
		return done
	}
	return at
}

// ---- cache plumbing ----

// putAttrs caches fh's attributes.
func (c *Client) putAttrs(fh FH, st vfs.Stat, now time.Duration) {
	c.attrs[fh.Ino] = attrEntry{st: st, fetchedAt: now}
}

// freshAttrs returns fh's cached attributes, whether there are any, and
// whether they are within the attribute timeout.
func (c *Client) freshAttrs(fh FH, now time.Duration) (a attrEntry, ok, fresh bool) {
	a, ok = c.attrs[fh.Ino]
	return a, ok, ok && now-a.fetchedAt <= c.attrTTL
}

// putDentry caches (dir, name) -> fh. "." and ".." are looked up every time,
// as in ext3's dentry cache: a directory's ".." changes when it is renamed
// under another parent, and revalidating the old parent's handle succeeds.
func (c *Client) putDentry(dir FH, name string, fh FH, now time.Duration) {
	if name == "." || name == ".." {
		return
	}
	c.dc[dcKey{dir.Ino, name}] = dentry{fh: fh, cachedAt: now}
}

// accessRPC performs the v4 per-directory ACCESS check when its cache
// entry is stale — the behaviour behind NFS v4's higher message counts in
// Table 2 and Figure 4 (the paper's footnote 3).
func (c *Client) accessRPC(at time.Duration, fh FH) (time.Duration, error) {
	if c.ver != V4 {
		return at, nil
	}
	if t, ok := c.access[fh.Ino]; ok && at-t <= c.attrTTL {
		return at, nil
	}
	_, done, err := c.attrCall(at, fh, ProcAccess)
	if err == nil {
		c.access[fh.Ino] = done
	}
	return done, err
}

// ---- name resolution ----

// lookupComponent resolves one name in dir using the dentry cache, the
// attribute-cache revalidation rule, and a LOOKUP RPC on a miss.
func (c *Client) lookupComponent(at time.Duration, dir FH, name string) (FH, time.Duration, error) {
	key := dcKey{dir.Ino, name}
	if d, ok := c.dc[key]; ok {
		if d.negative {
			if at-d.cachedAt <= c.attrTTL {
				return FH{}, at, vfs.ErrNotExist
			}
			delete(c.dc, key)
		} else if _, _, fresh := c.freshAttrs(d.fh, at); fresh {
			return d.fh, at, nil // cache hit, no traffic
		} else {
			// Stale: one revalidation GETATTR (the consistency check the
			// paper identifies as NFS's warm-cache overhead).
			_, done, err := c.attrCall(at, d.fh, ProcGetattr)
			if err == nil {
				d.cachedAt = done
				c.dc[key] = d
				return d.fh, done, nil
			}
			if err != vfs.ErrStale && err != vfs.ErrNotExist {
				return FH{}, done, err
			}
			delete(c.dc, key)
			at = done
		}
	}
	fh, _, done, err := c.fhCall(at, ProcLookup, len(name), 0, func(arrive time.Duration) (FH, vfs.Stat, time.Duration, error) {
		return c.srv.lookup(arrive, dir, name)
	})
	if err == vfs.ErrNotExist {
		c.dc[key] = dentry{negative: true, cachedAt: done}
	}
	if err != nil {
		return FH{}, done, err
	}
	c.putDentry(dir, name, fh, done)
	return fh, done, nil
}

// resolve walks path to a filehandle. followFinal controls symlink
// handling on the last component. v4 performs its ACCESS checks on every
// directory traversed, starting with the root.
func (c *Client) resolve(at time.Duration, path string, followFinal bool) (FH, time.Duration, error) {
	rel, err := vfs.RelPath(path)
	if err != nil {
		return FH{}, at, err
	}
	return c.walk(at, c.rootFH, rel, followFinal, 0)
}

// walk resolves the components of rel (validated: vfs.RelPath, vfs.CheckRel)
// from start, stepping through the string in place. Every path operation
// comes through here, so this is where a detached client (Abort, Unmount)
// fails with vfs.ErrStale before anything is sent.
func (c *Client) walk(at time.Duration, start FH, rel string, followFinal bool, depth int) (FH, time.Duration, error) {
	if !c.mounted {
		return FH{}, at, vfs.ErrStale
	}
	cur := start
	done := at
	var err error
	if done, err = c.accessRPC(done, cur); err != nil {
		return FH{}, done, err
	}
	for rel != "" {
		var comp string
		comp, rel, _ = strings.Cut(rel, "/")
		var fh FH
		fh, done, err = c.lookupComponent(done, cur, comp)
		if err != nil {
			return FH{}, done, err
		}
		final := rel == ""
		mode := c.attrs[fh.Ino].st.Mode // 0 when none is cached
		isLink := mode.IsSymlink()
		if isLink && (!final || followFinal) {
			if depth >= maxSymlinkDepth {
				return FH{}, done, vfs.ErrInvalid
			}
			var target string
			target, done, err = c.readlinkRPC(done, fh)
			if err != nil {
				return FH{}, done, err
			}
			trel, base, err := c.linkBase(target, cur)
			if err != nil {
				return FH{}, done, err
			}
			fh, done, err = c.walk(done, base, trel, true, depth+1)
			if err != nil {
				return FH{}, done, err
			}
		}
		cur = fh
		if !final || mode.IsDir() {
			// v4 checks access on a directory target too.
			if done, err = c.accessRPC(done, cur); err != nil {
				return FH{}, done, err
			}
		}
	}
	return cur, done, nil
}

// linkBase interprets a symlink target relative to dir (or the root when
// absolute): the validated relative path plus the directory it starts in.
func (c *Client) linkBase(target string, dir FH) (string, FH, error) {
	if target == "" {
		return "", FH{}, vfs.ErrInvalid
	}
	if target[0] == '/' {
		rel, err := vfs.RelPath(target)
		return rel, c.rootFH, err
	}
	return target, dir, vfs.CheckRel(target)
}

// resolveParent resolves the directory containing path's final component.
func (c *Client) resolveParent(at time.Duration, path string) (FH, string, time.Duration, error) {
	rel, name, err := vfs.ParentRel(path)
	if err != nil {
		return FH{}, "", at, err
	}
	dir, done, err := c.walk(at, c.rootFH, rel, true, 0)
	return dir, name, done, err
}

// want is what the final-name probe expects to find.
type want int

const (
	absent  want = iota // mkdir, symlink, link: a hit is EEXIST
	anyName             // creat, rename's destination
	present             // rmdir, unlink, rename's source
)

// lookupLast resolves path's parent and LOOKUPs the final name: the probe
// every namespace update of Table 2 starts with. A miss is an error only
// when w is present; a hit is EEXIST when w is absent.
func (c *Client) lookupLast(at time.Duration, path string, w want) (FH, string, FH, time.Duration, error) {
	dir, name, done, err := c.resolveParent(at, path)
	if err != nil {
		return dir, name, FH{}, done, err
	}
	fh, done, err := c.lookupComponent(done, dir, name)
	switch {
	case err == nil && w == absent:
		err = vfs.ErrExist
	case err == vfs.ErrNotExist && w != present:
		err = nil
	}
	return dir, name, fh, done, err
}

func (c *Client) readlinkRPC(at time.Duration, fh FH) (string, time.Duration, error) {
	var target string
	done, err := c.call(at, ProcReadlink, 0, 0, 64, func(arrive time.Duration) (time.Duration, error) {
		var e error
		target, arrive, e = c.srv.readlink(arrive, fh)
		return arrive, e
	})
	return target, done, err
}

const maxSymlinkDepth = 8

// invalidateDir drops cached state for a directory whose content changed.
func (c *Client) invalidateDir(dir FH) {
	delete(c.listings, dir.Ino)
}

// ---- namespace operations (vfs.FileSystem) ----

// addName creates path's final name after a negative probe. serve is the
// creating call (MKDIR, SYMLINK or LINK in dir), which replies with the new
// name's handle and attributes.
func (c *Client) addName(at time.Duration, path string, p Proc, argPayload int,
	serve func(arrive time.Duration, dir FH, name string) (FH, vfs.Stat, time.Duration, error)) (FH, time.Duration, error) {
	dir, name, _, done, err := c.lookupLast(at, path, absent)
	if err != nil {
		return FH{}, done, err
	}
	fh, _, done, err := c.fhCall(done, p, len(name), argPayload, func(arrive time.Duration) (FH, vfs.Stat, time.Duration, error) {
		return serve(arrive, dir, name)
	})
	if err != nil {
		return FH{}, done, err
	}
	c.putDentry(dir, name, fh, done)
	c.invalidateDir(dir)
	return fh, done, nil
}

// removeName removes path's final name after a positive probe (serve is
// RMDIR or REMOVE in dir) and forgets everything cached of the object: its
// dentry, attributes and listing, and its queued writes and pages, which
// must not reach a file that later gets the same inode.
func (c *Client) removeName(at time.Duration, path string, p Proc,
	serve func(arrive time.Duration, dir FH, name string) (time.Duration, error)) (time.Duration, error) {
	dir, name, fh, done, err := c.lookupLast(at, path, present)
	if err != nil {
		return done, err
	}
	done, err = c.call(done, p, len(name), 0, 0, func(arrive time.Duration) (time.Duration, error) {
		return serve(arrive, dir, name)
	})
	if err != nil {
		return done, err
	}
	delete(c.dc, dcKey{dir.Ino, name})
	delete(c.attrs, fh.Ino)
	delete(c.listings, fh.Ino)
	c.wb.dropFile(fh.Ino)
	c.pages.dropFile(fh.Ino)
	c.invalidateDir(dir)
	return done, nil
}

// Mkdir implements vfs.FileSystem.
func (c *Client) Mkdir(at time.Duration, path string, mode vfs.Mode) (time.Duration, error) {
	fh, done, err := c.addName(at, path, ProcMkdir, 0, func(arrive time.Duration, dir FH, name string) (FH, vfs.Stat, time.Duration, error) {
		return c.srv.mkdir(arrive, dir, name, mode)
	})
	if err == nil && c.ver == V4 {
		// Post-op attribute refresh (observed v4 client behaviour).
		done = c.refresh(done, fh)
	}
	return done, err
}

// Rmdir implements vfs.FileSystem.
func (c *Client) Rmdir(at time.Duration, path string) (time.Duration, error) {
	return c.removeName(at, path, ProcRmdir, c.srv.rmdir)
}

// Symlink implements vfs.FileSystem.
func (c *Client) Symlink(at time.Duration, target, path string) (time.Duration, error) {
	_, done, err := c.addName(at, path, ProcSymlink, len(target), func(arrive time.Duration, dir FH, name string) (FH, vfs.Stat, time.Duration, error) {
		return c.srv.symlink(arrive, dir, name, target)
	})
	return done, err
}

// Readlink implements vfs.FileSystem.
func (c *Client) Readlink(at time.Duration, path string) (string, time.Duration, error) {
	fh, done, err := c.resolve(at, path, false)
	if err != nil {
		return "", done, err
	}
	return c.readlinkRPC(done, fh)
}

// Link implements vfs.FileSystem.
func (c *Client) Link(at time.Duration, oldpath, newpath string) (time.Duration, error) {
	target, done, err := c.resolve(at, oldpath, false)
	if err != nil {
		return done, err
	}
	_, done, err = c.addName(done, newpath, ProcLink, 0, func(arrive time.Duration, dir FH, name string) (FH, vfs.Stat, time.Duration, error) {
		st, done, err := c.srv.link(arrive, target, dir, name)
		return FH{Ino: st.Ino}, st, done, err
	})
	if err != nil {
		return done, err
	}
	// Post-op attribute refresh of the link target (Linux behaviour).
	return c.refresh(done, target), nil
}

// Unlink implements vfs.FileSystem.
func (c *Client) Unlink(at time.Duration, path string) (time.Duration, error) {
	return c.removeName(at, path, ProcRemove, c.srv.remove)
}

// Rename implements vfs.FileSystem.
func (c *Client) Rename(at time.Duration, oldpath, newpath string) (time.Duration, error) {
	odir, oname, fh, done, err := c.lookupLast(at, oldpath, present)
	if err != nil {
		return done, err
	}
	ndir, nname, _, done, err := c.lookupLast(done, newpath, anyName)
	if err != nil {
		return done, err
	}
	done, err = c.call(done, ProcRename, len(oname)+len(nname), 0, 0, func(arrive time.Duration) (time.Duration, error) {
		return c.srv.rename(arrive, odir, oname, ndir, nname)
	})
	if err != nil {
		return done, err
	}
	delete(c.dc, dcKey{odir.Ino, oname})
	c.putDentry(ndir, nname, fh, done)
	c.invalidateDir(odir)
	c.invalidateDir(ndir)
	// Post-op refresh of the moved object.
	return c.refresh(done, fh), nil
}

// ReadDir implements vfs.FileSystem, with listing caching: a warm readdir
// costs only the revalidation GETATTR (Table 3's readdir row).
func (c *Client) ReadDir(at time.Duration, path string) ([]vfs.DirEntry, time.Duration, error) {
	fh, done, err := c.resolve(at, path, true)
	if err != nil {
		return nil, done, err
	}
	if l, ok := c.listings[fh.Ino]; ok && done-l.fetchedAt <= c.dataTTL {
		// Listing cached; resolution already revalidated attributes.
		return l.ents, done, nil
	}
	var ents []vfs.DirEntry
	plus := c.ver >= V3
	payload := 0
	// Known defect, kept: the reply is charged as empty (ROADMAP, "READDIR replies").
	done, err = c.call(done, ProcReaddir, 0, 0, payload, func(arrive time.Duration) (time.Duration, error) {
		var e error
		ents, arrive, e = c.srv.readdir(arrive, fh, plus)
		for _, ent := range ents {
			payload += readdirEntrySize(c.ver, len(ent.Name))
		}
		return arrive, e
	})
	if err != nil {
		return nil, done, err
	}
	c.listings[fh.Ino] = &dirListing{ents: ents, fetchedAt: done}
	if plus {
		// READDIRPLUS primes the dentry and attribute caches.
		for _, ent := range ents {
			c.putDentry(fh, ent.Name, FH{Ino: ent.Ino}, done)
		}
	}
	return ents, done, nil
}

// Stat implements vfs.FileSystem.
func (c *Client) Stat(at time.Duration, path string) (vfs.Stat, time.Duration, error) {
	if name, ok := c.delegated(path); ok {
		return c.delegStat(at, path, name)
	}
	fh, done, err := c.resolve(at, path, true)
	if err != nil {
		return vfs.Stat{}, done, err
	}
	// stat(2) fetches attributes even when the cache is fresh for v2/v3
	// (observed client behaviour: a GETATTR accompanies the syscall).
	if a, _, fresh := c.freshAttrs(fh, done); fresh && c.ver == V4 {
		return a.st, done, nil
	}
	return c.attrCall(done, fh, ProcGetattr)
}

// setattr sends SETATTR plus the post-op GETATTR the Linux client issues
// for mode/owner/size changes.
func (c *Client) setattr(at time.Duration, path string, sa ext3.SetAttr, postGetattr bool) (time.Duration, error) {
	fh, done, err := c.resolve(at, path, true)
	if err != nil {
		return done, err
	}
	if sa.Size != nil {
		// A size change writes the file's dirty pages back first, as Linux
		// does: what the server truncates is then what the client wrote, and
		// no queued page is left to land past the new end.
		if done, err = c.flushFile(done, fh.Ino); err != nil {
			return done, err
		}
	}
	if _, done, err = c.setattrCall(done, fh, sa); err != nil {
		return done, err
	}
	if sa.Size != nil {
		c.pages.truncate(fh.Ino, *sa.Size)
	}
	if postGetattr {
		done = c.refresh(done, fh)
	}
	return done, nil
}

// Chmod implements vfs.FileSystem.
func (c *Client) Chmod(at time.Duration, path string, mode vfs.Mode) (time.Duration, error) {
	return c.setattr(at, path, ext3.SetAttr{Mode: &mode}, true)
}

// Chown implements vfs.FileSystem.
func (c *Client) Chown(at time.Duration, path string, uid, gid uint32) (time.Duration, error) {
	return c.setattr(at, path, ext3.SetAttr{UID: &uid, GID: &gid}, true)
}

// Utimes implements vfs.FileSystem.
func (c *Client) Utimes(at time.Duration, path string, atime, mtime time.Duration) (time.Duration, error) {
	if name, ok := c.delegated(path); ok {
		return c.delegUtimes(at, path, name, atime, mtime)
	}
	return c.setattr(at, path, ext3.SetAttr{Atime: &atime, Mtime: &mtime}, false)
}

// Truncate implements vfs.FileSystem.
func (c *Client) Truncate(at time.Duration, path string, size int64) (time.Duration, error) {
	return c.setattr(at, path, ext3.SetAttr{Size: &size}, true)
}

// Access implements vfs.FileSystem: v3/v4 use the ACCESS procedure, v2
// falls back to GETATTR-based permission checking.
func (c *Client) Access(at time.Duration, path string, _ int) (time.Duration, error) {
	fh, done, err := c.resolve(at, path, true)
	if err != nil {
		return done, err
	}
	p := ProcAccess
	if c.ver == V2 {
		p = ProcGetattr
	}
	_, done, err = c.attrCall(done, fh, p)
	return done, err
}

// Sync implements vfs.FileSystem: flush the write-behind pool and COMMIT.
func (c *Client) Sync(at time.Duration) (time.Duration, error) {
	return c.wb.drain(at)
}
