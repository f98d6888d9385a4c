package nfs

import (
	"strings"
	"time"

	"repro/internal/ext3"
	"repro/internal/lockmgr"
	"repro/internal/tracing"
	"repro/internal/vfs"
)

// Cross-client sharing: the client side of byte-range locking and v4
// delegations.
//
// Locking is NLM-shaped: LOCK/UNLOCK are ordinary RPCs against the
// server's lockmgr.Manager, and a blocked client polls — each denied
// poll is a real LOCK message on the wire, which is how NLM behaves
// over UDP and what keeps the cooperative virtual-time scheduler free
// of intra-op blocking. The client remembers its held locks so it can
// re-claim them through the server's grace window after a crash.
//
// The delegation fast path makes the v4 client behave the way the
// Section-7 simulator (trace.SimulateDelegation) models: an operation
// on a delegated path is served locally with zero messages; a
// non-delegated operation costs exactly one message, and the delegation
// acquisition rides it. The shared lockmgr.Delegations table is the
// same state machine as the simulator, so replaying a trace through a
// delegating cluster reproduces the simulator's message-reduction and
// recall numbers — the oracle test in internal/replay enforces this.

// heldLock is the client-side record of one granted lock.
type heldLock struct {
	path string
	off  int64
	len  int64
	excl bool
}

// SetSharing names this client to the server's sharing state and, when
// d is non-nil, enables the delegation fast path (v4 only — earlier
// protocol generations have no delegation to model).
func (c *Client) SetSharing(id int, d *lockmgr.Delegations) {
	c.shareID = id
	if d != nil && c.ver == V4 {
		c.deleg = d
		c.delegFH = make(map[string]FH)
		c.delegAttrs = make(map[string]vfs.Stat)
	}
	if c.lockFH == nil {
		c.lockFH = make(map[string]FH)
	}
}

// AdoptLocks carries sharing state from the client a remount replaced:
// held locks are server-side protocol state the new client must keep
// claiming (and be able to re-claim after a server restart).
func (c *Client) AdoptLocks(old *Client) {
	if old == nil {
		return
	}
	c.shareID = old.shareID
	c.heldLocks = append([]heldLock(nil), old.heldLocks...)
	c.lockFH = old.lockFH
	if c.lockFH == nil {
		c.lockFH = make(map[string]FH)
	}
}

// lockTarget resolves path to a handle for lock traffic, caching it so
// repeated polls for a contended lock cost one LOCK RPC each rather
// than a path walk.
func (c *Client) lockTarget(at time.Duration, path string) (FH, time.Duration, error) {
	if !c.mounted {
		return FH{}, at, vfs.ErrStale
	}
	if c.lockFH == nil {
		c.lockFH = make(map[string]FH)
	}
	if fh, ok := c.lockFH[path]; ok {
		return fh, at, nil
	}
	fh, done, err := c.resolve(at, path, true)
	if err != nil {
		return FH{}, done, err
	}
	c.lockFH[path] = fh
	return fh, done, nil
}

// Lock requests a byte-range lock on path. A false return with nil
// error is a denial: the server queued the request FIFO and the caller
// should poll again. Set reclaim to re-assert a pre-restart lock during
// the server's grace period.
func (c *Client) Lock(at time.Duration, path string, off, length int64, excl, reclaim bool) (bool, time.Duration, error) {
	fh, at, err := c.lockTarget(at, path)
	if err != nil {
		return false, at, err
	}
	span := c.tracer.Begin(at, tracing.LayerLock, "lock")
	var granted bool
	done, err := c.call(at, ProcLock, 0, 0, 0, func(arrive time.Duration) (time.Duration, error) {
		var e error
		granted, arrive, e = c.srv.lock(arrive, fh, c.shareID, off, length, excl, reclaim)
		return arrive, e
	})
	c.tracer.End(span, done)
	if err != nil {
		return false, done, err
	}
	if granted {
		c.rememberLock(heldLock{path: path, off: off, len: length, excl: excl})
	}
	return granted, done, nil
}

// Unlock releases a lock previously granted to this client.
func (c *Client) Unlock(at time.Duration, path string, off, length int64) (time.Duration, error) {
	fh, at, err := c.lockTarget(at, path)
	if err != nil {
		return at, err
	}
	span := c.tracer.Begin(at, tracing.LayerLock, "unlock")
	done, err := c.call(at, ProcUnlock, 0, 0, 0, func(arrive time.Duration) (time.Duration, error) {
		return c.srv.unlock(arrive, fh, c.shareID, off, length)
	})
	c.tracer.End(span, done)
	if err != nil {
		return done, err
	}
	c.forgetLock(path, off, length)
	return done, nil
}

// ReclaimLocks re-asserts every held lock after a server restart, the
// NLM/NSM recovery the server's grace period exists for. Locks the
// server refuses (another client's reclaim beat us) are dropped from
// the held list.
func (c *Client) ReclaimLocks(at time.Duration) (time.Duration, error) {
	locks := append([]heldLock(nil), c.heldLocks...)
	for _, l := range locks {
		granted, done, err := c.Lock(at, l.path, l.off, l.len, l.excl, true)
		at = done
		if err != nil {
			return at, err
		}
		if !granted {
			c.forgetLock(l.path, l.off, l.len)
		}
	}
	return at, nil
}

// HeldLockCount reports how many locks this client believes it holds.
func (c *Client) HeldLockCount() int { return len(c.heldLocks) }

func (c *Client) rememberLock(l heldLock) {
	for _, h := range c.heldLocks {
		if h == l {
			return
		}
	}
	c.heldLocks = append(c.heldLocks, l)
}

func (c *Client) forgetLock(path string, off, length int64) {
	for i, h := range c.heldLocks {
		if h.path == path && h.off == off && h.len == length {
			c.heldLocks = append(c.heldLocks[:i], c.heldLocks[i+1:]...)
			return
		}
	}
}

// delegated reports whether the delegation fast path serves path, and the
// name it serves: delegations on, the client mounted, and a "/name" path (the
// replay namespace is flat; anything deeper goes through the walk).
func (c *Client) delegated(path string) (string, bool) {
	if c.deleg == nil || !c.mounted || len(path) < 2 || path[0] != '/' {
		return "", false
	}
	name := path[1:]
	return name, !strings.ContainsRune(name, '/')
}

// delegStat serves stat(2) under the delegation regime: zero messages
// when this client holds a lease on the path, exactly one otherwise —
// a GETATTR when the handle is cached, a LOOKUP (which returns handle
// plus attributes) when it is not. The lease acquisition rides that one
// message, mirroring the oracle's accounting.
func (c *Client) delegStat(at time.Duration, path, name string) (vfs.Stat, time.Duration, error) {
	if c.deleg.Read(c.shareID, path) {
		if st, ok := c.delegAttrs[path]; ok {
			return st, c.charge(at, 0), nil
		}
		// Lease held but attributes lost to a cache drop: refetch (one
		// message; cannot happen inside an oracle measurement window).
	}
	fh, cached := c.delegFH[path]
	var st vfs.Stat
	var done time.Duration
	var err error
	if cached {
		st, done, err = c.attrCall(at, fh, ProcGetattr)
	} else {
		fh, st, done, err = c.fhCall(at, ProcLookup, len(name), 0, func(arrive time.Duration) (FH, vfs.Stat, time.Duration, error) {
			return c.srv.lookup(arrive, c.rootFH, name)
		})
	}
	if err == nil {
		c.delegFH[path], c.delegAttrs[path] = fh, st
	}
	return st, done, err
}

// delegUtimes serves utimes(2) under the delegation regime: a holder of
// an uncontested write delegation aggregates the update locally (zero
// messages); otherwise one message carries the update — SETATTR on a
// cached handle, or the setattrNamed COMPOUND when the handle is
// unknown — and the write delegation rides it.
func (c *Client) delegUtimes(at time.Duration, path, name string, atime, mtime time.Duration) (time.Duration, error) {
	if c.deleg.Write(c.shareID, path) {
		if st, ok := c.delegAttrs[path]; ok {
			st.Atime, st.Mtime = atime, mtime
			c.delegAttrs[path] = st
			return c.charge(at, 0), nil
		}
	}
	sa := ext3.SetAttr{Atime: &atime, Mtime: &mtime}
	fh, cached := c.delegFH[path]
	var st vfs.Stat
	var done time.Duration
	var err error
	if cached {
		st, done, err = c.setattrCall(at, fh, sa)
	} else {
		fh, st, done, err = c.fhCall(at, ProcSetattr, len(name), 0, func(arrive time.Duration) (FH, vfs.Stat, time.Duration, error) {
			return c.srv.setattrNamed(arrive, c.rootFH, name, sa)
		})
	}
	if err == nil {
		c.delegFH[path], c.delegAttrs[path] = fh, st
	}
	return done, err
}
