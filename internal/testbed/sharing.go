package testbed

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/iscsi"
	"repro/internal/scsi"
	"repro/internal/vfs"
)

// Cross-client sharing: the testbed surface for contention workloads.
//
// Both stacks expose the same shared-object syscalls — open, read/write
// at an offset, try-lock and unlock — but the protocols underneath are
// deliberately asymmetric, which is the point of the comparison:
//
//   - NFS shares a file (sharedPath on the common export). Locks are
//     byte-range NLM locks against the server's lock manager; every
//     lock attempt, granted or denied, is one LOCK RPC.
//   - iSCSI shares a raw LUN (LUN 1, exported by every
//     client's target over one persistent-reservation table). The only
//     lock SPC-3 gives us is whole-LUN: an exclusive lock maps to a
//     write-exclusive persistent reservation, and a shared lock maps to
//     nothing at all — concurrent readers need no reservation, so it is
//     a free local no-op where NFS still pays an RPC.
//
// Lock acquisition never blocks inside an op (the cooperative scheduler
// forbids it); a denied TryLockShared returns false and the workload
// polls, which is faithful to both NLM-over-UDP and reservation-retry
// behavior.

// SharingConfig enables the cross-client sharing machinery on a cluster.
type SharingConfig struct {
	// Delegation enables the NFSv4 delegation fast path (NFSv4 only):
	// clients serve operations on leased paths locally and the server
	// recalls leases on conflict, mirroring trace.SimulateDelegation.
	Delegation bool
	// GracePeriod is the reclaim-only window after a server restart.
	GracePeriod time.Duration
}

// validate rejects unusable sharing parameters.
func (s *SharingConfig) validate(kind Kind) error {
	if s.GracePeriod < 0 {
		return fmt.Errorf("testbed: negative grace period %v", s.GracePeriod)
	}
	if s.Delegation && kind != NFSv4 {
		return fmt.Errorf("testbed: delegation requires NFSv4, got %s", kind)
	}
	return nil
}

// ShareCounters reports the sharing machinery's admission counts: lock
// grants and denied polls (grace-period denials included) on NFS,
// reservations taken and reservation conflicts on iSCSI, zero without
// Sharing.
func (cl *Cluster) ShareCounters() (grants, denials int64) {
	if cl.locks != nil {
		c := cl.locks.Counters()
		return c["grants"], c["denials"] + c["grace_denials"]
	}
	if cl.rsv != nil {
		c := cl.rsv.Counters()
		return c["reserves"], c["conflicts"]
	}
	return 0, 0
}

// sharedPath is the shared file every NFS client contends on (the iSCSI
// analogue is the shared LUN, which has no name).
const sharedPath = "/shared0"

// errBusy reports that a shared-object operation was refused because of
// another client's lock or reservation; the caller should poll.
var errBusy = errors.New("testbed: shared object busy")

// OpenShared opens the cluster's shared object. On NFS this opens (or,
// with create set, creates) sharedPath and holds it open for
// SharedReadAt/SharedWriteAt; on iSCSI the shared LUN needs no open and
// the call costs nothing.
func (c *Client) OpenShared(create bool) error {
	if c.initiator() != nil {
		return nil
	}
	open := c.Open
	if create {
		open = c.Create
	}
	f, err := open(sharedPath)
	if err != nil {
		return err
	}
	c.sharedF = f
	return nil
}

// initiator returns the endpoint that addresses an iSCSI client's shared
// LUN, and nil on NFS.
func (c *Client) initiator() *iscsi.Initiator {
	if st, ok := c.stack.(*iscsiStack); ok {
		return st.endpoint
	}
	return nil
}

// SharedReadAt reads len(buf) bytes at byte offset off from the shared
// object. On iSCSI the extent must be block-aligned (the LUN is raw) and
// a foreign exclusive-access reservation surfaces as errBusy.
func (c *Client) SharedReadAt(off int64, buf []byte) error {
	return c.sharedIO("read", off, buf, (*iscsi.Initiator).SharedRead, c.ReadFileAt)
}

// SharedWriteAt writes data at byte offset off in the shared object. On
// iSCSI any foreign reservation surfaces as errBusy.
func (c *Client) SharedWriteAt(off int64, data []byte) error {
	return c.sharedIO("write", off, data, (*iscsi.Initiator).SharedWrite, c.WriteFileAt)
}

// sharedIO is one read or write of the shared object: lun on the shared
// LUN's initiator, or file on the NFS handle OpenShared holds.
func (c *Client) sharedIO(op string, off int64, p []byte,
	lun func(*iscsi.Initiator, time.Duration, int64, []byte) (time.Duration, error),
	file func(vfs.File, int64, []byte) (int, error)) error {
	ep := c.initiator()
	if ep == nil {
		if c.sharedF == nil {
			return fmt.Errorf("testbed: shared file not open")
		}
		_, err := file(c.sharedF, off, p)
		return err
	}
	bs := int64(ep.BlockSize())
	if off%bs != 0 || int64(len(p))%bs != 0 {
		return fmt.Errorf("testbed: unaligned shared %s [%d,+%d)", op, off, len(p))
	}
	err := c.do(op, func(now time.Duration) (time.Duration, error) {
		return lun(ep, now, off/bs, p)
	})
	if errors.Is(err, iscsi.ErrReservationConflict) {
		return errBusy // the cross-protocol "locked by someone else" signal
	}
	return err
}

// TryLockShared attempts to lock [off, off+length) of the shared object
// (length <= 0 = to EOF). A false return with nil error is a denial —
// poll again. On NFS every attempt is one LOCK RPC; on iSCSI an
// exclusive lock is a whole-LUN write-exclusive persistent reservation
// (the byte range is ignored — SPC-3 has nothing finer) and a shared
// lock is a free no-op, since only writers need excluding.
func (c *Client) TryLockShared(off, length int64, excl bool) (bool, error) {
	ep := c.initiator()
	if ep != nil && !excl {
		return true, nil
	}
	return frame(c, "lock", func(now time.Duration) (bool, time.Duration, error) {
		if ep != nil {
			return ep.Reserve(now, scsi.TypeWriteExclusive)
		}
		return c.stack.(*nfsStack).client.Lock(now, sharedPath, off, length, excl, false)
	})
}

// UnlockShared releases a lock taken with TryLockShared.
func (c *Client) UnlockShared(off, length int64, excl bool) error {
	ep := c.initiator()
	if ep != nil && !excl {
		return nil
	}
	return c.do("unlock", func(now time.Duration) (time.Duration, error) {
		if ep != nil {
			return ep.Release(now)
		}
		return c.stack.(*nfsStack).client.Unlock(now, sharedPath, off, length)
	})
}
