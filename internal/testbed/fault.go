package testbed

import (
	"fmt"
	"time"

	"repro/internal/simdisk"
)

// Fault-injection hooks: the cluster-level surface internal/fault drives.
// Each hook mutates exactly the state the corresponding real-world fault
// would destroy, and leaves recovery to the machinery the stacks already
// have — ext3 journal replay on remount, SunRPC retransmission, TCP
// reconnects, iSCSI re-login. The hooks themselves consume no virtual
// time; the recovery paths do.

// Array returns the shared RAID-5 array behind the cluster's storage:
// the NFS export device, or the array whose LUNs the iSCSI clients
// partition. Disk-failure faults go straight to it (FailDisk,
// StartRebuild, RebuildStep).
func (cl *Cluster) Array() *simdisk.RAID5 { return cl.vols[0].RAID() }

// CrashServer models a server power failure: the NFS export filesystem
// loses all volatile state (dirty buffers, the running transaction) and
// stops serving with its journal left dirty on disk, or — for iSCSI —
// every client's target drops dead, invalidating logins and resetting
// MC/S connections. Client stacks stay up and observe errors until
// RestartServer plus per-client RecoverClient.
func (cl *Cluster) CrashServer() {
	if cl.srv != nil {
		cl.srv.fs.Crash()
		return
	}
	for _, c := range cl.Clients {
		st := c.stack.(*iscsiStack)
		st.target.Crash()
		st.endpoint.Abort()
	}
}

// RestartServer reboots the crashed server at now. The NFS export
// remounts — replaying its journal, which is where the recovery time
// goes — and the iSCSI targets come back up with all session state gone.
// It returns when the server side is ready to serve; clients still need
// RecoverClient to re-establish their own state.
func (cl *Cluster) RestartServer(now time.Duration) (time.Duration, error) {
	if cl.srv != nil {
		done, err := cl.srv.mount(now)
		if err != nil {
			return done, err
		}
		if cl.locks != nil {
			// The lock table was volatile server memory: drop it and open
			// the NLM/NSM grace window, during which only reclaims of
			// pre-crash locks are admitted (RecoverClient issues them).
			cl.locks.Reset()
			cl.locks.EnterGrace(done)
		}
		if cl.deleg != nil {
			// Delegation leases died with the server; clients reacquire
			// them on their next access, paying the usual one message.
			cl.deleg.Reset()
		}
		return done, nil
	}
	for _, c := range cl.Clients {
		c.stack.(*iscsiStack).target.Restart()
	}
	return now, nil
}

// CrashClient models client i losing power: volatile state — the page
// cache, the protocol client, TCP connections — vanishes. An iSCSI
// client's ext3 crashes outright (journal left dirty on the LUN, to be
// replayed at the reboot remount); an NFS client loses its caches and
// its connection while the server keeps serving everyone else.
func (cl *Cluster) CrashClient(i int) { cl.Clients[i].stack.crash() }

// RecoverClient repairs client i's stack at now after a fault and
// returns the completion time plus whether any repair was performed.
// With force=false only actual damage is repaired: an NFS client whose
// TCP connection died rebuilds its RPC machinery and remounts; an iSCSI
// client remounts when its filesystem crashed, its session's connections
// all died, or its target forgot the login (a target crash) — the
// remount crashes a still-mounted client ext3 first, modeling the
// journal abort forced by failed writes, so the mount replays the
// journal. force=true remounts unconditionally (reboot semantics, and
// the NFS answer to a restarted server's cold export). The caller owns
// the clock and should advance it to the returned time.
func (cl *Cluster) RecoverClient(i int, now time.Duration, force bool) (time.Duration, bool, error) {
	c := cl.Clients[i]
	if !force && !c.stack.damaged() {
		return now, false, nil
	}
	if st, ok := c.stack.(*iscsiStack); ok && st.fs.Mounted() {
		// Failed writes aborted the journal; only a crash-remount
		// (replaying the committed records) brings the fs back.
		st.fs.Crash()
	}
	done, err := c.stack.Mount(now)
	if err != nil {
		return now, true, fmt.Errorf("testbed: recover client %d: %w", i, err)
	}
	c.syncFS()
	if st, ok := c.stack.(*nfsStack); ok && st.sharing && st.client.HeldLockCount() > 0 {
		// Re-assert locks held before the fault through the server's
		// grace window (each reclaim is one LOCK RPC).
		done, err = st.client.ReclaimLocks(done)
		if err != nil {
			return done, true, fmt.Errorf("testbed: reclaim client %d: %w", i, err)
		}
	}
	return done, true, nil
}

// PartitionNet schedules a partition of every client's path to the
// server for the virtual-time window [from, until): frames die on each
// client wire, and the shared bottleneck (if any) black-holes droppable
// traffic at its queue. Because the window is declared on the timeline
// rather than toggled mid-run, retransmission ladders spanning it
// recover at exactly `until` (see simnet.Network.SetOutage). Healing is
// implicit at `until`; a subsequent call re-arms the next flap.
func (cl *Cluster) PartitionNet(from, until time.Duration) {
	for _, n := range cl.nets {
		n.SetOutage(from, until)
	}
	if cl.Link != nil {
		cl.Link.SetOutage(from, until)
	}
}
