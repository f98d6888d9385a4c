package workload

import (
	"time"

	"repro/internal/testbed"
)

// Contention workloads: N clients fighting over one shared object
// (one shared file on NFS, the shared LUN on iSCSI). Where the other
// workloads in this package measure each stack's happy path, these
// measure the sharing machinery itself — lock round trips, FIFO
// fairness under ping-pong, and the protocol asymmetry between NFS
// byte-range locks and iSCSI whole-LUN reservations. Every driver is a
// resumable Steps machine issuing one syscall per step, so the cluster
// scheduler interleaves clients in virtual-time order and identical
// seeds give byte-identical timelines.

// ContendConfig parameterizes the contention drivers.
type ContendConfig struct {
	// Iters is how many lock-protected operations each client performs.
	Iters int
	// RecordSize is the shared-I/O unit in bytes (default 4096 — one
	// block, so raw-LUN extents stay aligned on iSCSI).
	RecordSize int
	// PollInterval is the backoff a client idles after a denied lock
	// poll before polling again (each poll is real lock traffic).
	PollInterval time.Duration
}

func (c *ContendConfig) fill() {
	if c.Iters <= 0 {
		c.Iters = 50
	}
	if c.RecordSize <= 0 {
		c.RecordSize = 4096
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 2 * time.Millisecond
	}
}

// ContendStats accumulates per-client contention measurements while the
// drivers run (index-aligned with the cluster's clients).
type ContendStats struct {
	// Waits is the virtual time each client spent backed off between
	// denied lock polls.
	Waits []time.Duration
	// Denials counts each client's denied lock polls.
	Denials []int64
}

func newContendStats(n int) *ContendStats {
	return &ContendStats{Waits: make([]time.Duration, n), Denials: make([]int64, n)}
}

// SetupShared opens the shared object on every client — client 0
// creating it — and seeds the first record, so readers never race the
// empty file. Call it before building drivers; it runs sequentially
// outside the scheduler.
func SetupShared(clients []*testbed.Client, cfg ContendConfig) error {
	cfg.fill()
	for i, c := range clients {
		if err := c.OpenShared(i == 0); err != nil {
			return err
		}
	}
	return clients[0].SharedWriteAt(0, make([]byte, cfg.RecordSize))
}

// LockPingPong has every client hammer an exclusive lock on the same
// record: lock, overwrite record 0, unlock, repeat. The FIFO waiter
// queue alternates the grant among clients; the denied polls in between
// are the workload's cost.
func LockPingPong(clients []*testbed.Client, cfg ContendConfig) ([]Steps, *ContendStats) {
	cfg.fill()
	st := newContendStats(len(clients))
	steps := make([]Steps, len(clients))
	for i, c := range clients {
		steps[i] = lockedIO(c, cfg, st, i, true, func(int) int64 { return 0 }, true)
	}
	return steps, st
}

// SharedAppend has every client append records to the shared object
// under an exclusive whole-object lock. Slot offsets are deterministic —
// iteration k of client i writes record k*N+i — so the final image is
// seed-independent and the contention cost is purely the locking.
func SharedAppend(clients []*testbed.Client, cfg ContendConfig) ([]Steps, *ContendStats) {
	cfg.fill()
	st := newContendStats(len(clients))
	steps := make([]Steps, len(clients))
	n := len(clients)
	for i, c := range clients {
		id := i
		off := func(iter int) int64 {
			return int64(iter*n+id) * int64(cfg.RecordSize)
		}
		steps[i] = lockedIO(c, cfg, st, i, true, off, true)
	}
	return steps, st
}

// ReaderWriter has client 0 rewrite record 0 under an exclusive lock
// while every other client reads it under a shared lock. On NFS the
// readers' shared locks still cost a LOCK RPC each and exclude the
// writer; on iSCSI a shared lock is a free no-op and the writer's
// write-exclusive reservation lets readers through — the protocols'
// sharing asymmetry, measured.
func ReaderWriter(clients []*testbed.Client, cfg ContendConfig) ([]Steps, *ContendStats) {
	cfg.fill()
	st := newContendStats(len(clients))
	steps := make([]Steps, len(clients))
	at0 := func(int) int64 { return 0 }
	for i, c := range clients {
		steps[i] = lockedIO(c, cfg, st, i, i == 0, at0, i == 0)
	}
	return steps, st
}

// lockedIO builds one client's driver: Iters times, acquire the
// whole-object lock (polling with backoff on denial), perform one
// record I/O, release. Each acquisition attempt, I/O and release is its
// own step, so the scheduler interleaves clients at syscall granularity.
func lockedIO(c *testbed.Client, cfg ContendConfig, st *ContendStats, id int, excl bool, off func(iter int) int64, write bool) Steps {
	iter, phase := 0, 0
	buf := make([]byte, cfg.RecordSize)
	if write {
		for i := range buf {
			buf[i] = byte(id + 1)
		}
	}
	return func() (bool, error) {
		if iter >= cfg.Iters {
			return false, nil
		}
		switch phase {
		case 0: // acquire (or back off and re-poll)
			got, err := c.TryLockShared(0, 0, excl)
			if err != nil {
				return false, err
			}
			if !got {
				st.Denials[id]++
				st.Waits[id] += cfg.PollInterval
				c.Idle(cfg.PollInterval)
				return true, nil
			}
			phase = 1
		case 1: // one record I/O under the lock
			var err error
			if write {
				err = c.SharedWriteAt(off(iter), buf)
			} else {
				err = c.SharedReadAt(off(iter), buf)
			}
			if err != nil {
				return false, err
			}
			phase = 2
		default: // release
			if err := c.UnlockShared(0, 0, excl); err != nil {
				return false, err
			}
			phase = 0
			iter++
		}
		return iter < cfg.Iters, nil
	}
}
