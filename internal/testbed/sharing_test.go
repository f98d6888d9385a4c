package testbed

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/metrics"
)

// TestLockGracePeriod walks the NLM/NSM crash-recovery protocol end to
// end: a held lock dies with the server, the restart opens a reclaim-only
// grace window in which fresh requests are denied (grace_denials), the
// victim's recovery remounts and re-claims its lock (grace_reclaims),
// and after the window closes the lock table behaves normally again.
func TestLockGracePeriod(t *testing.T) {
	const grace = 500 * time.Millisecond
	cl, err := NewCluster(ClusterConfig{
		Config: Config{
			Kind: NFSv3,
		},
		Clients: 2,
		Sharing: &SharingConfig{GracePeriod: grace},
	})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := cl.Clients[0], cl.Clients[1]
	if err := c0.OpenShared(true); err != nil {
		t.Fatal(err)
	}
	if err := c1.OpenShared(false); err != nil {
		t.Fatal(err)
	}
	got, err := c0.TryLockShared(0, 4096, true)
	if err != nil || !got {
		t.Fatalf("initial lock: got=%v err=%v", got, err)
	}

	// Server power failure: the lock table is volatile memory.
	cl.CrashServer()
	now := cl.Align()
	ready, err := cl.RestartServer(now)
	if err != nil {
		t.Fatal(err)
	}
	if !cl.locks.InGrace(ready) {
		t.Fatal("restart did not open the grace window")
	}
	if got := len(cl.locks.Held()); got != 0 {
		t.Fatalf("lock table survived the crash: %d held", got)
	}
	c0.Clock.AdvanceTo(ready)
	c1.Clock.AdvanceTo(ready)

	// A fresh request during grace is denied even though nothing
	// conflicts — the window is reclaim-only.
	got, err = c1.TryLockShared(4096, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("fresh lock granted during grace period")
	}
	if c := cl.locks.Counters(); c["grace_denials"] == 0 {
		t.Fatalf("no grace denials counted: %v", c)
	}

	// The victim recovers: remount carries its held-lock list over and
	// re-claims through the grace window.
	done, repaired, err := cl.RecoverClient(0, c0.Clock.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired {
		t.Fatal("forced recovery did nothing")
	}
	c0.Clock.AdvanceTo(done)
	held := cl.locks.Held()
	if len(held) != 1 || held[0].Client != 0 {
		t.Fatalf("reclaim did not restore the lock: %v", held)
	}
	if c := cl.locks.Counters(); c["grace_reclaims"] == 0 {
		t.Fatalf("no grace reclaims counted: %v", c)
	}

	// Past the window, normal service resumes: the reclaimed lock still
	// excludes an overlapping request, and a disjoint one is granted.
	c1.Idle(grace + time.Millisecond)
	got, err = c1.TryLockShared(0, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("overlapping lock granted despite reclaimed holder")
	}
	got, err = c1.TryLockShared(8192, 4096, true)
	if err != nil || !got {
		t.Fatalf("disjoint lock after grace: got=%v err=%v", got, err)
	}
	if err := c0.UnlockShared(0, 4096, true); err != nil {
		t.Fatal(err)
	}
	got, err = c1.TryLockShared(0, 4096, true)
	if err != nil || !got {
		t.Fatalf("lock after holder released: got=%v err=%v", got, err)
	}

	// The cell's admission counts fold the grace-window denials into the
	// denied polls.
	c := cl.locks.Counters()
	if g, d := cl.ShareCounters(); g != c["grants"] || d != c["denials"]+c["grace_denials"] || c["denials"] == 0 {
		t.Errorf("ShareCounters = %d grants, %d denials; lock table %v", g, d, c)
	}
}

// TestSharedFileVisibility checks that a locked write by one NFS client
// is readable by another through the shared file. The reader opens
// after the writer's close — NFS promises close-to-open consistency,
// not live cache coherence, and the open's revalidation is what makes
// the fresh bytes visible.
func TestSharedFileVisibility(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		Config: Config{
			Kind: NFSv3,
		},
		Clients: 2,
		Sharing: &SharingConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := cl.Clients[0], cl.Clients[1]
	if err := c0.OpenShared(true); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	for i := range data {
		data[i] = 0xAB
	}
	if got, err := c0.TryLockShared(0, 0, true); err != nil || !got {
		t.Fatalf("lock: got=%v err=%v", got, err)
	}
	if err := c0.SharedWriteAt(0, data); err != nil {
		t.Fatal(err)
	}
	if err := c0.UnlockShared(0, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := c0.Drain(); err != nil {
		t.Fatal(err)
	}
	cl.Align()
	if err := c1.OpenShared(false); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := c1.SharedReadAt(0, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0xAB {
			t.Fatalf("byte %d = %#x, want 0xab", i, b)
		}
	}
}

// TestSharedLUNReservations checks the iSCSI side: the shared LUN is
// visible to both clients, a write-exclusive reservation blocks foreign
// writes (errBusy) while allowing foreign reads, release restores access,
// and ShareCounters reads reservations and conflicts off the table (and
// zero off a cluster without one).
func TestSharedLUNReservations(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		Config: Config{
			Kind: ISCSI,
		},
		Clients: 2,
		Sharing: &SharingConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := cl.Clients[0], cl.Clients[1]
	data := make([]byte, 4096)
	for i := range data {
		data[i] = 0x5C
	}
	if got, err := c0.TryLockShared(0, 0, true); err != nil || !got {
		t.Fatalf("reserve: got=%v err=%v", got, err)
	}
	if err := c0.SharedWriteAt(0, data); err != nil {
		t.Fatal(err)
	}
	// Foreign write bounces off the reservation; foreign read passes
	// (write-exclusive, not exclusive-access).
	if err := c1.SharedWriteAt(4096, data); err != errBusy {
		t.Fatalf("foreign write err=%v, want errBusy", err)
	}
	buf := make([]byte, 4096)
	if err := c1.SharedReadAt(0, buf); err != nil {
		t.Fatalf("foreign read under write-exclusive: %v", err)
	}
	for i, b := range buf {
		if b != 0x5C {
			t.Fatalf("byte %d = %#x, want 0x5c", i, b)
		}
	}
	// A second reservation attempt conflicts until the holder releases.
	if got, err := c1.TryLockShared(0, 0, true); err != nil || got {
		t.Fatalf("foreign reserve: got=%v err=%v, want denial", got, err)
	}
	if err := c0.UnlockShared(0, 0, true); err != nil {
		t.Fatal(err)
	}
	if got, err := c1.TryLockShared(0, 0, true); err != nil || !got {
		t.Fatalf("reserve after release: got=%v err=%v", got, err)
	}
	if err := c1.SharedWriteAt(4096, data); err != nil {
		t.Fatalf("write after takeover: %v", err)
	}

	// Two reservations were taken; the foreign write and the foreign
	// reserve each conflicted.
	if g, d := cl.ShareCounters(); g != 2 || d != 2 {
		t.Errorf("ShareCounters = %d reserves, %d conflicts; want 2, 2", g, d)
	}
	plain, err := NewCluster(ClusterConfig{Config: Config{Kind: ISCSI}, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g, d := plain.ShareCounters(); g != 0 || d != 0 {
		t.Errorf("a cluster without Sharing counts %d grants, %d denials", g, d)
	}
}

// TestSharingTelemetry reads the sharing stations back from the stream of
// a delegating NFSv4 cluster with a monitor: a byte-range lock held across
// scrapes shows in the lock station's gauges, and the delegation counters
// (subsys=lease) add up to the lease table's own recall count.
func TestSharingTelemetry(t *testing.T) {
	var buf bytes.Buffer
	mon, err := health.New(health.Config{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{
		Config: Config{
			Kind:    NFSv4,
			Metrics: metrics.NewRecorder(metrics.NewSink(&buf), nil),
		},
		Clients: 2,
		Sharing: &SharingConfig{Delegation: true},
		Health:  mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := cl.Clients[0], cl.Clients[1]
	if err := c0.WriteFile("/f", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	// Both clients take read delegations on /f; client 1's update
	// recalls client 0's, and client 0's next read recalls client 1's
	// write delegation.
	for _, op := range []func() error{
		func() error { _, err := c0.Stat("/f"); return err },
		func() error { _, err := c1.Stat("/f"); return err },
		func() error { return c1.Utimes("/f") },
		func() error { _, err := c0.Stat("/f"); return err },
	} {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.Delegations().Recalls(); got != 2 {
		t.Fatalf("%d recalls, want 2", got)
	}

	if err := c0.OpenShared(true); err != nil {
		t.Fatal(err)
	}
	if got, err := c0.TryLockShared(0, 4096, true); err != nil || !got {
		t.Fatalf("lock: got=%v err=%v", got, err)
	}
	drivers := make([]func() (bool, error), len(cl.Clients))
	for i, c := range cl.Clients {
		c, steps := c, 0
		drivers[i] = func() (bool, error) {
			c.Idle(10 * time.Millisecond)
			steps++
			return steps < 4, nil
		}
	}
	if err := cl.Run(drivers); err != nil {
		t.Fatal(err)
	}
	cl.EmitSample()

	events, err := metrics.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var lockScrapes, held, recalls int64
	for _, e := range events {
		switch {
		case e.Subsys == metrics.SubsysGauge && e.Tags["station"] == "lock":
			lockScrapes++
			if e.Values["held"] == 1 && e.Values["waiters"] == 0 {
				held++
			}
		case e.Subsys == metrics.SubsysLease:
			recalls += e.Counters["recalls"]
		}
	}
	if lockScrapes == 0 || held != lockScrapes {
		t.Errorf("%d lock station scrapes, %d of them with the one held lock; want some, all", lockScrapes, held)
	}
	if recalls != cl.Delegations().Recalls() {
		t.Errorf("lease counters sum to %d recalls, the table counted %d", recalls, cl.Delegations().Recalls())
	}
}
