package lockmgr

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestMutualExclusion drives a seeded random workload of try-lock and
// unlock calls and checks the core safety property after every step: no
// two held locks by different clients conflict (overlapping ranges with
// at least one exclusive side).
func TestMutualExclusion(t *testing.T) {
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	rng := rand.New(rand.NewSource(1))
	m := NewManager(Config{})
	now := time.Duration(0)
	type key struct {
		client int
		ino    uint64
		off    int64
		len    int64
	}
	held := map[key]Lock{}
	for i := 0; i < iters; i++ {
		now += time.Millisecond
		client := rng.Intn(4)
		ino := uint64(rng.Intn(3))
		off := int64(rng.Intn(8)) * 16
		length := int64(rng.Intn(4)) * 16 // 0 = to EOF
		if rng.Intn(3) == 0 && len(held) > 0 {
			// Unlock a random held lock (deterministic pick: lowest key).
			var best *Lock
			for _, l := range held {
				l := l
				if best == nil || less(l, *best) {
					best = &l
				}
			}
			if !m.Unlock(best.Client, best.Ino, best.Off, best.Len) {
				t.Fatalf("unlock of held lock failed: %+v", best)
			}
			delete(held, key{best.Client, best.Ino, best.Off, best.Len})
			continue
		}
		excl := rng.Intn(2) == 0
		if m.TryLock(now, client, ino, off, length, excl) {
			held[key{client, ino, off, length}] = Lock{Client: client, Ino: ino, Off: off, Len: length, Excl: excl}
		}
		locks := m.Held()
		for a := 0; a < len(locks); a++ {
			for b := a + 1; b < len(locks); b++ {
				if locks[a].conflicts(locks[b]) {
					t.Fatalf("step %d: conflicting locks both held: %+v vs %+v", i, locks[a], locks[b])
				}
			}
		}
	}
}

func less(a, b Lock) bool {
	if a.Client != b.Client {
		return a.Client < b.Client
	}
	if a.Ino != b.Ino {
		return a.Ino < b.Ino
	}
	if a.Off != b.Off {
		return a.Off < b.Off
	}
	return a.Len < b.Len
}

// TestFIFOGrantOrder checks the fairness rule: after a release, the
// earliest-queued waiter wins even when a later waiter polls first.
func TestFIFOGrantOrder(t *testing.T) {
	m := NewManager(Config{})
	if !m.TryLock(0, 0, 1, 0, 0, true) {
		t.Fatal("initial lock denied")
	}
	if m.TryLock(1, 1, 1, 0, 0, true) {
		t.Fatal("conflicting lock granted")
	}
	if m.TryLock(2, 2, 1, 0, 0, true) {
		t.Fatal("conflicting lock granted")
	}
	if !m.Unlock(0, 1, 0, 0) {
		t.Fatal("unlock failed")
	}
	// Client 2 polls first but client 1 queued first.
	if m.TryLock(4, 2, 1, 0, 0, true) {
		t.Fatal("client 2 jumped the queue over client 1")
	}
	if !m.TryLock(5, 1, 1, 0, 0, true) {
		t.Fatal("oldest waiter denied after release")
	}
	// Client 1 holds; 2 still waits.
	if m.TryLock(6, 2, 1, 0, 0, true) {
		t.Fatal("lock granted while held by client 1")
	}
	if !m.Unlock(1, 1, 0, 0) {
		t.Fatal("unlock failed")
	}
	if !m.TryLock(8, 2, 1, 0, 0, true) {
		t.Fatal("last waiter denied after queue drained")
	}
}

// TestNoLostWakeups checks that a release is immediately visible: the
// sole queued waiter's very next poll succeeds, for every interleaving
// of a seeded random acquire/release schedule.
func TestNoLostWakeups(t *testing.T) {
	iters := 2000
	if testing.Short() {
		iters = 200
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < iters; i++ {
		m := NewManager(Config{})
		off := int64(rng.Intn(4)) * 8
		length := int64(rng.Intn(3)) * 8
		if !m.TryLock(0, 0, 9, off, length, true) {
			t.Fatal("initial lock denied")
		}
		if m.TryLock(1, 1, 9, off, length, true) {
			t.Fatal("conflicting lock granted")
		}
		m.Unlock(0, 9, off, length)
		if !m.TryLock(3, 1, 9, off, length, true) {
			t.Fatalf("iter %d: waiter's poll after release denied (lost wakeup)", i)
		}
	}
}

// TestSharedLocksCoexist checks that shared (read) locks on overlapping
// ranges are granted concurrently and still exclude a writer.
func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager(Config{})
	for c := 0; c < 3; c++ {
		if !m.TryLock(time.Duration(c), c, 1, 0, 0, false) {
			t.Fatalf("shared lock for client %d denied", c)
		}
	}
	if m.TryLock(3, 3, 1, 0, 0, true) {
		t.Fatal("exclusive lock granted over shared holders")
	}
	for c := 0; c < 3; c++ {
		m.Unlock(c, 1, 0, 0)
	}
	if !m.TryLock(8, 3, 1, 0, 0, true) {
		t.Fatal("exclusive lock denied after shared holders released")
	}
}

// TestDisjointRangesCoexist checks byte-range granularity: exclusive
// locks on disjoint ranges of one file coexist.
func TestDisjointRangesCoexist(t *testing.T) {
	m := NewManager(Config{})
	if !m.TryLock(0, 0, 1, 0, 100, true) {
		t.Fatal("lock [0,100) denied")
	}
	if !m.TryLock(1, 1, 1, 100, 100, true) {
		t.Fatal("disjoint lock [100,200) denied")
	}
	if m.TryLock(2, 2, 1, 50, 100, true) {
		t.Fatal("overlapping lock [50,150) granted")
	}
}

// TestGracePeriod checks NLM/NSM restart recovery: during grace only
// reclaims succeed, fresh requests are denied (grace_denials), and the
// window closes on schedule.
func TestGracePeriod(t *testing.T) {
	m := NewManager(Config{GracePeriod: 2 * time.Second})
	m.TryLock(0, 0, 1, 0, 0, true)
	m.Reset() // server restart: lock table dies
	m.EnterGrace(10 * time.Second)

	if m.TryLock(10500*time.Millisecond, 1, 1, 0, 0, true) {
		t.Fatal("fresh lock granted during grace")
	}
	if got := m.Counters()["grace_denials"]; got != 1 {
		t.Fatalf("grace_denials = %d, want 1", got)
	}
	if !m.Reclaim(11*time.Second, 0, 1, 0, 0, true) {
		t.Fatal("reclaim denied during grace")
	}
	if got := m.Counters()["grace_reclaims"]; got != 1 {
		t.Fatalf("grace_reclaims = %d, want 1", got)
	}
	// Reclaimed lock excludes the other client even after grace ends.
	if m.TryLock(13*time.Second, 1, 1, 0, 0, true) {
		t.Fatal("lock granted over reclaimed lock after grace")
	}
	m.Unlock(0, 1, 0, 0)
	if !m.TryLock(15*time.Second, 1, 1, 0, 0, true) {
		t.Fatal("normal grant denied after grace closed")
	}
}

// timeline runs a seeded random lock workload and renders every event
// (call, arguments, outcome, counters) into one string.
func timeline(seed int64, iters int) string {
	rng := rand.New(rand.NewSource(seed))
	m := NewManager(Config{})
	now := time.Duration(0)
	out := ""
	for i := 0; i < iters; i++ {
		now += time.Duration(rng.Intn(1000)) * time.Millisecond
		client := rng.Intn(5)
		ino := uint64(rng.Intn(2))
		off := int64(rng.Intn(6)) * 32
		length := int64(rng.Intn(3)) * 32
		switch rng.Intn(4) {
		case 0:
			ok := m.Unlock(client, ino, off, length)
			out += fmt.Sprintf("%d unlock c%d i%d [%d+%d] -> %v\n", now, client, ino, off, length, ok)
		default:
			excl := rng.Intn(2) == 0
			ok := m.TryLock(now, client, ino, off, length, excl)
			out += fmt.Sprintf("%d lock c%d i%d [%d+%d] excl=%v -> %v\n", now, client, ino, off, length, excl, ok)
		}
	}
	out += fmt.Sprintf("counters=%v held=%v\n", m.Counters(), m.Held())
	return out
}

// TestDeterministicTimeline checks that the same seed yields a
// byte-identical grant timeline — the property the cluster determinism
// suite leans on.
func TestDeterministicTimeline(t *testing.T) {
	iters := 5000
	if testing.Short() {
		iters = 500
	}
	a := timeline(42, iters)
	b := timeline(42, iters)
	if a != b {
		t.Fatal("same seed produced different grant timelines")
	}
	if c := timeline(43, iters); c == a {
		t.Fatal("different seeds produced identical timelines (suspicious)")
	}
}

// TestDelegationsMatchOracle feeds a synthesized Section-7 trace through
// the Delegations table record by record and checks the outcome equals
// trace.SimulateDelegation exactly — the table and the simulator are
// the same state machine, and this test is what licenses using the
// simulator as the full-stack oracle.
func TestDelegationsMatchOracle(t *testing.T) {
	for _, p := range []trace.Profile{trace.EECS(), trace.Campus()} {
		p.Duration = 30 * time.Second
		recs := trace.Synthesize(p)
		if testing.Short() && len(recs) > 5000 {
			recs = recs[:5000]
		}
		want := trace.SimulateDelegation(recs)

		d := NewDelegations()
		var local int64
		for _, r := range recs {
			dir := "/t" + strconv.Itoa(r.Dir)
			var isLocal bool
			if r.Kind == trace.OpWrite {
				isLocal = d.Write(r.Client, dir)
			} else {
				isLocal = d.Read(r.Client, dir)
			}
			if isLocal {
				local++
			}
		}
		total := int64(len(recs))
		gotReduction := float64(local) / float64(total)
		gotRatio := float64(d.Recalls()) / float64(total)
		if gotReduction != want.MessageReduction {
			t.Errorf("%s: message reduction %.9f, oracle %.9f", p.Name, gotReduction, want.MessageReduction)
		}
		if d.Recalls() != want.Recalls {
			t.Errorf("%s: recalls %d, oracle %d", p.Name, d.Recalls(), want.Recalls)
		}
		if gotRatio != want.RecallRatio {
			t.Errorf("%s: recall ratio %.9f, oracle %.9f", p.Name, gotRatio, want.RecallRatio)
		}
	}
}
