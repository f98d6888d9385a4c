// Package lockmgr implements the server-side state for cross-client
// sharing: an NLM-style byte-range lock manager with a post-restart
// grace period (this file), and NFSv4-style per-directory
// read/write delegations with recall-on-conflict (deleg.go).
//
// Everything here is deterministic simulation state, not a concurrent
// lock service: the cooperative scheduler serializes all calls, so the
// manager is plain data guarded by program order. Blocking lock waits
// are modeled the way NLM clients actually behave over UDP — the client
// polls, each denied poll being one real LOCK RPC — so the manager only
// ever answers "granted or not, right now". Fairness across polls is
// preserved with an explicit FIFO waiter queue: a request that would
// jump an earlier-queued conflicting waiter is denied even when it no
// longer conflicts with a held lock, which is what keeps ping-pong
// workloads from starving a slow client.
package lockmgr

import "time"

// Config parameterizes a Manager.
type Config struct {
	// GracePeriod is the reclaim-only window entered on server restart:
	// NLM/NSM recovery, where clients re-claim locks they held before
	// the crash and fresh requests are denied until the window closes.
	GracePeriod time.Duration
}

// Lock is one held byte-range lock. Len <= 0 means "to EOF" (whole
// remainder of the file), matching NLM's l_len = 0 convention.
type Lock struct {
	Client int
	Ino    uint64
	Off    int64
	Len    int64
	Excl   bool
}

// overlaps reports whether two ranges on the same file intersect.
func (l Lock) overlaps(m Lock) bool {
	if l.Ino != m.Ino {
		return false
	}
	if l.Len > 0 && l.Off+l.Len <= m.Off {
		return false
	}
	if m.Len > 0 && m.Off+m.Len <= l.Off {
		return false
	}
	return true
}

// conflicts reports whether two locks cannot coexist: overlapping
// ranges, different clients, and at least one side exclusive.
func (l Lock) conflicts(m Lock) bool {
	return l.Client != m.Client && (l.Excl || m.Excl) && l.overlaps(m)
}

// Manager is the server's lock table. The zero value is not usable;
// call NewManager.
type Manager struct {
	cfg Config

	held    []Lock // grant order
	waiters []Lock // FIFO arrival order of blocked requests

	inGrace  bool
	graceEnd time.Duration

	grants        int64
	denials       int64
	unlocks       int64
	graceDenials  int64
	graceReclaims int64
}

// NewManager builds an empty lock table.
func NewManager(cfg Config) *Manager {
	return &Manager{cfg: cfg}
}

// TryLock attempts to acquire a byte-range lock for client at virtual
// time now. It answers immediately — granted or denied — because the
// wire protocol it models (NLM over the repo's SunRPC) has the client
// poll blocked locks. A denied request joins the FIFO waiter queue and
// later polls for the same range keep its place.
func (m *Manager) TryLock(now time.Duration, client int, ino uint64, off, length int64, excl bool) bool {
	if m.graceActive(now) {
		m.graceDenials++
		return false
	}
	req := Lock{Client: client, Ino: ino, Off: off, Len: length, Excl: excl}
	return m.admit(req)
}

// Reclaim re-asserts a lock the client held before a server restart.
// It is the only acquisition path open during the grace period.
func (m *Manager) Reclaim(now time.Duration, client int, ino uint64, off, length int64, excl bool) bool {
	req := Lock{Client: client, Ino: ino, Off: off, Len: length, Excl: excl}
	for _, h := range m.held {
		if h == req {
			return true
		}
		if h.conflicts(req) {
			// Another client's reclaim got here first: overlapping
			// pre-crash state, which the grace window cannot repair.
			m.denials++
			return false
		}
	}
	m.held = append(m.held, req)
	m.grants++
	if m.graceActive(now) {
		m.graceReclaims++
	}
	return true
}

// admit applies the grant rules to req: deny on conflict with a held
// lock, deny when an earlier-queued waiter conflicts (FIFO fairness),
// grant otherwise. Denied requests are left queued; a granted request's
// queue entry is removed.
func (m *Manager) admit(req Lock) bool {
	for _, h := range m.held {
		if h == req {
			return true // idempotent re-grant of an identical lock
		}
		if h.conflicts(req) {
			m.enqueue(req)
			m.denials++
			return false
		}
	}
	// No held conflict. Honor the queue: anyone who was waiting before
	// this request arrived (or before its own queue slot) goes first.
	pos := m.waiterIndex(req)
	limit := len(m.waiters)
	if pos >= 0 {
		limit = pos
	}
	for _, w := range m.waiters[:limit] {
		if w.conflicts(req) {
			m.enqueue(req)
			m.denials++
			return false
		}
	}
	if pos >= 0 {
		m.waiters = append(m.waiters[:pos], m.waiters[pos+1:]...)
	}
	m.held = append(m.held, req)
	m.grants++
	return true
}

// Unlock releases the client's lock exactly matching the range. There
// are no wakeups to deliver — blocked clients poll — so release is just
// table surgery; the FIFO queue guarantees the oldest waiter wins the
// next round of polls.
func (m *Manager) Unlock(client int, ino uint64, off, length int64) bool {
	for i, h := range m.held {
		if h.Client == client && h.Ino == ino && h.Off == off && h.Len == length {
			m.held = append(m.held[:i], m.held[i+1:]...)
			m.unlocks++
			return true
		}
	}
	return false
}

// EnterGrace starts the reclaim-only window (server restart).
func (m *Manager) EnterGrace(now time.Duration) {
	if m.cfg.GracePeriod <= 0 {
		return
	}
	m.inGrace = true
	m.graceEnd = now + m.cfg.GracePeriod
}

// InGrace reports whether the grace period is still open at now.
func (m *Manager) InGrace(now time.Duration) bool { return m.graceActive(now) }

func (m *Manager) graceActive(now time.Duration) bool {
	if m.inGrace && now >= m.graceEnd {
		m.inGrace = false
	}
	return m.inGrace
}

// Reset drops all volatile lock state — the server restarted and its
// lock table died with it. Counters survive: they are cumulative
// telemetry, and the metrics recorder expects monotone sources.
func (m *Manager) Reset() {
	m.held = nil
	m.waiters = nil
	m.inGrace = false
}

// Held returns a copy of the lock table in grant order (tests).
func (m *Manager) Held() []Lock { return append([]Lock(nil), m.held...) }

// enqueue appends req to the waiter queue unless already present.
func (m *Manager) enqueue(req Lock) {
	if m.waiterIndex(req) < 0 {
		m.waiters = append(m.waiters, req)
	}
}

func (m *Manager) waiterIndex(req Lock) int {
	for i, w := range m.waiters {
		if w == req {
			return i
		}
	}
	return -1
}

// Gauges exports the manager's instantaneous queue state for the health
// scraper (metrics.SubsysGauge): held locks and blocked waiters at time
// now. It is read-only, so scraping never perturbs the lock timeline.
func (m *Manager) Gauges(now time.Duration) map[string]float64 {
	return map[string]float64{
		"held":    float64(len(m.held)),
		"waiters": float64(len(m.waiters)),
	}
}

// Counters exports cumulative lock-manager counters for the metrics
// event stream (metrics.SubsysLock).
func (m *Manager) Counters() map[string]int64 {
	return map[string]int64{
		"grants":         m.grants,
		"denials":        m.denials,
		"unlocks":        m.unlocks,
		"grace_denials":  m.graceDenials,
		"grace_reclaims": m.graceReclaims,
	}
}
