// Package health is the virtual-time health-evaluation layer: the live
// counterpart of the batch telemetry pipeline. A Monitor runs as its own
// process on the cluster scheduler (like the fault process) and, every
// scrape interval, samples instantaneous per-station state in the USE
// idiom — utilization, saturation, errors — from Gauges() hooks on each
// layer, emitting them as kind=point subsys=gauge events on the shared
// metrics.Recorder. On the same grid it evaluates declarative service
// level objectives (availability, op-latency, station saturation) with
// multi-window burn-rate alerting and fire/resolve hysteresis, emitting
// subsys=alert transition events. When a fault plan supplies ground
// truth, the alert timeline scores into time-to-detect / time-to-resolve
// / false-positive counts (see score.go and internal/core's health
// experiment).
//
// Everything is deterministic: gauges are pure functions of simulator
// state, the scraper advances on the shared virtual-time scheduler, and
// identical seeds yield byte-identical gauge streams and alert timelines
// (test-enforced). A nil *Monitor is the disabled state: every method is
// a nil-safe no-op that allocates nothing, like the nil tracer, so
// un-instrumented runs stay byte-identical. See docs/HEALTH.md.
package health

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// defaultInterval is the gauge scrape period: fine enough to catch
// sub-second outages (the fast burn window spans five scrapes), coarse
// enough that scraping stays a rounding error next to op traffic.
const defaultInterval = 100 * time.Millisecond

// Source is one station's gauge provider: a named resource plus a
// function reporting its instantaneous state at a virtual time. The
// station name becomes the gauge events' "station" tag (the vocabulary
// is in docs/HEALTH.md) and the key a saturation objective addresses.
type Source struct {
	// Station names the resource: "cpu.server", "disk", "net.shared",
	// "rpc", ...
	Station string
	// Tags are extra identifying tags merged into the gauge events
	// (typically the owning client id).
	Tags metrics.Tags
	// Fn reports the station's gauges at time now. Returning an empty
	// (or nil) map skips the station for that scrape — the idiom for a
	// station that is currently torn down (a TCP connection between
	// remounts).
	Fn func(now time.Duration) map[string]float64
}

// Config parameterizes a Monitor: the scrape interval and the objective
// set it evaluates. The zero value means defaultInterval and
// defaultObjectives.
type Config struct {
	// Interval is the scrape period (default defaultInterval).
	Interval time.Duration
	// Objectives is the SLO set (default defaultObjectives). Each is
	// validated and defaulted by New.
	Objectives []Objective
}

// opObs is one completed client operation fed to ObserveOp, pending
// consumption by the scrape at or after its completion time.
type opObs struct {
	done    time.Duration
	latency time.Duration
	ok      bool
}

// Monitor is the health evaluator: a set of gauge sources, an SLO state
// machine per objective, and a virtual-time scrape loop. Construct with
// New, attach gauge sources with Register, give it an event sink with
// Bind, feed per-op outcomes through ObserveOp, and either drive Scrape
// directly or hand the monitor a scheduler via Spawn. A nil *Monitor is
// inert: every method no-ops without allocating.
type Monitor struct {
	interval time.Duration
	rec      *metrics.Recorder
	clock    *sim.Clock

	sources []Source
	srcTags []metrics.Tags // merged {station} + Source.Tags, per source
	slos    []*sloState

	ops      []opObs
	consumed []opObs // scratch: ops completing at or before the scrape
	sat      map[string]float64
	sawOp    bool
	lastDone time.Duration

	started     bool
	lastScrape  time.Duration
	scrapes     int64
	gaugeEvents int64
	trans       []Transition
}

// New validates cfg, fills its defaults, and returns a ready monitor
// (unbound: gauge and alert events go nowhere until Bind).
func New(cfg Config) (*Monitor, error) {
	if cfg.Interval == 0 {
		cfg.Interval = defaultInterval
	}
	if cfg.Interval < 0 {
		return nil, fmt.Errorf("health: negative scrape interval %v", cfg.Interval)
	}
	objectives := cfg.Objectives
	if len(objectives) == 0 {
		objectives = defaultObjectives()
	}
	m := &Monitor{
		interval: cfg.Interval,
		clock:    sim.NewClock(),
		sat:      make(map[string]float64),
	}
	seen := make(map[string]bool, len(objectives))
	for _, o := range objectives {
		filled, err := o.fill()
		if err != nil {
			return nil, err
		}
		if seen[filled.Name] {
			return nil, fmt.Errorf("health: duplicate objective %q", filled.Name)
		}
		seen[filled.Name] = true
		m.slos = append(m.slos, &sloState{o: filled})
	}
	return m, nil
}

// Bind attaches the recorder that receives gauge and alert events
// (typically the owning cluster's, so events inherit its tag set). A nil
// recorder keeps the monitor evaluating — scoring works without a
// metrics stream.
func (m *Monitor) Bind(rec *metrics.Recorder) {
	if m == nil {
		return
	}
	m.rec = rec
}

// Register adds a gauge source. Sources are scraped in registration
// order, so register deterministically (the testbed registers gauge and
// counter sources in one walk of one station list). Sources with no Fn or
// an empty station are dropped.
func (m *Monitor) Register(src Source) {
	if m == nil || src.Fn == nil || src.Station == "" {
		return
	}
	tags := metrics.Tags{"station": src.Station}
	for k, v := range src.Tags {
		tags[k] = v
	}
	m.sources = append(m.sources, src)
	m.srcTags = append(m.srcTags, tags)
}

// ObserveOp feeds one completed client operation: its completion time on
// the cluster timeline, its latency, and whether it succeeded. Ops are
// consumed by the first scrape at or after their completion, so drivers
// may report them the moment they finish regardless of clock skew
// between clients and the scraper.
func (m *Monitor) ObserveOp(done, latency time.Duration, ok bool) {
	if m == nil {
		return
	}
	m.ops = append(m.ops, opObs{done: done, latency: latency, ok: ok})
}

// Scrapes reports how many scrapes have run.
func (m *Monitor) Scrapes() int64 {
	if m == nil {
		return 0
	}
	return m.scrapes
}

// GaugeEvents reports how many gauge points have been emitted.
func (m *Monitor) GaugeEvents() int64 {
	if m == nil {
		return 0
	}
	return m.gaugeEvents
}

// Transitions returns the alert timeline so far (fires and resolves in
// scrape order). The slice is a copy; mutate freely.
func (m *Monitor) Transitions() []Transition {
	if m == nil {
		return nil
	}
	return append([]Transition(nil), m.trans...)
}

// Spawn registers the scrape loop as a process on s, starting no earlier
// than from. The loop scrapes at its clock, advances by the interval,
// and retires once it is the only live process left — an idle cluster
// generates no further state worth sampling, and an immortal monitor
// would wedge the scheduler. Spawn it before the worker drivers so that
// on clock ties the scrape observes the instant before tied work starts.
func (m *Monitor) Spawn(s *sim.Scheduler, from time.Duration) {
	if m == nil {
		return
	}
	m.clock.AdvanceTo(from)
	s.Spawn(m.clock, func() (bool, error) {
		if s.Live() <= 1 {
			return false, nil
		}
		m.Scrape(m.clock.Now())
		m.clock.Advance(m.interval)
		return true, nil
	})
}

// Scrape samples every source at time now, emits the gauge points,
// consumes the ops completed by now, and advances every objective's
// burn-rate state machine (emitting alert transitions). Out-of-order or
// duplicate times are ignored — the scrape grid is monotone.
func (m *Monitor) Scrape(now time.Duration) {
	if m == nil {
		return
	}
	if m.started && now <= m.lastScrape {
		return
	}
	for k := range m.sat {
		delete(m.sat, k)
	}
	for i, src := range m.sources {
		g := src.Fn(now)
		if len(g) == 0 {
			continue
		}
		m.rec.Point(now, metrics.SubsysGauge, m.srcTags[i], g)
		m.gaugeEvents++
		for k, v := range g {
			key := src.Station + "/" + k
			if cur, ok := m.sat[key]; !ok || v > cur {
				m.sat[key] = v
			}
		}
	}
	consumed := m.consumed[:0]
	keep := m.ops[:0]
	for _, op := range m.ops {
		if op.done <= now {
			consumed = append(consumed, op)
		} else {
			keep = append(keep, op)
		}
	}
	m.ops = keep
	m.consumed = consumed
	for _, op := range consumed {
		if op.done > m.lastDone {
			m.lastDone = op.done
		}
	}
	if len(consumed) > 0 {
		m.sawOp = true
	}
	for _, s := range m.slos {
		bad := s.badFraction(now, consumed, m.sat, m.sawOp, m.lastDone)
		s.push(now, bad)
		burnFast := s.burn(now, s.o.FastWindow)
		burnSlow := s.burn(now, s.o.SlowWindow)
		switch {
		case !s.firing && burnFast >= s.o.FastBurn && burnSlow >= s.o.SlowBurn:
			s.firing = true
			m.transition(now, s.o.Name, true, burnFast, burnSlow)
		case s.firing && burnFast <= s.o.FastBurn*resolveFactor && burnSlow <= s.o.SlowBurn*resolveFactor:
			s.firing = false
			m.transition(now, s.o.Name, false, burnFast, burnSlow)
		}
	}
	m.lastScrape = now
	m.started = true
	m.scrapes++
}

// transition records one alert state change and emits it as a
// subsys=alert point carrying both burn rates.
func (m *Monitor) transition(now time.Duration, slo string, fire bool, burnFast, burnSlow float64) {
	state := "resolve"
	if fire {
		state = "fire"
	}
	m.trans = append(m.trans, Transition{
		SLO: slo, At: now, Fire: fire, BurnFast: burnFast, BurnSlow: burnSlow,
	})
	m.rec.Point(now, metrics.SubsysAlert,
		metrics.Tags{"slo": slo, "state": state},
		map[string]float64{"burn_fast": burnFast, "burn_slow": burnSlow})
}

// UtilFromBusy converts a cumulative busy-time reading into a windowed
// utilization gauge: each call reports the busy fraction of the virtual
// time elapsed since the previous call, clamped to [0, 1]. The closure
// holds the previous reading, so wire it to a resource that lives as
// long as the monitor (the cluster-owned CPUs and array survive client
// remounts and server restarts, which is what keeps the utilization
// series continuous across ColdCache and crash recovery).
func UtilFromBusy(busy func() time.Duration) func(now time.Duration) float64 {
	var lastT, lastBusy time.Duration
	return func(now time.Duration) float64 {
		b := busy()
		dt, db := now-lastT, b-lastBusy
		lastT, lastBusy = now, b
		if dt <= 0 {
			return 0
		}
		u := float64(db) / float64(dt)
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		return u
	}
}
