package health

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// avail returns a validated single-objective availability config.
func avail(t *testing.T) *Monitor {
	t.Helper()
	m, err := New(Config{Objectives: []Objective{{Name: "avail", Kind: kindAvailability}}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	bad := []struct {
		name string
		cfg  Config
	}{
		{"negative interval", Config{Interval: -time.Second}},
		{"no name", Config{Objectives: []Objective{{Kind: kindAvailability}}}},
		{"unknown kind", Config{Objectives: []Objective{{Name: "x", Kind: "weird"}}}},
		{"bad target", Config{Objectives: []Objective{{Name: "x", Kind: kindAvailability, Target: 1.5}}}},
		{"windows inverted", Config{Objectives: []Objective{{
			Name: "x", Kind: kindAvailability, FastWindow: time.Second, SlowWindow: time.Second}}}},
		{"latency without threshold", Config{Objectives: []Objective{{Name: "x", Kind: kindLatency}}}},
		{"saturation without station", Config{Objectives: []Objective{{Name: "x", Kind: kindSaturation}}}},
		{"duplicate names", Config{Objectives: []Objective{
			{Name: "x", Kind: kindAvailability}, {Name: "x", Kind: kindAvailability}}}},
	}
	for _, tc := range bad {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
	m, err := New(Config{})
	if err != nil {
		t.Fatalf("New(zero): %v", err)
	}
	if m.interval != defaultInterval {
		t.Fatalf("default interval = %v, want %v", m.interval, defaultInterval)
	}
}

func TestSpecParse(t *testing.T) {
	spec := `{
		"interval": "50ms",
		"slos": [
			{"name": "avail", "kind": "availability", "stall": "250ms"},
			{"name": "slow-ops", "kind": "latency", "latency": "20ms", "target": 0.99},
			{"name": "hot-disk", "kind": "saturation", "station": "disk", "value": "util",
			 "ceiling": 0.9, "fast_window": "200ms", "slow_window": "1s"}
		]
	}`
	cfg, err := parseSpec([]byte(spec))
	if err != nil {
		t.Fatalf("parseSpec: %v", err)
	}
	if cfg.Interval != 50*time.Millisecond {
		t.Fatalf("interval = %v, want 50ms", cfg.Interval)
	}
	if len(cfg.Objectives) != 3 {
		t.Fatalf("objectives = %d, want 3", len(cfg.Objectives))
	}
	if o := cfg.Objectives[1]; o.Latency != 20*time.Millisecond || o.Target != 0.99 {
		t.Fatalf("latency objective mis-parsed: %+v", o)
	}
	if o := cfg.Objectives[2]; o.Station != "disk" || o.FastWindow != 200*time.Millisecond {
		t.Fatalf("saturation objective mis-parsed: %+v", o)
	}
	if _, err := New(cfg); err != nil {
		t.Fatalf("New(parsed spec): %v", err)
	}

	for name, bad := range map[string]string{
		"unknown field":    `{"slos": [{"name": "x", "kind": "availability", "nope": 1}]}`,
		"no slos":          `{"interval": "1s"}`,
		"bad duration":     `{"slos": [{"name": "x", "kind": "availability", "stall": "fast"}]}`,
		"trailing content": `{"slos": [{"name": "x", "kind": "availability"}]} {}`,
	} {
		if _, err := parseSpec([]byte(bad)); err == nil {
			t.Errorf("%s: parseSpec accepted %s", name, bad)
		}
	}
}

func TestObjectiveJSONRoundTrip(t *testing.T) {
	in := `{"slos": [{"name": "slow", "kind": "latency", "latency": "5ms", "fast_window": "250ms", "slow_window": "2s"}]}`
	cfg, err := parseSpec([]byte(in))
	if err != nil {
		t.Fatalf("parseSpec: %v", err)
	}
	data, err := cfg.Objectives[0].MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	var back Objective
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatalf("UnmarshalJSON(%s): %v", data, err)
	}
	if back != cfg.Objectives[0] {
		t.Fatalf("round trip changed objective:\n in  %+v\n out %+v", cfg.Objectives[0], back)
	}
}

// TestBurnRateFireAndResolve scripts an outage against the availability
// objective: good ops, then failed ops (fire), then good ops again
// until the slow window drains (resolve, with hysteresis keeping the
// alert latched in between).
func TestBurnRateFireAndResolve(t *testing.T) {
	m := avail(t)
	grid := 100 * time.Millisecond
	step := func(i int, ok bool) {
		now := time.Duration(i) * grid
		m.ObserveOp(now, time.Millisecond, ok)
		m.Scrape(now)
	}
	for i := 1; i <= 5; i++ {
		step(i, true)
	}
	if len(m.Transitions()) != 0 {
		t.Fatalf("alert fired on a healthy stream: %+v", m.Transitions())
	}
	step(6, false) // one fully-bad scrape saturates both windows
	trans := m.Transitions()
	if len(trans) != 1 || !trans[0].Fire {
		t.Fatalf("want exactly one fire after bad scrape, got %+v", trans)
	}
	if trans[0].At != 600*time.Millisecond || trans[0].SLO != "avail" {
		t.Fatalf("fire = %+v, want avail at 600ms", trans[0])
	}
	// Recovery: the alert must stay latched until the slow window has
	// drained (hysteresis), then resolve exactly once.
	for i := 7; i <= 30; i++ {
		step(i, true)
	}
	trans = m.Transitions()
	if len(trans) != 2 || trans[1].Fire {
		t.Fatalf("want fire then resolve, got %+v", trans)
	}
	if got := trans[1].At; got <= 600*time.Millisecond+defaultSlowWindow/2 {
		t.Fatalf("resolve at %v: hysteresis should outlast half the slow window", got)
	}
}

// TestStallRule: a service that hangs emits no errors at all — silence
// past the stall tolerance must count as a fully-bad window.
func TestStallRule(t *testing.T) {
	m := avail(t)
	grid := 100 * time.Millisecond
	m.ObserveOp(grid, time.Millisecond, true)
	m.Scrape(grid)
	for i := 2; i <= 12; i++ {
		m.Scrape(time.Duration(i) * grid) // no ops: the service went dark
	}
	trans := m.Transitions()
	if len(trans) == 0 || !trans[0].Fire {
		t.Fatalf("stalled op stream never fired: %+v", trans)
	}
	// Stall tolerance is 400ms: silence at 200..500ms is within budget,
	// the 600ms scrape is the first to see lastDone=100ms over 400ms old.
	if trans[0].At != 600*time.Millisecond {
		t.Fatalf("stall fire at %v, want 600ms", trans[0].At)
	}

	// A monitor that never saw an op must not apply the stall rule.
	m2 := avail(t)
	for i := 1; i <= 30; i++ {
		m2.Scrape(time.Duration(i) * grid)
	}
	if trans := m2.Transitions(); len(trans) != 0 {
		t.Fatalf("op-free monitor fired the stall rule: %+v", trans)
	}
}

// TestSaturationObjective drives a gauge through its ceiling and back.
func TestSaturationObjective(t *testing.T) {
	m, err := New(Config{Objectives: []Objective{
		{Name: "hot", Kind: kindSaturation, Station: "disk", Value: "degraded", Ceiling: 0.5},
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	level := 0.0
	m.Register(Source{Station: "disk", Fn: func(time.Duration) map[string]float64 {
		return map[string]float64{"degraded": level}
	}})
	grid := 100 * time.Millisecond
	for i := 1; i <= 5; i++ {
		m.Scrape(time.Duration(i) * grid)
	}
	if len(m.Transitions()) != 0 {
		t.Fatalf("saturation fired below ceiling: %+v", m.Transitions())
	}
	level = 1
	m.Scrape(6 * grid)
	trans := m.Transitions()
	if len(trans) != 1 || !trans[0].Fire || trans[0].SLO != "hot" {
		t.Fatalf("want hot fire at first saturated scrape, got %+v", trans)
	}
	level = 0
	for i := 7; i <= 40; i++ {
		m.Scrape(time.Duration(i) * grid)
	}
	trans = m.Transitions()
	if len(trans) != 2 || trans[1].Fire {
		t.Fatalf("want fire then resolve after gauge drops, got %+v", trans)
	}
}

// TestGaugeEmission checks the gauge event stream: station tags, extra
// tags, the empty-map skip, and the monotone-grid duplicate guard.
func TestGaugeEmission(t *testing.T) {
	var buf bytes.Buffer
	m := avail(t)
	m.Bind(metrics.NewRecorder(metrics.NewSink(&buf), metrics.Tags{"experiment": "x"}))
	m.Register(Source{Station: "cpu.server", Fn: func(time.Duration) map[string]float64 {
		return map[string]float64{"util": 0.25}
	}})
	m.Register(Source{Station: "tcp", Tags: metrics.Tags{"client": "3"},
		Fn: func(time.Duration) map[string]float64 { return nil }}) // torn down: skipped
	m.Register(Source{Station: "", Fn: func(time.Duration) map[string]float64 {
		return map[string]float64{"never": 1}
	}}) // dropped at Register
	m.Scrape(100 * time.Millisecond)
	m.Scrape(100 * time.Millisecond) // duplicate instant: ignored
	if got := m.GaugeEvents(); got != 1 {
		t.Fatalf("gauge events = %d, want 1", got)
	}
	events, err := metrics.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("stream has %d events, want 1: %s", len(events), buf.String())
	}
	e := events[0]
	if e.Subsys != metrics.SubsysGauge || e.Kind != metrics.KindPoint {
		t.Fatalf("event = %+v, want gauge point", e)
	}
	if e.Tags["station"] != "cpu.server" || e.Tags["experiment"] != "x" {
		t.Fatalf("tags = %v, want station + inherited recorder tags", e.Tags)
	}
	if e.Values["util"] != 0.25 {
		t.Fatalf("values = %v", e.Values)
	}
}

func TestScoreTimeline(t *testing.T) {
	fire := func(at time.Duration) Transition { return Transition{SLO: "a", At: at, Fire: true} }
	resolve := func(at time.Duration) Transition { return Transition{SLO: "a", At: at} }
	inject, recovered := time.Second, 3*time.Second

	s := ScoreTimeline([]Transition{fire(1200 * time.Millisecond), resolve(3500 * time.Millisecond)},
		inject, recovered)
	if !s.Detected || s.TTD != 200*time.Millisecond {
		t.Fatalf("detection: %+v", s)
	}
	if !s.Resolved || s.TTResolve != 500*time.Millisecond {
		t.Fatalf("resolve: %+v", s)
	}
	if s.FalsePositives != 0 || s.FalseNegatives != 0 || s.Fires != 1 {
		t.Fatalf("clean run mis-scored: %+v", s)
	}

	s = ScoreTimeline([]Transition{fire(500 * time.Millisecond), resolve(700 * time.Millisecond),
		fire(1100 * time.Millisecond)}, inject, recovered)
	if s.FalsePositives != 1 || !s.Detected || s.TTD != 100*time.Millisecond || s.Fires != 2 {
		t.Fatalf("pre-inject fire mis-scored: %+v", s)
	}

	s = ScoreTimeline(nil, inject, recovered)
	if s.Detected || s.FalseNegatives != 1 {
		t.Fatalf("silent timeline mis-scored: %+v", s)
	}

	// Collapsed run: recovered=0 means no resolve can be credited.
	s = ScoreTimeline([]Transition{fire(1200 * time.Millisecond), resolve(2 * time.Second)}, inject, 0)
	if !s.Detected || s.Resolved {
		t.Fatalf("collapsed run mis-scored: %+v", s)
	}

	c := ScoreControl([]Transition{fire(200 * time.Millisecond), resolve(900 * time.Millisecond),
		fire(1500 * time.Millisecond)})
	if c.Fires != 2 || c.FalsePositives != 2 || c.FalseNegatives != 0 {
		t.Fatalf("control mis-scored: %+v", c)
	}
}

func TestUtilFromBusy(t *testing.T) {
	busy := time.Duration(0)
	util := UtilFromBusy(func() time.Duration { return busy })
	busy = 50 * time.Millisecond
	if got := util(100 * time.Millisecond); got != 0.5 {
		t.Fatalf("util = %g, want 0.5", got)
	}
	busy = 250 * time.Millisecond // grew faster than wall time: clamp to 1
	if got := util(200 * time.Millisecond); got != 1 {
		t.Fatalf("util = %g, want clamped 1", got)
	}
	if got := util(200 * time.Millisecond); got != 0 {
		t.Fatalf("util with dt=0 = %g, want 0", got)
	}
}

// TestNilMonitor: the disabled state must be a zero-allocation no-op on
// every path a hot loop touches, like the nil tracer.
func TestNilMonitor(t *testing.T) {
	var m *Monitor
	m.Bind(nil)
	m.Register(Source{Station: "x", Fn: func(time.Duration) map[string]float64 { return nil }})
	m.Scrape(time.Second)
	if m.Scrapes() != 0 || m.GaugeEvents() != 0 || m.Transitions() != nil {
		t.Fatal("nil monitor reported state")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		m.ObserveOp(time.Second, time.Millisecond, true)
		m.Scrape(time.Second)
	}); allocs != 0 {
		t.Fatalf("nil monitor allocates: %g allocs/op", allocs)
	}
}

// TestSpecErrorsMentionObjective: spec errors must carry enough context
// to find the bad entry.
func TestSpecErrorsMentionObjective(t *testing.T) {
	_, err := parseSpec([]byte(`{"slos": [{"name": "myslo", "kind": "latency", "latency": "xx"}]}`))
	if err == nil || !strings.Contains(err.Error(), "myslo") {
		t.Fatalf("error %v does not name the objective", err)
	}
}
