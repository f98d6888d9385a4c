package health

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Objective kinds: what an SLO's bad-fraction measures each scrape.
const (
	// kindAvailability tracks the failed fraction of completed ops, with
	// a stall rule: once ops have been seen, a window with none completed
	// for longer than Stall counts as fully bad — a hung service emits no
	// errors at all.
	kindAvailability = "availability"
	// kindLatency tracks the fraction of completed ops slower than
	// Latency (failed ops count as slow). Windows with no ops are good —
	// the stall rule belongs to availability.
	kindLatency = "latency"
	// kindSaturation tracks a station gauge against a ceiling: the
	// window is fully bad while Station's Value gauge exceeds Ceiling
	// (max across sources sharing the station, e.g. per-client CPUs).
	kindSaturation = "saturation"
)

// Burn-rate evaluation defaults, sized for the defaultInterval scrape
// grid: the fast window spans five scrapes and catches a sub-second
// outage, the slow window spans fifteen and gates flapping. The default
// target's error budget (0.1%) means a single fully-bad scrape saturates
// both burn thresholds — appropriate for a simulator where a fault is
// binary — while the 0.5x resolve hysteresis keeps an alert latched
// until the slow window has fully drained of badness.
const (
	// defaultTarget is the objective's good-fraction target (99.9%).
	defaultTarget = 0.999
	// defaultFastWindow is the fast burn-rate averaging window.
	defaultFastWindow = 500 * time.Millisecond
	// defaultSlowWindow is the slow burn-rate averaging window (and the
	// horizon after which old scrape samples are pruned).
	defaultSlowWindow = 1500 * time.Millisecond
	// defaultFastBurn is the fast-window burn-rate fire threshold.
	defaultFastBurn = 10.0
	// defaultSlowBurn is the slow-window burn-rate fire threshold.
	defaultSlowBurn = 2.0
	// defaultStall is the availability stall tolerance: how long the op
	// stream may go silent before the window counts as bad.
	defaultStall = 400 * time.Millisecond
)

// resolveFactor is the fire/resolve hysteresis: a firing alert resolves
// only once both burn rates fall to this fraction of their thresholds.
const resolveFactor = 0.5

// Objective is one declarative SLO. Zero fields take the documented
// defaults (validated and filled by New); Kind-specific fields are
// required for their kind only. The JSON form uses duration strings
// ("250ms") — see docs/HEALTH.md for the spec format.
type Objective struct {
	// Name identifies the objective in alert events and scoring.
	Name string
	// Kind is kindAvailability, kindLatency or kindSaturation.
	Kind string
	// Target is the good-fraction target in (0, 1); 1-Target is the
	// error budget burn rates are measured against (default
	// defaultTarget).
	Target float64
	// Latency is the per-op latency threshold (kindLatency only,
	// required).
	Latency time.Duration
	// Stall is the availability stall tolerance (kindAvailability only,
	// default defaultStall).
	Stall time.Duration
	// Station and Value address the gauge a saturation objective
	// watches, e.g. station "disk" value "degraded" (kindSaturation
	// only, required).
	Station string
	// Value is the gauge key within the station (kindSaturation only).
	Value string
	// Ceiling is the saturation threshold the gauge must exceed to count
	// as bad (kindSaturation only).
	Ceiling float64
	// FastWindow/SlowWindow are the burn-rate averaging windows
	// (defaults defaultFastWindow/defaultSlowWindow).
	FastWindow time.Duration
	// SlowWindow is the slow averaging window; it must exceed
	// FastWindow.
	SlowWindow time.Duration
	// FastBurn/SlowBurn are the fire thresholds: the alert fires when
	// both windows burn at least this fast, and resolves once both fall
	// to half (defaults defaultFastBurn/defaultSlowBurn).
	FastBurn float64
	// SlowBurn is the slow-window fire threshold.
	SlowBurn float64
}

// fill validates the objective and applies defaults.
func (o Objective) fill() (Objective, error) {
	if o.Name == "" {
		return o, fmt.Errorf("health: objective with no name")
	}
	if o.Target == 0 {
		o.Target = defaultTarget
	}
	if o.Target <= 0 || o.Target >= 1 {
		return o, fmt.Errorf("health: objective %q target %g out of (0, 1)", o.Name, o.Target)
	}
	if o.FastWindow == 0 {
		o.FastWindow = defaultFastWindow
	}
	if o.SlowWindow == 0 {
		o.SlowWindow = defaultSlowWindow
	}
	if o.FastWindow <= 0 || o.SlowWindow <= o.FastWindow {
		return o, fmt.Errorf("health: objective %q windows fast=%v slow=%v (need 0 < fast < slow)",
			o.Name, o.FastWindow, o.SlowWindow)
	}
	if o.FastBurn == 0 {
		o.FastBurn = defaultFastBurn
	}
	if o.SlowBurn == 0 {
		o.SlowBurn = defaultSlowBurn
	}
	if o.FastBurn <= 0 || o.SlowBurn <= 0 {
		return o, fmt.Errorf("health: objective %q non-positive burn thresholds", o.Name)
	}
	switch o.Kind {
	case kindAvailability:
		if o.Stall == 0 {
			o.Stall = defaultStall
		}
		if o.Stall < 0 {
			return o, fmt.Errorf("health: objective %q negative stall", o.Name)
		}
	case kindLatency:
		if o.Latency <= 0 {
			return o, fmt.Errorf("health: latency objective %q needs a positive latency threshold", o.Name)
		}
	case kindSaturation:
		if o.Station == "" || o.Value == "" {
			return o, fmt.Errorf("health: saturation objective %q needs station and value", o.Name)
		}
		if o.Ceiling < 0 {
			return o, fmt.Errorf("health: saturation objective %q negative ceiling", o.Name)
		}
	default:
		return o, fmt.Errorf("health: objective %q unknown kind %q", o.Name, o.Kind)
	}
	return o, nil
}

// defaultObjectives is the built-in SLO set ("-health default"):
// service availability with the stall rule, a degraded-array detector
// (availability alone cannot see a RAID member failure — degraded reads
// still succeed), and a server-CPU saturation ceiling.
func defaultObjectives() []Objective {
	return []Objective{
		{Name: "availability", Kind: kindAvailability},
		{Name: "disk-degraded", Kind: kindSaturation, Station: "disk", Value: "degraded", Ceiling: 0.5},
		{Name: "server-cpu", Kind: kindSaturation, Station: "cpu.server", Value: "util", Ceiling: 0.95},
	}
}

// objectiveJSON is the wire form: durations as strings.
type objectiveJSON struct {
	Name       string  `json:"name"`
	Kind       string  `json:"kind"`
	Target     float64 `json:"target,omitempty"`
	Latency    string  `json:"latency,omitempty"`
	Stall      string  `json:"stall,omitempty"`
	Station    string  `json:"station,omitempty"`
	Value      string  `json:"value,omitempty"`
	Ceiling    float64 `json:"ceiling,omitempty"`
	FastWindow string  `json:"fast_window,omitempty"`
	SlowWindow string  `json:"slow_window,omitempty"`
	FastBurn   float64 `json:"fast_burn,omitempty"`
	SlowBurn   float64 `json:"slow_burn,omitempty"`
}

func parseDur(name, field, s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("health: objective %q bad %s %q: %w", name, field, s, err)
	}
	return d, nil
}

// UnmarshalJSON decodes the wire form (durations as Go duration strings,
// e.g. "250ms").
func (o *Objective) UnmarshalJSON(data []byte) error {
	var w objectiveJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("health: bad objective: %w", err)
	}
	var err error
	o.Name, o.Kind, o.Target = w.Name, w.Kind, w.Target
	o.Station, o.Value, o.Ceiling = w.Station, w.Value, w.Ceiling
	o.FastBurn, o.SlowBurn = w.FastBurn, w.SlowBurn
	if o.Latency, err = parseDur(w.Name, "latency", w.Latency); err != nil {
		return err
	}
	if o.Stall, err = parseDur(w.Name, "stall", w.Stall); err != nil {
		return err
	}
	if o.FastWindow, err = parseDur(w.Name, "fast_window", w.FastWindow); err != nil {
		return err
	}
	if o.SlowWindow, err = parseDur(w.Name, "slow_window", w.SlowWindow); err != nil {
		return err
	}
	return nil
}

// MarshalJSON encodes the wire form (round-trips with UnmarshalJSON).
func (o Objective) MarshalJSON() ([]byte, error) {
	w := objectiveJSON{
		Name: o.Name, Kind: o.Kind, Target: o.Target,
		Station: o.Station, Value: o.Value, Ceiling: o.Ceiling,
		FastBurn: o.FastBurn, SlowBurn: o.SlowBurn,
	}
	dur := func(d time.Duration) string {
		if d == 0 {
			return ""
		}
		return d.String()
	}
	w.Latency, w.Stall = dur(o.Latency), dur(o.Stall)
	w.FastWindow, w.SlowWindow = dur(o.FastWindow), dur(o.SlowWindow)
	return json.Marshal(w)
}

// spec is the JSON SLO specification a sweep's -health flag points at:
// an optional scrape interval plus the objective list.
type spec struct {
	// Interval is the scrape period as a duration string ("" =
	// defaultInterval).
	Interval string `json:"interval,omitempty"`
	// SLOs is the objective list (at least one).
	SLOs []Objective `json:"slos"`
}

// parseSpec strictly decodes a JSON SLO spec into a monitor Config.
// Unknown fields are rejected; objective validation happens in New.
func parseSpec(data []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		return Config{}, fmt.Errorf("health: bad SLO spec: %w", err)
	}
	if dec.More() {
		return Config{}, fmt.Errorf("health: trailing content after SLO spec")
	}
	if len(s.SLOs) == 0 {
		return Config{}, fmt.Errorf("health: SLO spec with no slos")
	}
	var cfg Config
	var err error
	if cfg.Interval, err = parseDur("spec", "interval", s.Interval); err != nil {
		return Config{}, err
	}
	cfg.Objectives = s.SLOs
	return cfg, nil
}

// LoadSpec reads and parses a JSON SLO spec file.
func LoadSpec(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("health: %w", err)
	}
	return parseSpec(data)
}

// sloState is one objective's burn-rate state machine: the ring of
// recent (time, bad-fraction) scrape samples plus the latched firing
// state.
type sloState struct {
	o      Objective
	ring   []burnObs
	firing bool
}

// burnObs is one scrape's bad-fraction sample.
type burnObs struct {
	t   time.Duration
	bad float64
}

// push appends a sample and prunes everything older than the slow
// window.
func (s *sloState) push(now time.Duration, bad float64) {
	s.ring = append(s.ring, burnObs{t: now, bad: bad})
	cut := 0
	for cut < len(s.ring) && s.ring[cut].t <= now-s.o.SlowWindow {
		cut++
	}
	if cut > 0 {
		s.ring = append(s.ring[:0], s.ring[cut:]...)
	}
}

// burn reports the burn rate over the trailing window: the mean
// bad-fraction of the samples inside it divided by the error budget.
func (s *sloState) burn(now, window time.Duration) float64 {
	var sum float64
	n := 0
	for _, ob := range s.ring {
		if ob.t > now-window {
			sum += ob.bad
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / (1 - s.o.Target)
}

// badFraction evaluates the objective's bad-fraction for the scrape at
// now: ops are the operations completed since the previous scrape, sat
// the station gauges ("station/value" -> max), and sawOp/lastDone the
// op-stream liveness state the stall rule needs.
func (s *sloState) badFraction(now time.Duration, ops []opObs, sat map[string]float64,
	sawOp bool, lastDone time.Duration) float64 {
	switch s.o.Kind {
	case kindSaturation:
		if v, ok := sat[s.o.Station+"/"+s.o.Value]; ok && v > s.o.Ceiling {
			return 1
		}
		return 0
	case kindLatency:
		if len(ops) == 0 {
			return 0
		}
		slow := 0
		for _, op := range ops {
			if !op.ok || op.latency > s.o.Latency {
				slow++
			}
		}
		return float64(slow) / float64(len(ops))
	default: // kindAvailability
		if len(ops) == 0 {
			if sawOp && now-lastDone > s.o.Stall {
				return 1
			}
			return 0
		}
		failed := 0
		for _, op := range ops {
			if !op.ok {
				failed++
			}
		}
		return float64(failed) / float64(len(ops))
	}
}
