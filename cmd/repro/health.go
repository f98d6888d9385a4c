package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/health"
)

// Health holds the -health/-health-interval state for a sweep cmd. The
// zero value (no flags set) is inert: Config returns nil — the
// documented "health off" state every sweep accepts — so cmds call it
// unconditionally.
type Health struct {
	spec     string
	interval time.Duration
}

// HealthFlags registers -health and -health-interval on fs and returns
// the Health that drives them. Call Config after fs.Parse to build the
// monitor spec for the sweep config.
func HealthFlags(fs *flag.FlagSet) *Health {
	h := &Health{}
	fs.StringVar(&h.spec, "health", "",
		"attach the SLO health monitor: 'default' for the built-in objectives, "+
			"or a path to an SLO spec JSON (see docs/HEALTH.md; requires -metrics)")
	fs.DurationVar(&h.interval, "health-interval", 0,
		"gauge scrape period, e.g. 50ms (requires -health; default 100ms)")
	return h
}

// Config validates the flags and returns the monitor spec they
// configure, or nil when -health was not given. metricsPath is the
// cmd's -metrics value: gauges and alerts are metric events, so a
// monitor without a stream would observe into the void. Call once,
// after fs.Parse.
func (h *Health) Config(metricsPath string) (*health.Config, error) {
	if h.spec == "" {
		if h.interval != 0 {
			return nil, fmt.Errorf("-health-interval requires -health")
		}
		return nil, nil
	}
	if metricsPath == "" {
		return nil, fmt.Errorf("-health requires -metrics (gauges and alerts are metric events)")
	}
	if h.interval < 0 {
		return nil, fmt.Errorf("-health-interval: %v must not be negative", h.interval)
	}
	path := h.spec
	if path == "default" {
		path = ""
	}
	cfg, err := sloSpec(path, h.interval)
	if err != nil {
		return nil, fmt.Errorf("-health: %w", err)
	}
	return &cfg, nil
}

// sloSpec builds the monitor spec `health -slo/-interval` and
// `-health/-health-interval` name: the SLO spec at path ("" for the
// built-in objectives), a positive interval overriding the spec's.
func sloSpec(path string, interval time.Duration) (health.Config, error) {
	var cfg health.Config
	if path != "" {
		var err error
		if cfg, err = health.LoadSpec(path); err != nil {
			return cfg, err
		}
	}
	if interval > 0 {
		cfg.Interval = interval
	}
	return cfg, nil
}
