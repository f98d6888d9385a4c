package health

import (
	"testing"
	"time"
)

// FuzzParseSpec drives any bytes through the SLO spec decoder: it never
// panics, every objective it accepts round-trips through MarshalJSON and
// UnmarshalJSON, and an accepted spec either makes New fail or builds a
// monitor that survives a few scrapes at rising times.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		`{
		"interval": "50ms",
		"slos": [
			{"name": "avail", "kind": "availability", "stall": "250ms"},
			{"name": "slow-ops", "kind": "latency", "latency": "20ms", "target": 0.99},
			{"name": "hot-disk", "kind": "saturation", "station": "disk", "value": "util",
			 "ceiling": 0.9, "fast_window": "200ms", "slow_window": "1s"}
		]
	}`,
		`{"slos": [{"name": "x", "kind": "availability", "nope": 1}]}`,
		`{"interval": "1s"}`,
		`{"slos": [{"name": "x", "kind": "availability", "stall": "fast"}]}`,
		`{"slos": [{"name": "x", "kind": "availability"}]} {}`,
		`{"slos": [{"name": "slow", "kind": "latency", "latency": "5ms", "fast_window": "250ms", "slow_window": "2s"}]}`,
		`{"slos": [{"name": "myslo", "kind": "latency", "latency": "xx"}]}`,
	} {
		f.Add([]byte(spec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := parseSpec(data)
		if err != nil {
			return
		}
		for _, o := range cfg.Objectives {
			enc, err := o.MarshalJSON()
			if err != nil {
				t.Fatalf("MarshalJSON(%+v): %v", o, err)
			}
			var back Objective
			if err := back.UnmarshalJSON(enc); err != nil {
				t.Fatalf("UnmarshalJSON(%s): %v", enc, err)
			}
			if back != o {
				t.Fatalf("round trip changed objective:\n in  %+v\n out %+v", o, back)
			}
		}
		m, err := New(cfg)
		if err != nil {
			return
		}
		m.Register(Source{Station: "disk", Fn: func(now time.Duration) map[string]float64 {
			return map[string]float64{"util": float64(now%time.Second) / float64(time.Second), "degraded": 1}
		}})
		for i, now := range []time.Duration{0, 100 * time.Millisecond, 250 * time.Millisecond, time.Second, 3 * time.Second} {
			m.ObserveOp(now, time.Duration(i)*10*time.Millisecond, i%2 == 0)
			m.Scrape(now)
		}
		if m.Scrapes() != 5 {
			t.Fatalf("%d scrapes at five rising times", m.Scrapes())
		}
	})
}
