package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Stream summarization: the self-serve half of the telemetry subsystem.
// Summarize rolls a recorded event stream up into per-(subsys, tag)
// totals, virtual-time rates and value percentiles, so a sweep can be
// re-analyzed without re-running the simulation; Windows buckets sample
// deltas into fixed virtual-time windows for counter-over-time plots.

// Group is one (subsys, selected-tags) roll-up.
type Group struct {
	// Subsys is the emitting subsystem.
	Subsys string
	// Tags holds the selected grouping tags (only keys named in the
	// Summarize call, and only when present on the events).
	Tags Tags
	// Events counts events folded into this group.
	Events int
	// FirstT/LastT bound the group's virtual-time activity in ns.
	FirstT, LastT int64
	// Counters are summed sample deltas per counter name.
	Counters map[string]int64
	// Values collects every point value per value name (for percentiles).
	Values map[string][]float64
}

// key renders the group identity ("net stack=iscsi transport=tcp").
func (g Group) key() string { return groupKey(g.Subsys, g.Tags, sortedKeys(g.Tags)) }

// Summary is a full-stream roll-up.
type Summary struct {
	// By echoes the grouping tag keys.
	By []string
	// Groups are sorted by Key for deterministic rendering.
	Groups []*Group
}

// Summarize folds events into per-(subsys, by-tags) groups: sample
// counters are summed, point values collected, and the active virtual
// window recorded. Mark events count toward Events and the window only.
func Summarize(events []Event, by []string) *Summary {
	// Group keys are built in sorted-tag order (matching Group.key) once
	// per event, without materializing a Group per lookup.
	keys := append([]string(nil), by...)
	sort.Strings(keys)
	groups := map[string]*Group{}
	for _, e := range events {
		key := groupKey(e.Subsys, e.Tags, keys)
		g, ok := groups[key]
		if !ok {
			tags := Tags{}
			for _, k := range keys {
				if v, ok := e.Tags[k]; ok {
					tags[k] = v
				}
			}
			g = &Group{
				Subsys:   e.Subsys,
				Tags:     tags,
				FirstT:   e.T,
				Counters: map[string]int64{},
				Values:   map[string][]float64{},
			}
			groups[key] = g
		}
		g.Events++
		if e.T < g.FirstT {
			g.FirstT = e.T
		}
		if e.T > g.LastT {
			g.LastT = e.T
		}
		w := sampleWeight(e.Tags)
		for k, v := range e.Counters {
			if w != 1 {
				v = int64(math.Round(float64(v) * w))
			}
			g.Counters[k] += v
		}
		for k, v := range e.Values {
			g.Values[k] = append(g.Values[k], v)
		}
	}
	s := &Summary{By: append([]string(nil), by...)}
	for _, k := range sortedKeys(groups) {
		s.Groups = append(s.Groups, groups[k])
	}
	return s
}

// groupKey renders a group identity: the subsystem, then key=value for
// each of the sorted keys the tags carry.
func groupKey(subsys string, tags Tags, keys []string) string {
	var sb strings.Builder
	sb.WriteString(subsys)
	for _, k := range keys {
		if v, ok := tags[k]; ok {
			sb.WriteByte(' ')
			sb.WriteString(k)
			sb.WriteByte('=')
			sb.WriteString(v)
		}
	}
	return sb.String()
}

// sampleWeight returns the population re-weighting factor for an event:
// population/sample when the source is a stratified per-client sample
// (TagSampled), 1 otherwise. Counter totals scale by it so a sampled
// stream estimates the full fleet; point values are left unscaled —
// stratified sampling is unbiased for distributions, and re-weighting a
// latency would corrupt it.
func sampleWeight(tags Tags) float64 {
	if tags[TagSampled] != "true" {
		return 1
	}
	pop, err1 := strconv.Atoi(tags[TagPopulation])
	n, err2 := strconv.Atoi(tags[TagSample])
	if err1 != nil || err2 != nil || pop <= 0 || n <= 0 {
		return 1
	}
	return float64(pop) / float64(n)
}

// Percentile returns the nearest-rank p-th percentile of an ascending
// sample: the value at rank ceil(p/100 * N), 1-based, so every reported
// percentile is an observed value, never an interpolation (the convention
// storage benchmarks and the paper's latency tables use). An empty sample
// reports 0; p <= 0 reports the minimum and p >= 100 the maximum. Stream
// roll-ups, replay latencies and repro trace's table all use it, so they
// never disagree on a definition.
func Percentile[T ~int64 | ~float64](sorted []T, p float64) T {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case p <= 0:
		return sorted[0]
	case p >= 100:
		return sorted[n-1]
	}
	return sorted[max(int(math.Ceil(p/100*float64(n))), 1)-1]
}

// Render prints the summary: one block per group with counter totals,
// per-virtual-second rates over the group's active window, and nearest-
// rank percentile roll-ups for every value distribution.
func (s *Summary) Render(w io.Writer) {
	for _, g := range s.Groups {
		window := time.Duration(g.LastT - g.FirstT)
		fmt.Fprintf(w, "%s  (%d events, window %s)\n", g.key(), g.Events, window)
		for _, k := range sortedKeys(g.Counters) {
			total := g.Counters[k]
			if window > 0 {
				fmt.Fprintf(w, "  %-24s %14d  %12.1f/s\n", k, total,
					float64(total)/window.Seconds())
			} else {
				fmt.Fprintf(w, "  %-24s %14d\n", k, total)
			}
		}
		if p50, ok := histogramQuantile(g.Counters, 50); ok {
			p90, _ := histogramQuantile(g.Counters, 90)
			p99, _ := histogramQuantile(g.Counters, 99)
			mean := time.Duration(g.Counters["sum_ns"] / g.Counters["count"])
			fmt.Fprintf(w, "  %-24s mean=%-12s p50<=%-12s p90<=%-12s p99<=%s\n",
				"latency (from buckets)", mean, p50, p90, p99)
		}
		for _, k := range sortedKeys(g.Values) {
			xs := append([]float64(nil), g.Values[k]...)
			sort.Float64s(xs)
			var sum float64
			for _, x := range xs {
				sum += x
			}
			if g.Subsys == SubsysGauge {
				// Gauges are instantaneous levels: extrema tell the story
				// (did the queue ever back up), percentiles mostly repeat
				// the mean — and a level must never be rate-converted.
				fmt.Fprintf(w, "  %-24s n=%-6d min=%-12.4g mean=%-12.4g max=%.4g\n",
					k, len(xs), xs[0], sum/float64(len(xs)), xs[len(xs)-1])
				continue
			}
			fmt.Fprintf(w, "  %-24s n=%-6d mean=%-12.4g p50=%-12.4g p90=%-12.4g p99=%.4g\n",
				k, len(xs), sum/float64(len(xs)),
				Percentile(xs, 50), Percentile(xs, 90), Percentile(xs, 99))
		}
	}
}

// Window is one fixed-width virtual-time bucket of summed counter
// deltas and gauge level statistics.
type Window struct {
	// Start is the bucket's start in virtual ns.
	Start int64
	// Groups maps Group.key -> counter sums within the bucket.
	Groups map[string]map[string]int64
	// Gauges maps Group.key -> per-gauge level statistics within the
	// bucket. Gauges are instantaneous levels, so they aggregate as
	// min/mean/max — never as rate-convertible sums.
	Gauges map[string]map[string]GaugeStat
}

// GaugeStat aggregates one gauge series within a window: the extrema
// plus the running sum backing Mean.
type GaugeStat struct {
	// Min and Max are the lowest and highest scraped levels.
	Min, Max float64
	// Sum and N back Mean.
	Sum float64
	N   int
}

// mean is the average scraped level (0 for an empty stat).
func (g GaugeStat) mean() float64 {
	if g.N == 0 {
		return 0
	}
	return g.Sum / float64(g.N)
}

// fold adds one scraped level.
func (g GaugeStat) fold(v float64) GaugeStat {
	if g.N == 0 || v < g.Min {
		g.Min = v
	}
	if g.N == 0 || v > g.Max {
		g.Max = v
	}
	g.Sum += v
	g.N++
	return g
}

// Windows buckets sample events into fixed virtual-time windows of the
// given width, grouped like Summarize. Gauge points (subsys=gauge) fold
// into per-window min/mean/max level statistics instead of counter
// sums. Buckets with no events are omitted; buckets are returned in
// time order.
func Windows(events []Event, width time.Duration, by []string) []Window {
	if width <= 0 {
		width = time.Second
	}
	keys := append([]string(nil), by...)
	sort.Strings(keys)
	buckets := map[int64]*Window{}
	for _, e := range events {
		gauge := e.Kind == KindPoint && e.Subsys == SubsysGauge
		if e.Kind != KindSample && !gauge {
			continue
		}
		start := e.T / int64(width) * int64(width)
		b, ok := buckets[start]
		if !ok {
			b = &Window{
				Start:  start,
				Groups: map[string]map[string]int64{},
				Gauges: map[string]map[string]GaugeStat{},
			}
			buckets[start] = b
		}
		key := groupKey(e.Subsys, e.Tags, keys)
		if gauge {
			if b.Gauges[key] == nil {
				b.Gauges[key] = map[string]GaugeStat{}
			}
			for k, v := range e.Values {
				b.Gauges[key][k] = b.Gauges[key][k].fold(v)
			}
			continue
		}
		if b.Groups[key] == nil {
			b.Groups[key] = map[string]int64{}
		}
		for k, v := range e.Counters {
			b.Groups[key][k] += v
		}
	}
	starts := make([]int64, 0, len(buckets))
	for s := range buckets {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	out := make([]Window, 0, len(starts))
	for _, s := range starts {
		out = append(out, *buckets[s])
	}
	return out
}

// RenderWindows prints the bucketed counter-over-time view. Counter
// groups render as per-window sums; gauge groups as min/mean/max
// levels.
func RenderWindows(w io.Writer, windows []Window, width time.Duration) {
	for _, win := range windows {
		fmt.Fprintf(w, "[%s .. %s)\n",
			time.Duration(win.Start), time.Duration(win.Start)+width)
		for _, key := range sortedKeys(win.Groups) {
			counters := win.Groups[key]
			parts := make([]string, 0, len(counters))
			for _, k := range sortedKeys(counters) {
				parts = append(parts, fmt.Sprintf("%s=%d", k, counters[k]))
			}
			fmt.Fprintf(w, "  %-40s %s\n", key, strings.Join(parts, " "))
		}
		for _, key := range sortedKeys(win.Gauges) {
			stats := win.Gauges[key]
			parts := make([]string, 0, len(stats))
			for _, k := range sortedKeys(stats) {
				s := stats[k]
				parts = append(parts, fmt.Sprintf("%s=%.4g/%.4g/%.4g", k, s.Min, s.mean(), s.Max))
			}
			fmt.Fprintf(w, "  %-40s %s\n", key, strings.Join(parts, " "))
		}
	}
}
