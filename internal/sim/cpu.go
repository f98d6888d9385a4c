package sim

import (
	"sort"
	"time"

	"repro/internal/tracing"
)

// defaultCPUWindow mirrors the 2-second vmstat sampling interval the paper
// used when reporting CPU utilization percentiles (Tables 9 and 10).
const defaultCPUWindow = 2 * time.Second

// CPU models a processor with windowed busy-time accounting. Work is
// serialized (single resource); busy time is attributed to fixed-size
// windows so percentile utilization can be reported the same way the paper
// reports vmstat samples.
type CPU struct {
	// Speed scales service demands: a demand d costs d/Speed of CPU time.
	// The paper's server has 2x933MHz CPUs and the client 1x1GHz; we fold
	// that into Speed (1.0 = one reference 1 GHz core).
	Speed float64
	// Window is the utilization sampling window (default 2 s, like vmstat).
	Window time.Duration

	res     Resource
	windows []time.Duration // busy time inside each window, by index; grown by account

	tracer *tracing.Tracer
	layer  tracing.Layer // LayerCPUClient or LayerCPUServer
}

// NewCPU returns a CPU with the given relative speed (1.0 = reference core).
func NewCPU(speed float64) *CPU {
	return &CPU{Speed: speed, Window: defaultCPUWindow}
}

// SetTracer attaches a tracer that records each service interval as a span
// in the given layer (tracing.LayerCPUClient or tracing.LayerCPUServer).
// A nil tracer is the zero-cost disabled state.
func (c *CPU) SetTracer(t *tracing.Tracer, layer tracing.Layer) {
	c.tracer = t
	c.layer = layer
}

// SetBackground declares that fraction rho of the CPU's capacity is
// consumed by closed-form fluid background load (see Resource): foreground
// demands run at the residual rate, and both cumulative busy time and the
// utilization windows account the stretched occupancy. The background
// load's own busy time is not accounted here — harnesses report it from
// the fluid operating point (internal/fleet) instead.
func (c *CPU) SetBackground(rho float64) error { return c.res.SetBackground(rho) }

// Background reports the CPU's fluid background utilization (0 when none).
func (c *CPU) Background() float64 { return c.res.background() }

// Run executes a demand of the given reference-CPU duration, starting no
// earlier than start, and returns the completion time.
func (c *CPU) Run(start, demand time.Duration) (done time.Duration) {
	if demand <= 0 {
		return start
	}
	service := time.Duration(float64(demand) / c.Speed)
	begin := start
	if c.res.busyUntil > begin {
		begin = c.res.busyUntil
	}
	done = c.res.Acquire(start, service)
	c.account(begin, done-begin)
	// The span starts at start, not begin: run-queue wait is CPU time from
	// the op's point of view, and the critical path bills it here.
	c.tracer.Record(start, done, c.layer, "run")
	return done
}

// Interrupt accounts demand as asynchronous completion work (interrupt /
// softirq style) beginning at start: busy time is booked against the
// cumulative counter and the utilization windows, but the run-queue gate
// is left untouched, so background reply processing does not serialize
// the thread issuing the next request. A window can therefore be booked
// past saturation when interrupt work overlaps run-queue work;
// UtilizationPercentile clamps such windows at 1.0, keeping reported
// utilization in the documented 0..1 range. Returns the completion time.
func (c *CPU) Interrupt(start, demand time.Duration) (done time.Duration) {
	if demand <= 0 {
		return start
	}
	service := c.res.stretch(time.Duration(float64(demand) / c.Speed))
	c.res.busy += service
	c.account(start, service)
	c.tracer.Record(start, start+service, c.layer, "interrupt")
	return start + service
}

// account spreads service time across sampling windows [begin, begin+service).
func (c *CPU) account(begin, service time.Duration) {
	w := c.Window
	if w <= 0 {
		w = defaultCPUWindow
	}
	for service > 0 {
		idx := int64(begin / w)
		windowEnd := time.Duration(idx+1) * w
		slice := windowEnd - begin
		if slice > service {
			slice = service
		}
		if idx >= 0 { // no window before time 0 is ever read
			if n := int(idx) + 1; n > len(c.windows) {
				c.windows = append(c.windows, make([]time.Duration, n-len(c.windows))...)
			}
			c.windows[idx] += slice
		}
		begin += slice
		service -= slice
	}
}

// Busy reports cumulative busy time.
func (c *CPU) Busy() time.Duration { return c.res.Busy() }

// Counters exports accumulated busy time for the metrics event stream
// (metrics.SubsysCPU; see docs/METRICS.md).
func (c *CPU) Counters() map[string]int64 {
	return map[string]int64{"busy_ns": int64(c.res.Busy())}
}

// Gauges exports the CPU's instantaneous saturation state for the health
// scraper (metrics.SubsysGauge): runq_ns is how far the run queue extends
// past now, the virtual-time analogue of load average.
func (c *CPU) Gauges(now time.Duration) map[string]float64 {
	runq := c.res.BusyUntil() - now
	if runq < 0 {
		runq = 0
	}
	return map[string]float64{"runq_ns": float64(runq)}
}

// UtilizationPercentile reports the p-th percentile (0 < p <= 1) of
// per-window utilization over windows [0, elapsed), the statistic the
// paper reports from 2-second vmstat samples. Windows with zero busy time
// count as zero-utilization samples.
func (c *CPU) UtilizationPercentile(p float64, elapsed time.Duration) float64 {
	w := c.Window
	if w <= 0 {
		w = defaultCPUWindow
	}
	n := int64(elapsed / w)
	if n <= 0 {
		n = 1
	}
	samples := make([]float64, 0, n)
	for i := int64(0); i < n; i++ {
		var u float64 // a window past the last busy one was idle
		if i < int64(len(c.windows)) {
			u = float64(c.windows[i]) / float64(w)
		}
		if u > 1 {
			u = 1 // saturated window
		}
		samples = append(samples, u)
	}
	sort.Float64s(samples)
	if p <= 0 {
		return samples[0]
	}
	if p >= 1 {
		return samples[len(samples)-1]
	}
	idx := int(p*float64(len(samples))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}
