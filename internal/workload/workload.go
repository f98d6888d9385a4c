// Package workload implements the paper's macro-benchmarks (Section 5) as
// deterministic drivers over a testbed: PostMark (meta-data intensive),
// TPC-C-like OLTP and TPC-H-like decision support (data-intensive), the
// kernel-tree shell benchmarks of Table 8, and the sequential/random I/O
// drivers behind Table 4 and Figure 6.
package workload

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/testbed"
)

// Result is one benchmark measurement on one stack.
type Result struct {
	Name    string
	Stack   string
	Elapsed time.Duration
	// Messages is the protocol transaction count over the run.
	Messages int64
	Bytes    int64
	// Throughput is benchmark-specific (txn/min for TPC-C, QphH for
	// TPC-H, transactions/sec for PostMark); zero if not applicable.
	Throughput float64
	// ServerCPU / ClientCPU are the 95th-percentile 2-second-window
	// utilizations, matching the paper's vmstat methodology.
	ServerCPU float64
	ClientCPU float64
}

func (r Result) String() string {
	return fmt.Sprintf("%-22s %-8s time=%-12v msgs=%-9d srvCPU=%4.0f%% cliCPU=%4.0f%%",
		r.Name, r.Stack, r.Elapsed.Round(time.Millisecond), r.Messages,
		r.ServerCPU*100, r.ClientCPU*100)
}

// measure wraps a run with snapshots and CPU percentiles, inside the one
// telemetry window protocol every harness shares (Cluster.BeginWindow /
// EndWindow): setup-phase counter deltas are flushed before the begin
// mark, the run's deltas are sampled after the drain, and the headline
// result lands as a point event.
func measure(tb *testbed.Testbed, name string, run func() error) (Result, error) {
	wl := metrics.Tags{"workload": name}
	tb.Cluster.BeginWindow(wl)
	before := tb.Snap()
	if err := run(); err != nil {
		return Result{}, fmt.Errorf("%s on %v: %w", name, tb.Kind, err)
	}
	if err := tb.Drain(); err != nil {
		return Result{}, fmt.Errorf("%s drain on %v: %w", name, tb.Kind, err)
	}
	d := tb.Since(before)
	elapsed := d.Elapsed
	if elapsed <= 0 {
		elapsed = time.Millisecond
	}
	res := Result{
		Name:      name,
		Stack:     tb.Kind.String(),
		Elapsed:   elapsed,
		Messages:  d.Messages,
		Bytes:     d.Bytes,
		ServerCPU: tb.Cluster.ServerCPU.UtilizationPercentile(0.95, tb.Clock.Now()),
		ClientCPU: tb.CPU.UtilizationPercentile(0.95, tb.Clock.Now()),
	}
	tb.Cluster.EndWindow(wl, map[string]float64{
		"elapsed_ns": float64(res.Elapsed),
		"messages":   float64(res.Messages),
		"bytes":      float64(res.Bytes),
		"server_cpu": res.ServerCPU,
		"client_cpu": res.ClientCPU,
	})
	return res, nil
}
