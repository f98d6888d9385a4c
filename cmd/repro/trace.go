package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tracing"
)

func traceCell(fs *flag.FlagSet) func(*env) error {
	var cfg core.TransportConfig
	var cell core.TransportCell
	stack := fs.String("stack", "nfsv3", "protocol stack (nfsv2, nfsv3, nfsv4, iscsi)")
	transport := fs.String("transport", "tcp", "wire model (fluid, udp, tcp)")
	fs.StringVar(&cell.Workload, "workload", "seq-read", "workload ("+strings.Join(core.TransportWorkloads, ",")+")")
	sizeFlag(fs, &cfg.FileSize, 1<<10, 256, 1<<20, "file size in KB per workload pass")
	chunkFlag(fs, &cfg.ChunkSize)
	fs.DurationVar(&cell.RTT, "rtt", 200*time.Microsecond, "network round-trip time")
	loss := lossFlag(fs)
	wireFlags(fs, &cell.Conns, &cell.Window)
	seedFlag(fs, &cfg.Seed, 42)
	chromePath := fs.String("chrome", "", "write Chrome trace_event JSON (Perfetto-loadable) to this file")
	from := fs.String("from", "", "analyze an existing span JSONL instead of running a cell")
	return func(e *env) error {
		var spans *tracing.Tracer
		label := *from
		if *from != "" {
			f, err := os.Open(*from)
			if err != nil {
				return err
			}
			spans, err = tracing.ReadSpans(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", *from, err)
			}
			e.trace.Replay(spans)
		} else {
			stacks, err := Stacks(*stack)
			if err != nil || len(stacks) != 1 {
				return fmt.Errorf("bad -stack value %q (one of nfsv2, nfsv3, nfsv4, iscsi)", *stack)
			}
			transports, err := Transports(*transport)
			if err != nil || len(transports) != 1 {
				return fmt.Errorf("bad -transport value %q (one of fluid, udp, tcp)", *transport)
			}
			if cell.RTT < 0 {
				return fmt.Errorf("bad -rtt value %v (must not be negative)", cell.RTT)
			}
			if !slices.Contains(core.TransportWorkloads, cell.Workload) {
				return fmt.Errorf("bad -workload value %q (have %s)", cell.Workload, strings.Join(core.TransportWorkloads, ", "))
			}
			// The cell of the transport sweep, with the tracer attached.
			cell.Stack, cell.Transport, cell.Loss = stacks[0], transports[0], *loss/100
			cfg.Tracer = e.tracer
			if _, err := core.RunTransportCell(cfg, cell); err != nil {
				return err
			}
			spans = e.tracer
			label = fmt.Sprintf("%s/%s %s", *stack, *transport, cell.Workload)
		}
		if *chromePath != "" {
			err := writeFile(*chromePath, func(f *os.File) error { return tracing.WriteChrome(f, spans) })
			if err != nil {
				return fmt.Errorf("-chrome: %w", err)
			}
		}
		return renderCriticalPath(e.out, label, spans.Spans())
	}
}

// renderCriticalPath prints the per-layer critical-path table: for every
// traced op the analyzer bills each nanosecond to one layer, and the table
// aggregates the per-op bills as mean/p50/p99 with each layer's share of
// the total.
func renderCriticalPath(w io.Writer, label string, spans []tracing.Span) error {
	roots := tracing.Roots(spans)
	fmt.Fprintf(w, "Critical-path attribution: %s (%d spans, %d ops)\n",
		label, len(spans), len(roots))
	if len(roots) == 0 {
		fmt.Fprintln(w, "no traced ops (sampled out?)")
		return nil
	}
	paths, err := tracing.CriticalPaths(spans, roots)
	if err != nil {
		return err
	}
	perLayer := make(map[tracing.Layer][]time.Duration, len(tracing.Layers))
	var latencies []time.Duration
	var total time.Duration
	for i, r := range roots {
		for _, l := range tracing.Layers {
			perLayer[l] = append(perLayer[l], paths[i][l.String()])
		}
		latencies = append(latencies, r.End-r.Start)
		total += r.End - r.Start
	}
	fmt.Fprintf(w, "%-12s %10s %10s %10s %7s\n", "layer", "mean", "p50", "p99", "share")
	for _, l := range tracing.Layers {
		var sum time.Duration
		for _, d := range perLayer[l] {
			sum += d
		}
		if sum == 0 {
			continue
		}
		slices.Sort(perLayer[l])
		fmt.Fprintf(w, "%-12s %10s %10s %10s %6.1f%%\n", l,
			fmtDur(sum/time.Duration(len(roots))),
			fmtDur(metrics.Percentile(perLayer[l], 50)),
			fmtDur(metrics.Percentile(perLayer[l], 99)),
			100*float64(sum)/float64(total))
	}
	slices.Sort(latencies)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %6.1f%%\n", "op latency",
		fmtDur(total/time.Duration(len(roots))),
		fmtDur(metrics.Percentile(latencies, 50)),
		fmtDur(metrics.Percentile(latencies, 99)),
		100.0)
	return nil
}

// fmtDur rounds for the table without losing sub-microsecond bills.
func fmtDur(d time.Duration) string {
	if d >= time.Millisecond {
		return d.Round(time.Microsecond).String()
	}
	return d.Round(10 * time.Nanosecond).String()
}
