// Command metrics summarizes and validates the JSONL telemetry streams
// every other cmd writes through its -metrics flag (schema in
// docs/METRICS.md), so a recorded sweep is self-serve: per-tag counter
// totals, per-virtual-second rates, value percentiles and counter-over-
// time rate windows come out of the stream without re-running the
// simulation.
//
//	go run ./cmd/repro transport -size 1 -metrics transport.jsonl
//	go run ./cmd/metrics transport.jsonl                    # roll-up
//	go run ./cmd/metrics -by stack,transport transport.jsonl
//	go run ./cmd/metrics -rate 100ms transport.jsonl        # rate windows
//	go run ./cmd/metrics -validate bench.jsonl              # schema check
//
// Input files may also be passed via -metrics (the flag every cmd in this
// repository accepts; here it names a stream to read, not to write).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/metrics"
)

func main() {
	by := flag.String("by", "experiment,stack,transport", "comma-separated tag keys to group by")
	rate := flag.Duration("rate", 0, "bucket sample deltas into virtual-time windows of this width (0 = off)")
	validate := flag.Bool("validate", false, "only validate the streams against the schema")
	input := flag.String("metrics", "", "an additional JSONL stream to read (same as a positional argument)")
	flag.Parse()

	paths := flag.Args()
	if *input != "" {
		paths = append(paths, *input)
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "metrics: no input streams (pass JSONL files)")
		flag.Usage()
		os.Exit(2)
	}

	var events []metrics.Event
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fatal(err.Error())
		}
		evs, err := metrics.ReadEvents(f)
		f.Close()
		if err != nil {
			fatal(path + ": " + err.Error())
		}
		events = append(events, evs...)
	}
	if *validate {
		fmt.Printf("ok: %d events across %d stream(s) validate against docs/METRICS.md\n",
			len(events), len(paths))
		return
	}

	var keys []string
	for _, k := range strings.Split(*by, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keys = append(keys, k)
		}
	}
	if *rate > 0 {
		metrics.RenderWindows(os.Stdout, metrics.Windows(events, *rate, keys), *rate)
		return
	}
	metrics.Summarize(events, keys).Render(os.Stdout)
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "metrics:", msg)
	os.Exit(1)
}
