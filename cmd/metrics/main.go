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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/metrics"
)

// errUsage marks a command line that cannot be run as given (exit 2); the
// flag set has already printed why and the usage. Any other error is a
// failed run (exit 1).
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "metrics:", err)
		os.Exit(1)
	}
}

// run reads the streams the command line names and writes the roll-up, the
// rate windows or the validation line to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	by := fs.String("by", "experiment,stack,transport", "comma-separated tag keys to group by")
	rate := fs.Duration("rate", 0, "bucket sample deltas into virtual-time windows of this width (0 = off)")
	validate := fs.Bool("validate", false, "only validate the streams against the schema")
	input := fs.String("metrics", "", "an additional JSONL stream to read (same as a positional argument)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	paths := fs.Args()
	if *input != "" {
		paths = append(paths, *input)
	}
	if len(paths) == 0 {
		fmt.Fprintln(fs.Output(), "metrics: no input streams (pass JSONL files)")
		fs.Usage()
		return errUsage
	}

	var events []metrics.Event
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		evs, err := metrics.ReadEvents(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		events = append(events, evs...)
	}
	if *validate {
		fmt.Fprintf(stdout, "ok: %d events across %d stream(s) validate against docs/METRICS.md\n",
			len(events), len(paths))
		return nil
	}

	var keys []string
	for _, k := range strings.Split(*by, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keys = append(keys, k)
		}
	}
	if *rate > 0 {
		metrics.RenderWindows(stdout, metrics.Windows(events, *rate, keys), *rate)
		return nil
	}
	metrics.Summarize(events, keys).Render(stdout)
	return nil
}
