package core

import (
	"strconv"

	"repro/internal/metrics"
)

// EmitEvents: the shared telemetry path of the Run* harnesses. Every
// experiment derives a per-cell recorder (tagged with the experiment name,
// stack and cell axes) and hands it to the testbed or cluster it builds;
// the instrumented layers then stream counter samples, and the harness
// frames each measured window with Cluster.BeginWindow/EndWindow, closing
// it with a result point. docs/METRICS.md documents the resulting schema;
// cmd/metrics summarizes the streams.

// cellRecorder derives the recorder one experiment cell emits through:
// events carry {experiment, stack} plus the cell's extra axis tags.
func cellRecorder(rec *metrics.Recorder, experiment string, k Stack, extra metrics.Tags) *metrics.Recorder {
	return rec.With(metrics.Tags{"experiment": experiment, "stack": k.Tag()}).With(extra)
}

// itoa tags an integer axis value.
func itoa(n int) string { return strconv.Itoa(n) }

// ftoa tags a float axis value ("0.01", not "1e-02").
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
