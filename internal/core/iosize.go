package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/testbed"
)

// Figure 5 measures read and write message overheads against request size
// (128 bytes to 64 KB), cold and warm (Section 4.4). Cold reads start from
// empty caches; warm reads follow a full read of the file. Writes are
// measured cold, and — matching what a packet monitor sees before
// asynchronous write-back fires — counted to syscall return rather than to
// quiescence (the paper measured warm-cache write effects only via
// macro-benchmarks).

// SizePoint is one Figure 5 sample.
type SizePoint struct {
	Size     int
	Messages map[Stack]int64
}

// SizeSeries is one Figure 5 panel.
type SizeSeries struct {
	Panel  string // "cold-read", "warm-read", "cold-write"
	Points []SizePoint
}

// figure5Sizes returns the paper's request sizes: powers of two from 128
// bytes to 64 KB.
func figure5Sizes() []int {
	var out []int
	for s := 128; s <= 64<<10; s *= 2 {
		out = append(out, s)
	}
	return out
}

// RunFigure5 reproduces the three Figure 5 panels.
func RunFigure5(opts Options, sizes []int) ([]SizeSeries, error) {
	opts.pool = sweepPool(opts.pool)
	if len(sizes) == 0 {
		sizes = figure5Sizes()
	}
	panels := []string{"cold-read", "warm-read", "cold-write"}
	var out []SizeSeries
	for _, panel := range panels {
		s := SizeSeries{Panel: panel}
		for _, size := range sizes {
			pt := SizePoint{Size: size, Messages: map[Stack]int64{}}
			for _, stack := range testbed.AllKinds {
				n, err := ioSizeCount(opts, stack, panel, size)
				if err != nil {
					return nil, fmt.Errorf("figure5 %s %dB on %v: %w", panel, size, stack, err)
				}
				pt.Messages[stack] = n
			}
			s.Points = append(s.Points, pt)
		}
		out = append(out, s)
	}
	return out, nil
}

// ioSizeCount measures one Figure 5 cell.
func ioSizeCount(opts Options, stack Stack, panel string, size int) (msgs int64, err error) {
	tb, err := opts.newBed("figure5", stack,
		metrics.Tags{"panel": panel, "size": itoa(size)})
	if err != nil {
		return 0, err
	}
	defer tb.Cluster.Close()
	// Close the telemetry cell on every successful exit (the measured
	// windows below each end with the message-count delta).
	defer func() {
		if err == nil {
			tb.Cluster.EndWindow(nil, map[string]float64{"messages": float64(msgs)})
		}
	}()
	// The target file always holds 64 KB so every read size is in-file.
	if err := tb.WriteFile("/io.dat", make([]byte, 64<<10)); err != nil {
		return 0, err
	}
	if err := tb.ColdCache(); err != nil {
		return 0, err
	}
	switch panel {
	case "cold-read":
		tb.Cluster.BeginWindow(nil)
		before := tb.Snap()
		f, err := tb.Open("/io.dat")
		if err != nil {
			return 0, err
		}
		buf := make([]byte, size)
		if _, err := tb.ReadFileAt(f, 0, buf); err != nil {
			return 0, err
		}
		if err := tb.Drain(); err != nil {
			return 0, err
		}
		return tb.Since(before).Messages, nil
	case "warm-read":
		// Prime: read the whole file, then sequential reads of increasing
		// size per the paper; we measure the target size after the prime.
		f, err := tb.Open("/io.dat")
		if err != nil {
			return 0, err
		}
		whole := make([]byte, 64<<10)
		if _, err := tb.ReadFileAt(f, 0, whole); err != nil {
			return 0, err
		}
		if err := tb.Drain(); err != nil {
			return 0, err
		}
		opts.fill()
		tb.Idle(opts.WarmGap)
		tb.Cluster.BeginWindow(nil)
		before := tb.Snap()
		buf := make([]byte, size)
		if _, err := tb.ReadFileAt(f, 0, buf); err != nil {
			return 0, err
		}
		if err := tb.Drain(); err != nil {
			return 0, err
		}
		return tb.Since(before).Messages, nil
	case "cold-write":
		tb.Cluster.BeginWindow(nil)
		before := tb.Snap()
		f, err := tb.Open("/io.dat")
		if err != nil {
			return 0, err
		}
		if _, err := tb.WriteFileAt(f, 0, make([]byte, size)); err != nil {
			return 0, err
		}
		// Counted to syscall return: asynchronous write-back traffic that
		// fires later is what makes v3/v4 flat in the paper's panel (c).
		return tb.Since(before).Messages, nil
	}
	return 0, fmt.Errorf("core: unknown figure 5 panel %q", panel)
}
