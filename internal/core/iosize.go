package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/vfs"
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

// RunFigure5 reproduces the three Figure 5 panels.
func RunFigure5(opts Options, sizes []int) ([]SizeSeries, error) {
	opts.pool = sweepPool(opts.pool)
	if len(sizes) == 0 {
		// The paper's request sizes: powers of two from 128 bytes to 64 KB.
		for s := 128; s <= 64<<10; s *= 2 {
			sizes = append(sizes, s)
		}
	}
	var out []SizeSeries
	for _, panel := range []string{"cold-read", "warm-read", "cold-write"} {
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
	write, warm := panel == "cold-write", panel == "warm-read"
	if !write && !warm && panel != "cold-read" {
		return 0, fmt.Errorf("core: unknown figure 5 panel %q", panel)
	}
	tags := metrics.Tags{"panel": panel, "size": itoa(size)}
	err = opts.onBed("figure5", tags, testbed.Config{Kind: stack}, func(tb *testbed.Testbed) error {
		// The target file always holds 64 KB so every read size is in-file.
		if err := tb.WriteFile("/io.dat", make([]byte, 64<<10)); err != nil {
			return err
		}
		if err := tb.ColdCache(); err != nil {
			return err
		}
		var f vfs.File
		if warm {
			// Prime: read the whole file, then sequential reads of increasing
			// size per the paper; we measure the target size after the prime.
			var err error
			if f, err = tb.Open("/io.dat"); err != nil {
				return err
			}
			if _, err := tb.ReadFileAt(f, 0, make([]byte, 64<<10)); err != nil {
				return err
			}
			if err := settle(tb); err != nil {
				return err
			}
		}
		// Writes are counted to syscall return: asynchronous write-back
		// traffic that fires later is what makes v3/v4 flat in the paper's
		// panel (c).
		d, err := window(tb, write, func() (err error) {
			if !warm { // the cold panels pay for the open
				if f, err = tb.Open("/io.dat"); err != nil {
					return err
				}
			}
			if write {
				_, err = tb.WriteFileAt(f, 0, make([]byte, size))
			} else {
				_, err = tb.ReadFileAt(f, 0, make([]byte, size))
			}
			return err
		}, nil)
		msgs = d.Messages
		return err
	})
	return msgs, err
}
