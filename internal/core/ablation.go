package core

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Ablations isolate the design choices behind the paper's results: the
// journal commit interval (update aggregation window), the synchronous
// meta-data export mode (durability vs. performance), the client's
// async-write pool bound (pseudo-synchronous degeneration), and access
// time maintenance. Each returns the measured effect so DESIGN.md's
// causal claims are checkable, not narrative.

// AblationResult is one knob setting's measurement.
type AblationResult struct {
	Setting  string
	Elapsed  time.Duration
	Messages int64
}

// AblateCommitInterval runs a burst of meta-data updates on iSCSI under
// different journal commit intervals. Shorter intervals mean more commits
// per burst: less aggregation, more messages — quantifying the mechanism
// behind Figure 3 and Table 3.
func AblateCommitInterval(opts Options, intervals []time.Duration, ops int) ([]AblationResult, error) {
	opts.fill()
	opts.pool = sweepPool(opts.pool)
	if len(intervals) == 0 {
		intervals = []time.Duration{100 * time.Millisecond, time.Second, 5 * time.Second, 30 * time.Second}
	}
	if ops <= 0 {
		ops = 200
	}
	var out []AblationResult
	for _, iv := range intervals {
		tb, err := testbed.New(testbed.Config{
			Kind:           ISCSI,
			DeviceBlocks:   opts.DeviceBlocks,
			CommitInterval: iv,
			Seed:           opts.Seed,
			Metrics: cellRecorder(opts.Metrics, "ablate", ISCSI,
				metrics.Tags{"knob": "commit-interval", "setting": iv.String()}),
			Pool: opts.pool,
		})
		if err != nil {
			return nil, err
		}
		tb.Cluster.BeginWindow(nil)
		before := tb.Snap()
		for i := 0; i < ops; i++ {
			if err := tb.Mkdir(fmt.Sprintf("/ci%d", i)); err != nil {
				return nil, err
			}
			// Ops spread in time so interval-driven commits can fire.
			tb.Idle(50 * time.Millisecond)
		}
		if err := tb.Drain(); err != nil {
			return nil, err
		}
		d := tb.Since(before)
		tb.Cluster.EndWindow(nil, map[string]float64{
			"elapsed_ns": float64(d.Elapsed),
			"messages":   float64(d.Messages),
		})
		out = append(out, AblationResult{
			Setting:  fmt.Sprintf("commit=%v", iv),
			Elapsed:  d.Elapsed,
			Messages: d.Messages,
		})
		tb.Cluster.Close()
	}
	return out, nil
}

// AblateSyncExport compares the era's async Linux export against the
// spec-compliant synchronous export on a meta-data burst over NFS v3: the
// durability the paper discusses in Section 2.3, priced.
func AblateSyncExport(opts Options, ops int) (async, sync AblationResult, err error) {
	opts.fill()
	opts.pool = sweepPool(opts.pool)
	if ops <= 0 {
		ops = 200
	}
	run := func(syncMode bool) (AblationResult, error) {
		setting := "async-export"
		if syncMode {
			setting = "sync-export"
		}
		tb, err := testbed.New(testbed.Config{
			Kind:         NFSv3,
			DeviceBlocks: opts.DeviceBlocks,
			Seed:         opts.Seed,
			Metrics: cellRecorder(opts.Metrics, "ablate", NFSv3,
				metrics.Tags{"knob": "export-durability", "setting": setting}),
			Pool: opts.pool,
		})
		if err != nil {
			return AblationResult{}, err
		}
		defer tb.Cluster.Close()
		tb.Stack.NFSServer().SyncMetadataUpdates = syncMode
		tb.Cluster.BeginWindow(nil)
		before := tb.Snap()
		for i := 0; i < ops; i++ {
			if err := tb.Mkdir(fmt.Sprintf("/se%d", i)); err != nil {
				return AblationResult{}, err
			}
		}
		if err := tb.Drain(); err != nil {
			return AblationResult{}, err
		}
		d := tb.Since(before)
		tb.Cluster.EndWindow(nil, map[string]float64{
			"elapsed_ns": float64(d.Elapsed),
			"messages":   float64(d.Messages),
		})
		return AblationResult{Setting: setting, Elapsed: d.Elapsed, Messages: d.Messages}, nil
	}
	if async, err = run(false); err != nil {
		return
	}
	sync, err = run(true)
	return
}

// AblateWritePool sweeps the NFS client's async-write pool bound on a
// sequential write, quantifying Section 4.5's pseudo-synchronous
// degeneration: small pools stall the writer early and often.
func AblateWritePool(opts Options, bounds []int, fileSize int64) ([]AblationResult, error) {
	opts.fill()
	opts.pool = sweepPool(opts.pool)
	if len(bounds) == 0 {
		bounds = []int{64, 256, 1024, 4096}
	}
	if fileSize == 0 {
		fileSize = 8 << 20
	}
	var out []AblationResult
	for _, bound := range bounds {
		tb, err := testbed.New(testbed.Config{
			Kind:         NFSv3,
			DeviceBlocks: opts.DeviceBlocks,
			Seed:         opts.Seed,
			Metrics: cellRecorder(opts.Metrics, "ablate", NFSv3,
				metrics.Tags{"knob": "write-pool", "setting": itoa(bound)}),
			Pool: opts.pool,
		})
		if err != nil {
			return nil, err
		}
		tb.Stack.NFSClient().MaxPendingWrites = bound
		res, err := workload.SequentialWrite(tb, workload.SeqRandConfig{
			FileSize: fileSize, ChunkSize: 4096, Seed: 7,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{
			Setting:  fmt.Sprintf("pool=%d pages", bound),
			Elapsed:  res.Elapsed,
			Messages: res.Messages,
		})
		tb.Cluster.Close()
	}
	return out, nil
}

// AblateNoAtime measures access-time maintenance cost on iSCSI: a pure
// read workload generates meta-data write traffic only because of atime
// (the paper's warm-read observation in Section 4.4).
func AblateNoAtime(opts Options, reads int) (withAtime, noAtime AblationResult, err error) {
	opts.fill()
	opts.pool = sweepPool(opts.pool)
	if reads <= 0 {
		reads = 100
	}
	run := func(noatime bool) (AblationResult, error) {
		setting := "atime"
		if noatime {
			setting = "noatime"
		}
		tb, err := testbed.New(testbed.Config{
			Kind:         ISCSI,
			DeviceBlocks: opts.DeviceBlocks,
			NoAtime:      noatime,
			Seed:         opts.Seed,
			Metrics: cellRecorder(opts.Metrics, "ablate", ISCSI,
				metrics.Tags{"knob": "atime", "setting": setting}),
			Pool: opts.pool,
		})
		if err != nil {
			return AblationResult{}, err
		}
		defer tb.Cluster.Close()
		if err := tb.WriteFile("/hot", make([]byte, 64<<10)); err != nil {
			return AblationResult{}, err
		}
		if err := tb.Drain(); err != nil {
			return AblationResult{}, err
		}
		tb.Cluster.BeginWindow(nil)
		before := tb.Snap()
		f, err := tb.Open("/hot")
		if err != nil {
			return AblationResult{}, err
		}
		buf := make([]byte, 4096)
		for i := 0; i < reads; i++ {
			if _, err := tb.ReadFileAt(f, int64(i%16)*4096, buf); err != nil {
				return AblationResult{}, err
			}
			tb.Idle(200 * time.Millisecond)
		}
		if err := tb.Drain(); err != nil {
			return AblationResult{}, err
		}
		d := tb.Since(before)
		tb.Cluster.EndWindow(nil, map[string]float64{
			"elapsed_ns": float64(d.Elapsed),
			"messages":   float64(d.Messages),
		})
		return AblationResult{Setting: setting, Elapsed: d.Elapsed, Messages: d.Messages}, nil
	}
	if withAtime, err = run(false); err != nil {
		return
	}
	noAtime, err = run(true)
	return
}
