package core

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/nfs"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Ablations isolate the design choices behind the paper's results: the
// journal commit interval (update aggregation window), the synchronous
// meta-data export mode (durability vs. performance), the client's
// async-write pool bound (pseudo-synchronous degeneration), and access
// time maintenance. Each returns the measured effect so the paper's
// causal claims are checkable, not narrative.

// AblationResult is one knob setting's measurement.
type AblationResult struct {
	Setting  string
	Elapsed  time.Duration
	Messages int64
}

// ablate measures one knob setting: a cell tagged {knob, setting} on cfg's
// testbed, whose body is one measured window (setup, if any, runs first).
func ablate(opts Options, knob, setting string, cfg testbed.Config,
	setup func(*testbed.Testbed) error, body func(*testbed.Testbed) error) (AblationResult, error) {
	res := AblationResult{Setting: setting}
	err := opts.onBed("ablate", metrics.Tags{"knob": knob, "setting": setting}, cfg, func(tb *testbed.Testbed) error {
		if setup != nil {
			if err := setup(tb); err != nil {
				return err
			}
		}
		d, err := window(tb, false, func() error { return body(tb) },
			func(d testbed.Delta, results map[string]float64) { results["elapsed_ns"] = float64(d.Elapsed) })
		res.Elapsed, res.Messages = d.Elapsed, d.Messages
		return err
	})
	return res, err
}

// mkdirBurst makes ops directories named prefix0, prefix1, ..., idling gap
// after each.
func mkdirBurst(tb *testbed.Testbed, prefix string, ops int, gap time.Duration) error {
	for i := 0; i < ops; i++ {
		if err := tb.Mkdir(fmt.Sprintf("/%s%d", prefix, i)); err != nil {
			return err
		}
		tb.Idle(gap)
	}
	return nil
}

// AblateCommitInterval runs a burst of meta-data updates on iSCSI under
// different journal commit intervals. Shorter intervals mean more commits
// per burst: less aggregation, more messages — quantifying the mechanism
// behind Figure 3 and Table 3.
func AblateCommitInterval(opts Options, intervals []time.Duration, ops int) ([]AblationResult, error) {
	opts.pool = sweepPool(opts.pool)
	if len(intervals) == 0 {
		intervals = []time.Duration{100 * time.Millisecond, time.Second, 5 * time.Second, 30 * time.Second}
	}
	if ops <= 0 {
		ops = 200
	}
	var out []AblationResult
	for _, iv := range intervals {
		res, err := ablate(opts, "commit-interval", iv.String(), testbed.Config{Kind: ISCSI, CommitInterval: iv}, nil,
			func(tb *testbed.Testbed) error {
				// Ops spread in time so interval-driven commits can fire.
				return mkdirBurst(tb, "ci", ops, 50*time.Millisecond)
			})
		if err != nil {
			return nil, err
		}
		res.Setting = fmt.Sprintf("commit=%v", iv)
		out = append(out, res)
	}
	return out, nil
}

// AblateSyncExport compares the era's async Linux export against the
// spec-compliant synchronous export on a meta-data burst over NFS v3: the
// durability the paper discusses in Section 2.3, priced.
func AblateSyncExport(opts Options, ops int) (async, sync AblationResult, err error) {
	opts.pool = sweepPool(opts.pool)
	if ops <= 0 {
		ops = 200
	}
	run := func(setting string, syncMode bool) (AblationResult, error) {
		return ablate(opts, "export-durability", setting, testbed.Config{Kind: NFSv3},
			func(tb *testbed.Testbed) error {
				tb.Cluster.NFSServer().SyncMetadataUpdates = syncMode
				return nil
			},
			func(tb *testbed.Testbed) error { return mkdirBurst(tb, "se", ops, 0) })
	}
	if async, err = run("async-export", false); err != nil {
		return
	}
	sync, err = run("sync-export", true)
	return
}

// AblateWritePool sweeps the NFS client's async-write pool bound on a
// sequential write, quantifying Section 4.5's pseudo-synchronous
// degeneration: small pools stall the writer early and often.
func AblateWritePool(opts Options, bounds []int, fileSize int64) ([]AblationResult, error) {
	opts.pool = sweepPool(opts.pool)
	if len(bounds) == 0 {
		bounds = []int{64, 256, 1024, 4096}
	}
	if fileSize == 0 {
		fileSize = 8 << 20
	}
	var out []AblationResult
	for _, bound := range bounds {
		// The workload frames its own window, as in Table 4.
		tags := metrics.Tags{"knob": "write-pool", "setting": itoa(bound)}
		err := opts.onBed("ablate", tags, testbed.Config{Kind: NFSv3}, func(tb *testbed.Testbed) error {
			tb.FS.(*nfs.Client).MaxPendingWrites = bound
			res, err := workload.SequentialWrite(tb, workload.SeqRandConfig{
				FileSize: fileSize, ChunkSize: 4096, Seed: 7,
			})
			if err != nil {
				return err
			}
			out = append(out, AblationResult{
				Setting:  fmt.Sprintf("pool=%d pages", bound),
				Elapsed:  res.Elapsed,
				Messages: res.Messages,
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AblateNoAtime measures access-time maintenance cost on iSCSI: a pure
// read workload generates meta-data write traffic only because of atime
// (the paper's warm-read observation in Section 4.4).
func AblateNoAtime(opts Options, reads int) (withAtime, noAtime AblationResult, err error) {
	opts.pool = sweepPool(opts.pool)
	if reads <= 0 {
		reads = 100
	}
	run := func(setting string, noatime bool) (AblationResult, error) {
		return ablate(opts, "atime", setting, testbed.Config{Kind: ISCSI, NoAtime: noatime},
			func(tb *testbed.Testbed) error {
				if err := tb.WriteFile("/hot", make([]byte, 64<<10)); err != nil {
					return err
				}
				return tb.Drain()
			},
			func(tb *testbed.Testbed) error {
				f, err := tb.Open("/hot")
				if err != nil {
					return err
				}
				buf := make([]byte, 4096)
				for i := 0; i < reads; i++ {
					if _, err := tb.ReadFileAt(f, int64(i%16)*4096, buf); err != nil {
						return err
					}
					tb.Idle(200 * time.Millisecond)
				}
				return nil
			})
	}
	if withAtime, err = run("atime", false); err != nil {
		return
	}
	noAtime, err = run("noatime", true)
	return
}
