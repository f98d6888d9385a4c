package core

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Table 4 and Figure 6: sequential/random reads and writes of a large file
// in 4 KB chunks, on the LAN (Table 4) and across a WAN latency sweep
// (Figure 6, the NISTNet experiment). The paper compares NFS v3 and iSCSI.

// Table4Row is one Table 4 row.
type Table4Row struct {
	Workload string
	NFS      workload.Result
	ISCSI    workload.Result
}

// seqRand is the one table of the four workloads: the name Table 4 prints,
// the slug the sweeps' -workloads flags and the workload tag use, whether the
// file is laid down and the caches emptied first, the one-client driver, the
// per-client step driver of the cluster sweeps, and the bytes one pass moves.
// Rows are in the paper's order.
var seqRand = []struct {
	name, slug string
	reads      bool
	run        func(*testbed.Testbed, workload.SeqRandConfig) (workload.Result, error)
	steps      func(workload.Ops, string, workload.SeqRandConfig) workload.Steps
	bytes      func(workload.SeqRandConfig) int64
}{
	{"Sequential reads", "seq-read", true, workload.SequentialRead, workload.SequentialReadSteps, workload.SeqRandConfig.SeqBytes},
	{"Random reads", "rand-read", true, workload.RandomRead, workload.RandomReadSteps, workload.SeqRandConfig.RandBytes},
	{"Sequential writes", "seq-write", false, workload.SequentialWrite, workload.SequentialWriteSteps, workload.SeqRandConfig.SeqBytes},
	{"Random writes", "rand-write", false, workload.RandomWrite, workload.RandomWriteSteps, workload.SeqRandConfig.RandBytes},
}

// seqRandIndex finds a workload by slug (-1: not one of the four).
func seqRandIndex(slug string) int {
	for i, w := range seqRand {
		if w.slug == slug {
			return i
		}
	}
	return -1
}

// seqRandConfig is the paper's configuration at the given file size (0: the
// paper's 128 MB).
func seqRandConfig(fileSize int64) workload.SeqRandConfig {
	cfg := workload.DefaultSeqRand()
	if fileSize > 0 {
		cfg.FileSize = fileSize
	}
	return cfg
}

// RunTable4 reproduces Table 4. fileSize 0 selects the paper's 128 MB.
func RunTable4(opts Options, fileSize int64) ([]Table4Row, error) {
	opts.pool = sweepPool(opts.pool)
	cfg := seqRandConfig(fileSize)
	var rows []Table4Row
	for _, w := range seqRand {
		row := Table4Row{Workload: w.name}
		var err error
		row.NFS, row.ISCSI, err = onPair(opts, "table4", metrics.Tags{"workload": w.slug}, testbed.Config{},
			func(tb *testbed.Testbed) (workload.Result, error) { return w.run(tb, cfg) })
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// LatencyPoint is one Figure 6 sample.
type LatencyPoint struct {
	RTT     time.Duration
	Seconds map[Stack]map[string]float64 // stack -> workload -> completion s
}

// RunFigure6 reproduces Figure 6: completion time for sequential and
// random reads and writes as the round-trip latency sweeps 10..90 ms.
// fileSize 0 selects the paper's 128 MB (slow; benchmarks shrink it).
func RunFigure6(opts Options, fileSize int64, rtts []time.Duration) ([]LatencyPoint, error) {
	opts.pool = sweepPool(opts.pool)
	if len(rtts) == 0 {
		for ms := 10; ms <= 90; ms += 20 {
			rtts = append(rtts, time.Duration(ms)*time.Millisecond)
		}
	}
	cfg := seqRandConfig(fileSize)
	var out []LatencyPoint
	for _, rtt := range rtts {
		pt := LatencyPoint{RTT: rtt, Seconds: map[Stack]map[string]float64{}}
		for _, stack := range []Stack{NFSv3, ISCSI} {
			pt.Seconds[stack] = map[string]float64{}
			for _, w := range seqRand {
				tags := metrics.Tags{"workload": w.slug, "rtt": rtt.String()}
				err := opts.onBed("figure6", tags, testbed.Config{Kind: stack}, func(tb *testbed.Testbed) error {
					tb.Cluster.Net.SetRTT(rtt)
					res, err := w.run(tb, cfg)
					pt.Seconds[stack][w.slug] = res.Elapsed.Seconds()
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("figure6 %s rtt=%v on %v: %w", w.slug, rtt, stack, err)
				}
			}
		}
		out = append(out, pt)
	}
	return out, nil
}
