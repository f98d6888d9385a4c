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

// RunTable4 reproduces Table 4. fileSize 0 selects the paper's 128 MB.
func RunTable4(opts Options, fileSize int64) ([]Table4Row, error) {
	opts.fill()
	opts.pool = sweepPool(opts.pool)
	cfg := workload.DefaultSeqRand()
	if fileSize > 0 {
		cfg.FileSize = fileSize
	}
	type runner struct {
		name string
		slug string
		fn   func(*testbed.Testbed, workload.SeqRandConfig) (workload.Result, error)
	}
	runners := []runner{
		{"Sequential reads", "seq-read", workload.SequentialRead},
		{"Random reads", "rand-read", workload.RandomRead},
		{"Sequential writes", "seq-write", workload.SequentialWrite},
		{"Random writes", "rand-write", workload.RandomWrite},
	}
	var rows []Table4Row
	for _, r := range runners {
		row := Table4Row{Workload: r.name}
		for _, stack := range []Stack{NFSv3, ISCSI} {
			tb, err := opts.newBed("table4", stack, metrics.Tags{"workload": r.slug})
			if err != nil {
				return nil, err
			}
			res, err := r.fn(tb, cfg)
			tb.Cluster.Close()
			if err != nil {
				return nil, fmt.Errorf("table4 %s on %v: %w", r.name, stack, err)
			}
			if stack == NFSv3 {
				row.NFS = res
			} else {
				row.ISCSI = res
			}
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
	opts.fill()
	opts.pool = sweepPool(opts.pool)
	if len(rtts) == 0 {
		for ms := 10; ms <= 90; ms += 20 {
			rtts = append(rtts, time.Duration(ms)*time.Millisecond)
		}
	}
	cfg := workload.DefaultSeqRand()
	if fileSize > 0 {
		cfg.FileSize = fileSize
	}
	type runner struct {
		name string
		fn   func(*testbed.Testbed, workload.SeqRandConfig) (workload.Result, error)
	}
	runners := []runner{
		{"seq-read", workload.SequentialRead},
		{"rand-read", workload.RandomRead},
		{"seq-write", workload.SequentialWrite},
		{"rand-write", workload.RandomWrite},
	}
	var out []LatencyPoint
	for _, rtt := range rtts {
		pt := LatencyPoint{RTT: rtt, Seconds: map[Stack]map[string]float64{}}
		for _, stack := range []Stack{NFSv3, ISCSI} {
			pt.Seconds[stack] = map[string]float64{}
			for _, r := range runners {
				tb, err := opts.newBed("figure6", stack,
					metrics.Tags{"workload": r.name, "rtt": rtt.String()})
				if err != nil {
					return nil, err
				}
				tb.SetRTT(rtt)
				res, err := r.fn(tb, cfg)
				tb.Cluster.Close()
				if err != nil {
					return nil, fmt.Errorf("figure6 %s rtt=%v on %v: %w", r.name, rtt, stack, err)
				}
				pt.Seconds[stack][r.name] = res.Elapsed.Seconds()
			}
		}
		out = append(out, pt)
	}
	return out, nil
}
