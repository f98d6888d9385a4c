package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Macro-benchmarks: Tables 5 through 10 (Section 5).

// MacroScale shrinks macro-benchmark parameters uniformly; 1.0 runs
// paper-faithful sizes, smaller values run proportionally lighter
// workloads for tests and quick benchmarks.
type MacroScale float64

func (s MacroScale) apply(v int) int {
	if s <= 0 || s >= 1 {
		return v
	}
	out := int(float64(v) * float64(s))
	if out < 1 {
		out = 1
	}
	return out
}

func (s MacroScale) applyI64(v int64) int64 {
	if s <= 0 || s >= 1 {
		return v
	}
	out := int64(float64(v) * float64(s))
	if out < 1 {
		out = 1
	}
	return out
}

// Table5Row is one PostMark pool size.
type Table5Row struct {
	Files int
	NFS   workload.Result
	ISCSI workload.Result
}

// RunTable5 reproduces Table 5: PostMark at 1,000 / 5,000 / 25,000 files,
// 100,000 transactions.
func RunTable5(opts Options, scale MacroScale) ([]Table5Row, error) {
	opts.fill()
	opts.pool = sweepPool(opts.pool)
	var rows []Table5Row
	for _, files := range []int{1000, 5000, 25000} {
		cfg := workload.DefaultPostMark(scale.apply(files))
		cfg.Transactions = scale.apply(100000)
		row := Table5Row{Files: cfg.Files}
		for _, stack := range []Stack{NFSv3, ISCSI} {
			tb, err := opts.newBed("table5", stack, metrics.Tags{"files": itoa(cfg.Files)})
			if err != nil {
				return nil, err
			}
			res, _, err := workload.PostMark(tb, cfg)
			tb.Cluster.Close()
			if err != nil {
				return nil, fmt.Errorf("table5 %d files on %v: %w", files, stack, err)
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

// dbBed builds a testbed whose cache-to-database ratio mirrors the paper's
// (the 30 GB TPC-C and 1 GB TPC-H databases dwarfed the 512 MB client and
// 1 GB server). The caller closes the testbed's cluster, as for newBed.
func (o Options) dbBed(experiment string, k Stack, dbSize int64) (*testbed.Testbed, error) {
	o.fill()
	dbBlocks := int(dbSize / 4096)
	return testbed.New(testbed.Config{
		Kind:              k,
		DeviceBlocks:      o.DeviceBlocks,
		Seed:              o.Seed,
		ClientCacheBlocks: maxInt(dbBlocks/8, 512),
		ServerCacheBlocks: maxInt(dbBlocks/4, 1024),
		Metrics:           cellRecorder(o.Metrics, experiment, k, nil),
		Pool:              o.pool,
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TPCRow is one database benchmark comparison. Throughputs are normalized
// to NFS v3 = 1.0, the way the paper reports unaudited runs.
type TPCRow struct {
	Benchmark  string
	NFS, ISCSI workload.Result
	// Normalized is iSCSI throughput / NFS throughput.
	Normalized float64
}

// RunTable6 reproduces Table 6 (TPC-C).
func RunTable6(opts Options, scale MacroScale) (TPCRow, error) {
	opts.pool = sweepPool(opts.pool)
	cfg := workload.DefaultTPCC()
	cfg.DBSize = scale.applyI64(cfg.DBSize)
	cfg.Transactions = scale.apply(cfg.Transactions)
	row := TPCRow{Benchmark: "TPC-C"}
	for _, stack := range []Stack{NFSv3, ISCSI} {
		tb, err := opts.dbBed("table6", stack, cfg.DBSize)
		if err != nil {
			return row, err
		}
		res, err := workload.TPCC(tb, cfg)
		tb.Cluster.Close()
		if err != nil {
			return row, fmt.Errorf("table6 on %v: %w", stack, err)
		}
		if stack == NFSv3 {
			row.NFS = res
		} else {
			row.ISCSI = res
		}
	}
	row.Normalized = row.ISCSI.Throughput / row.NFS.Throughput
	return row, nil
}

// RunTable7 reproduces Table 7 (TPC-H).
func RunTable7(opts Options, scale MacroScale) (TPCRow, error) {
	opts.pool = sweepPool(opts.pool)
	cfg := workload.DefaultTPCH()
	cfg.DBSize = scale.applyI64(cfg.DBSize)
	cfg.Queries = scale.apply(cfg.Queries)
	if cfg.Queries < 2 {
		cfg.Queries = 2
	}
	row := TPCRow{Benchmark: "TPC-H"}
	for _, stack := range []Stack{NFSv3, ISCSI} {
		tb, err := opts.dbBed("table7", stack, cfg.DBSize)
		if err != nil {
			return row, err
		}
		res, err := workload.TPCH(tb, cfg)
		tb.Cluster.Close()
		if err != nil {
			return row, fmt.Errorf("table7 on %v: %w", stack, err)
		}
		if stack == NFSv3 {
			row.NFS = res
		} else {
			row.ISCSI = res
		}
	}
	row.Normalized = row.ISCSI.Throughput / row.NFS.Throughput
	return row, nil
}

// Table8Row is one shell benchmark.
type Table8Row struct {
	Benchmark string
	NFS       workload.Result
	ISCSI     workload.Result
}

// RunTable8 reproduces Table 8: tar -xzf, ls -lR, kernel compile, rm -rf.
func RunTable8(opts Options, scale MacroScale) ([]Table8Row, error) {
	opts.fill()
	opts.pool = sweepPool(opts.pool)
	cfg := workload.DefaultKernel()
	cfg.Dirs = scale.apply(cfg.Dirs)
	cfg.FilesPerDir = scale.apply(cfg.FilesPerDir)
	names := []string{"tar -xzf", "ls -lR", "kernel compile", "rm -rf"}
	results := map[Stack][]workload.Result{}
	for _, stack := range []Stack{NFSv3, ISCSI} {
		tb, err := opts.newBed("table8", stack, nil)
		if err != nil {
			return nil, err
		}
		var rs []workload.Result
		r, err := workload.KernelUntar(tb, cfg)
		if err != nil {
			return nil, fmt.Errorf("table8 untar on %v: %w", stack, err)
		}
		rs = append(rs, r)
		if r, err = workload.KernelList(tb, cfg); err != nil {
			return nil, fmt.Errorf("table8 ls on %v: %w", stack, err)
		}
		rs = append(rs, r)
		if r, err = workload.KernelCompile(tb, cfg); err != nil {
			return nil, fmt.Errorf("table8 compile on %v: %w", stack, err)
		}
		rs = append(rs, r)
		if r, err = workload.KernelRemove(tb, cfg); err != nil {
			return nil, fmt.Errorf("table8 rm on %v: %w", stack, err)
		}
		rs = append(rs, r)
		results[stack] = rs
		tb.Cluster.Close()
	}
	var rows []Table8Row
	for i, n := range names {
		rows = append(rows, Table8Row{
			Benchmark: n,
			NFS:       results[NFSv3][i],
			ISCSI:     results[ISCSI][i],
		})
	}
	return rows, nil
}

// CPURow is one Table 9/10 row: 95th-percentile utilizations.
type CPURow struct {
	Benchmark   string
	NFSServer   float64
	ISCSIServer float64
	NFSClient   float64
	ISCSIClient float64
}

// RunTable9And10 reproduces Tables 9 and 10: server and client CPU
// utilization percentiles for PostMark, TPC-C and TPC-H.
func RunTable9And10(opts Options, scale MacroScale) ([]CPURow, error) {
	opts.fill()
	opts.pool = sweepPool(opts.pool)
	var rows []CPURow

	// PostMark (1,000-file configuration, as the CPU tables report).
	pm := workload.DefaultPostMark(scale.apply(1000))
	pm.Transactions = scale.apply(100000)
	row := CPURow{Benchmark: "PostMark"}
	for _, stack := range []Stack{NFSv3, ISCSI} {
		tb, err := opts.newBed("table9and10", stack, nil)
		if err != nil {
			return nil, err
		}
		res, _, err := workload.PostMark(tb, pm)
		tb.Cluster.Close()
		if err != nil {
			return nil, fmt.Errorf("cpu postmark on %v: %w", stack, err)
		}
		if stack == NFSv3 {
			row.NFSServer, row.NFSClient = res.ServerCPU, res.ClientCPU
		} else {
			row.ISCSIServer, row.ISCSIClient = res.ServerCPU, res.ClientCPU
		}
	}
	rows = append(rows, row)

	t6, err := RunTable6(opts, scale)
	if err != nil {
		return nil, err
	}
	rows = append(rows, CPURow{
		Benchmark:   "TPC-C",
		NFSServer:   t6.NFS.ServerCPU,
		ISCSIServer: t6.ISCSI.ServerCPU,
		NFSClient:   t6.NFS.ClientCPU,
		ISCSIClient: t6.ISCSI.ClientCPU,
	})

	t7, err := RunTable7(opts, scale)
	if err != nil {
		return nil, err
	}
	rows = append(rows, CPURow{
		Benchmark:   "TPC-H",
		NFSServer:   t7.NFS.ServerCPU,
		ISCSIServer: t7.ISCSI.ServerCPU,
		NFSClient:   t7.NFS.ClientCPU,
		ISCSIClient: t7.ISCSI.ClientCPU,
	})
	return rows, nil
}
