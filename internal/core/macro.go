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

// scaled shrinks a workload parameter by s, never below 1.
func scaled[T int | int64](s MacroScale, v T) T {
	if s <= 0 || s >= 1 {
		return v
	}
	return max(T(float64(v)*float64(s)), 1)
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
	opts.pool = sweepPool(opts.pool)
	var rows []Table5Row
	for _, files := range []int{1000, 5000, 25000} {
		row := Table5Row{Files: scaled(scale, files)}
		var err error
		row.NFS, row.ISCSI, err = postMarkPair(opts, "table5", metrics.Tags{"files": itoa(row.Files)}, row.Files, scale)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// postMarkPair runs PostMark's 100,000 transactions (scaled) over a pool of
// files on NFS v3 and iSCSI.
func postMarkPair(opts Options, experiment string, tags metrics.Tags, files int, scale MacroScale) (nfs, iscsi workload.Result, err error) {
	cfg := workload.DefaultPostMark(files)
	cfg.Transactions = scaled(scale, 100000)
	return onPair(opts, experiment, tags, testbed.Config{}, func(tb *testbed.Testbed) (workload.Result, error) {
		res, _, err := workload.PostMark(tb, cfg)
		return res, err
	})
}

// dbPair runs a database benchmark on NFS v3 and iSCSI, on testbeds whose
// cache-to-database ratio mirrors the paper's (the 30 GB TPC-C and 1 GB
// TPC-H databases dwarfed the 512 MB client and 1 GB server).
func dbPair(opts Options, experiment, benchmark string, dbSize int64,
	run func(*testbed.Testbed) (workload.Result, error)) (TPCRow, error) {
	opts.pool = sweepPool(opts.pool)
	dbBlocks := int(dbSize / 4096)
	row := TPCRow{Benchmark: benchmark}
	var err error
	row.NFS, row.ISCSI, err = onPair(opts, experiment, nil, testbed.Config{
		ClientCacheBlocks: max(dbBlocks/8, 512),
		ServerCacheBlocks: max(dbBlocks/4, 1024),
	}, run)
	if err == nil {
		row.Normalized = row.ISCSI.Throughput / row.NFS.Throughput
	}
	return row, err
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
	cfg := workload.DefaultTPCC()
	cfg.DBSize = scaled(scale, cfg.DBSize)
	cfg.Transactions = scaled(scale, cfg.Transactions)
	return dbPair(opts, "table6", "TPC-C", cfg.DBSize,
		func(tb *testbed.Testbed) (workload.Result, error) { return workload.TPCC(tb, cfg) })
}

// RunTable7 reproduces Table 7 (TPC-H).
func RunTable7(opts Options, scale MacroScale) (TPCRow, error) {
	cfg := workload.DefaultTPCH()
	cfg.DBSize = scaled(scale, cfg.DBSize)
	cfg.Queries = max(scaled(scale, cfg.Queries), 2)
	return dbPair(opts, "table7", "TPC-H", cfg.DBSize,
		func(tb *testbed.Testbed) (workload.Result, error) { return workload.TPCH(tb, cfg) })
}

// Table8Row is one shell benchmark.
type Table8Row struct {
	Benchmark string
	NFS       workload.Result
	ISCSI     workload.Result
}

// RunTable8 reproduces Table 8: tar -xzf, ls -lR, kernel compile, rm -rf,
// one after another on the same tree.
func RunTable8(opts Options, scale MacroScale) ([]Table8Row, error) {
	opts.pool = sweepPool(opts.pool)
	cfg := workload.DefaultKernel()
	cfg.Dirs = scaled(scale, cfg.Dirs)
	cfg.FilesPerDir = scaled(scale, cfg.FilesPerDir)
	steps := []struct {
		name string
		run  func(*testbed.Testbed, workload.KernelConfig) (workload.Result, error)
	}{
		{"tar -xzf", workload.KernelUntar},
		{"ls -lR", workload.KernelList},
		{"kernel compile", workload.KernelCompile},
		{"rm -rf", workload.KernelRemove},
	}
	nfs, iscsi, err := onPair(opts, "table8", nil, testbed.Config{}, func(tb *testbed.Testbed) ([]workload.Result, error) {
		var rs []workload.Result
		for _, s := range steps {
			r, err := s.run(tb, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			rs = append(rs, r)
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Table8Row
	for i, s := range steps {
		rows = append(rows, Table8Row{Benchmark: s.name, NFS: nfs[i], ISCSI: iscsi[i]})
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
	opts.pool = sweepPool(opts.pool)
	// PostMark in the 1,000-file configuration, as the CPU tables report.
	nfs, iscsi, err := postMarkPair(opts, "table9and10", nil, scaled(scale, 1000), scale)
	if err != nil {
		return nil, err
	}
	t6, err := RunTable6(opts, scale)
	if err != nil {
		return nil, err
	}
	t7, err := RunTable7(opts, scale)
	if err != nil {
		return nil, err
	}
	row := func(benchmark string, nfs, iscsi workload.Result) CPURow {
		return CPURow{
			Benchmark:   benchmark,
			NFSServer:   nfs.ServerCPU,
			ISCSIServer: iscsi.ServerCPU,
			NFSClient:   nfs.ClientCPU,
			ISCSIClient: iscsi.ClientCPU,
		}
	}
	return []CPURow{row("PostMark", nfs, iscsi), row("TPC-C", t6.NFS, t6.ISCSI), row("TPC-H", t7.NFS, t7.ISCSI)}, nil
}
